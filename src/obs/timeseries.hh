/**
 * @file
 * Deterministic cycle-aligned time-series sampler (DESIGN.md §13).
 *
 * Rows are sampled at fixed multiples of the interval (cycle k·I for
 * k >= 1) and buffered in a bounded in-memory ring that flushes to a
 * JSONL file when full — the file starts with the SeriesRegistry
 * schema header, then one {"cycle":N,"v":[...]} row per sample.
 * Nothing in a row depends on the host (no wall-clock, no pointers),
 * so same-seed runs produce byte-identical files.
 *
 * The main loop samples at the end of every cycle where due() holds;
 * rearm() re-arms after a snapshot restore (smallest multiple >= now,
 * so the save/resume pair emits every boundary row exactly once).
 */

#ifndef MASK_OBS_TIMESERIES_HH
#define MASK_OBS_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/registry.hh"

namespace mask {
namespace obs {

/** Row ring size of the Gpu's periodic timeseries. */
constexpr std::size_t kTimeseriesRingRows = 256;

/** JSONL gauge-row writer with a bounded flush-on-full row ring. */
class TimeseriesWriter
{
  public:
    /**
     * Open @p path and write the schema header for @p registry.
     * @p interval 0 means aperiodic (nextDue() never fires; rows are
     * recorded only by explicit record() calls — the stage-profile
     * export uses this). On open failure the writer disables itself
     * with a warning on stderr; the simulation is never aborted by
     * telemetry.
     */
    TimeseriesWriter(std::string path, SeriesRegistry registry,
                     std::uint64_t interval, std::size_t ring_rows,
                     const std::string &stream = "mask-timeseries");
    ~TimeseriesWriter();

    TimeseriesWriter(const TimeseriesWriter &) = delete;
    TimeseriesWriter &operator=(const TimeseriesWriter &) = delete;

    /** Next cycle a sample is due (kNever-like max when aperiodic). */
    std::uint64_t nextDue() const { return nextDue_; }
    bool due(std::uint64_t now) const { return now == nextDue_; }

    /** Re-arm after restore: next due = smallest multiple of the
     *  interval >= @p now (the saving run stops before ticking its
     *  save cycle, so a restore at an exact boundary samples it). */
    void rearm(std::uint64_t now);

    /**
     * Record one row at @p cycle; @p values must match the registry
     * column count. Advances nextDue() to the next multiple.
     */
    void record(std::uint64_t cycle,
                const std::vector<double> &values);

    /** Write buffered rows to the file. */
    void flush();

    std::uint64_t interval() const { return interval_; }
    const SeriesRegistry &registry() const { return registry_; }
    std::uint64_t rowsRecorded() const { return rowsRecorded_; }
    bool ok() const { return file_ != nullptr; }

  private:
    SeriesRegistry registry_;
    std::string path_;
    std::uint64_t interval_;
    std::uint64_t nextDue_;
    std::size_t ringRows_;
    std::FILE *file_ = nullptr;
    std::vector<std::string> ring_; //!< formatted rows pending flush
    std::uint64_t rowsRecorded_ = 0;
};

} // namespace obs
} // namespace mask

#endif // MASK_OBS_TIMESERIES_HH

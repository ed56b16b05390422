/**
 * @file
 * Self-describing counter registry for the observability layer
 * (DESIGN.md §13).
 *
 * Every exported time series carries name/unit/app/kind metadata, and
 * the whole column set is emitted as a schema header line at the top
 * of each JSONL stream, so downstream tools (scripts/obs_report.py)
 * never hard-code column positions. ObsOptions says which files one
 * run writes; the Gpu takes it at construction, and the runner builds
 * it per run from MASK_SWEEP_OBS_DIR, MASK_TIMESERIES_INTERVAL and
 * MASK_TRACE_CATS. The in-memory rings are fixed:
 * kTimeseriesRingRows and kTraceRingEvents.
 *
 * The entire obs layer is observation-only: nothing in it feeds back
 * into the simulated machine, nothing is serialized into snapshots,
 * and none of its knobs participate in configFingerprint.
 */

#ifndef MASK_OBS_REGISTRY_HH
#define MASK_OBS_REGISTRY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mask {
namespace obs {

/** Bumped whenever the JSONL header/row layout changes shape. */
constexpr int kSchemaVersion = 1;

/** Metadata for one exported column. */
struct SeriesDesc
{
    std::string name;   //!< e.g. "l1_tlb_hit_rate"
    std::string unit;   //!< "ratio", "count", "cycles", "ipc", ...
    int app = -1;       //!< owning application, -1 = global
    std::string kind;   //!< "gauge" (point sample) or "delta"
    std::string desc;   //!< one-line human description
};

/** Ordered set of series; the column order of every emitted row. */
class SeriesRegistry
{
  public:
    /** Register a column; returns its index in row value vectors. */
    std::size_t add(SeriesDesc d);

    std::size_t size() const { return series_.size(); }
    const SeriesDesc &at(std::size_t i) const { return series_[i]; }

    /**
     * The self-describing header object (single line, no trailing
     * newline): schema name, version, sample interval, and the full
     * column list in order.
     */
    std::string schemaJson(const std::string &stream,
                           std::uint64_t interval) const;

  private:
    std::vector<SeriesDesc> series_;
};

/** Deterministic number formatting shared by all obs writers:
 *  integral values in [-2^53, 2^53] print as integers, everything
 *  else as %.9g. */
void appendJsonNumber(std::string &out, double v);

// ---------------------------------------------------------------------
// Per-run options
// ---------------------------------------------------------------------

/** The telemetry files of one run; the Gpu takes them at
 *  construction. Default: telemetry off. */
struct ObsOptions
{
    /** Path of the run's files without suffix ("" = off): the run
     *  writes <prefix>.timeseries.jsonl and <prefix>.trace.json, and
     *  with MASK_PROFILE_STAGES=1 also <prefix>.stages.jsonl. */
    std::string prefix;
    std::uint64_t timeseriesInterval = 10000; //!< cycles per sample
    std::uint32_t traceCats = 0xffffffffu;    //!< TraceCat bitmask

    bool on() const { return !prefix.empty(); }
    std::string timeseriesPath() const
    {
        return prefix + ".timeseries.jsonl";
    }
    std::string tracePath() const { return prefix + ".trace.json"; }
    /** Stage profile: wall-clock, so deliberately a separate file
     *  from the deterministic timeseries. */
    std::string stagesPath() const { return prefix + ".stages.jsonl"; }
};

/**
 * Options for the run named @p run_name: prefix
 * <MASK_SWEEP_OBS_DIR>/<run_name> (the directory is created; unset
 * means off), interval MASK_TIMESERIES_INTERVAL (0 keeps the
 * default), categories MASK_TRACE_CATS (a comma list of traceCatName
 * values; unset means all). Every knob is read even when telemetry is
 * off: a malformed interval or an unknown category throws ConfigError.
 */
ObsOptions obsOptionsFromEnv(const std::string &run_name);

} // namespace obs
} // namespace mask

#endif // MASK_OBS_REGISTRY_HH

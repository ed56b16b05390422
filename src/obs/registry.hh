/**
 * @file
 * Self-describing counter registry for the observability layer
 * (DESIGN.md §13).
 *
 * Every exported time series carries name/unit/app/kind metadata, and
 * the whole column set is emitted as a schema header line at the top
 * of each JSONL stream, so downstream tools (scripts/obs_report.py)
 * never hard-code column positions. The registry also resolves the
 * obs knobs (MASK_TIMESERIES, MASK_TIMESERIES_INTERVAL, MASK_TRACE,
 * MASK_TRACE_CATS, MASK_PROFILE_STAGES_OUT) through common/env.hh,
 * and owns the thread-local override the sweep runner installs to
 * give every job its own output paths (MASK_SWEEP_OBS_DIR). The
 * in-memory rings are fixed: kTimeseriesRingRows and kTraceRingEvents.
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
#include <string_view>
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

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string jsonEscape(std::string_view s);

/** Deterministic number formatting shared by all obs writers:
 *  integral values in [-2^53, 2^53] print as integers, everything
 *  else as %.9g. */
void appendJsonNumber(std::string &out, double v);

// ---------------------------------------------------------------------
// Options resolution (env knobs + per-job override)
// ---------------------------------------------------------------------

/** Resolved obs configuration; captured once per Gpu construction. */
struct ObsOptions
{
    std::string timeseriesPath;           //!< MASK_TIMESERIES ("" = off)
    std::uint64_t timeseriesInterval = 10000; //!< MASK_TIMESERIES_INTERVAL

    std::string tracePath;                //!< MASK_TRACE ("" = off)
    std::uint32_t traceCats = 0xffffffffu; //!< MASK_TRACE_CATS bitmask

    /** MASK_PROFILE_STAGES_OUT: registry-schema JSONL for the stage
     *  profiler (wall-clock — deliberately a separate file from the
     *  deterministic timeseries). */
    std::string stageProfilePath;

    bool timeseriesOn() const { return !timeseriesPath.empty(); }
    bool traceOn() const { return !tracePath.empty(); }
};

/** Read the obs knobs from the environment (throws ConfigError on a
 *  malformed MASK_TIMESERIES_INTERVAL). */
ObsOptions obsOptionsFromEnv();

/**
 * Options a Gpu constructed on this thread should use: the innermost
 * ScopedObsOverride if one is installed, else the environment.
 */
ObsOptions resolveObsOptions();

/**
 * Thread-local options override. The sweep runner wraps each job's
 * Gpu construction in one of these so concurrent jobs write to
 * per-job paths (or, for memoized alone-IPC runs, nowhere at all)
 * instead of fighting over the global env paths.
 */
class ScopedObsOverride
{
  public:
    explicit ScopedObsOverride(ObsOptions opts);
    ~ScopedObsOverride();

    ScopedObsOverride(const ScopedObsOverride &) = delete;
    ScopedObsOverride &operator=(const ScopedObsOverride &) = delete;

  private:
    ObsOptions opts_;
    const ObsOptions *prev_;
};

} // namespace obs
} // namespace mask

#endif // MASK_OBS_REGISTRY_HH

/**
 * @file
 * Multi-programmed workload runner: builds a GPU for a workload and a
 * design point, runs warmup + measurement windows, computes weighted
 * speedup / IPC throughput / unfairness against cached alone runs
 * (Section 6 methodology).
 */

#ifndef MASK_SIM_RUNNER_HH
#define MASK_SIM_RUNNER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "sim/crash_repro.hh"
#include "sim/gpu.hh"
#include "workload/suite.hh"

namespace mask {

/** Simulation window sizes. */
struct RunOptions
{
    Cycle warmup = 50000;
    Cycle measure = 200000;
};

/** Result of one multi-application evaluation. */
struct PairResult
{
    std::vector<double> sharedIpc;
    std::vector<double> aloneIpc;
    double weightedSpeedup = 0.0;
    double ipcThroughput = 0.0;
    double unfairness = 0.0;
    GpuStats stats;
};

/**
 * Thread-safe memo of alone-run IPCs. One cache may back any number of
 * Evaluators (one per sweep worker): the first thread to request a key
 * computes it while later requesters of the same key block until the
 * value lands, so no alone run is ever simulated twice.
 */
class AloneIpcCache
{
  public:
    /**
     * Return the cached value for @p key, or run @p compute (outside
     * the lock) to fill it. If the computing thread throws, one
     * blocked waiter retries the computation.
     */
    double getOrCompute(const std::string &key,
                        const std::function<double()> &compute);

    /** Number of distinct memoized alone runs. */
    std::size_t size() const;

  private:
    struct Slot
    {
        double value = 0.0;
        bool ready = false;
    };

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::map<std::string, Slot> slots_;
};

// --- Warm-start execution split (DESIGN.md §14) ----------------------

/**
 * Run only the warmup window of (cfg, bench_names) on a fresh Gpu and
 * render its snapshot image. The header carries warmupFingerprint(cfg)
 * — not configFingerprint — because any configuration with the same
 * warmup fingerprint may legally restore this image (they diverge only
 * in measure-only knobs).
 */
std::string runWarmup(const GpuConfig &cfg,
                      const std::vector<std::string> &bench_names,
                      Cycle warmup);

/**
 * Restore @p image into a fresh Gpu built from @p cfg and run only the
 * measurement window. Byte-identical to
 * run(warmup); resetStats(); run(measure) on the same configuration
 * (the SweepWarm tests and determinism leg 13 enforce this). Throws
 * SnapshotError when the image fails validation against
 * warmupFingerprint(cfg) or its header cycle differs from @p warmup —
 * callers fall back to a fresh run.
 */
GpuStats runMeasureFrom(std::string_view image, const GpuConfig &cfg,
                        const std::vector<std::string> &bench_names,
                        Cycle warmup, Cycle measure);

/**
 * Cache key of the warmed state shared by every job whose config maps
 * to @p warmup_fingerprint with workload @p bench_names and warmup
 * window @p warmup. Also the basename of file-backed warm snapshots.
 */
std::string warmStateKey(std::uint64_t warmup_fingerprint,
                         const std::vector<std::string> &bench_names,
                         Cycle warmup);

class WarmStateCache; // sim/sweep.hh

/** Runner with an alone-IPC cache shared across evaluations. */
class Evaluator
{
  public:
    /** Evaluator with a private alone-IPC cache. */
    explicit Evaluator(RunOptions options)
        : Evaluator(options, std::make_shared<AloneIpcCache>())
    {}

    /** Evaluator sharing @p cache (sweep workers pass one cache). */
    Evaluator(RunOptions options,
              std::shared_ptr<AloneIpcCache> cache)
        : options_(options), aloneCache_(std::move(cache))
    {}

    /**
     * Run @p bench_names concurrently on @p arch at @p point and
     * compute all Section 6 metrics. Alone IPCs use the same design
     * point and the same per-application core count.
     */
    PairResult evaluate(const GpuConfig &arch, DesignPoint point,
                        const std::vector<std::string> &bench_names);

    /** Shared run only (no alone runs, no metrics). */
    GpuStats runShared(const GpuConfig &arch, DesignPoint point,
                       const std::vector<std::string> &bench_names);

    /**
     * IPC of @p bench running alone on @p cores cores of @p arch at
     * @p point; memoized.
     */
    double aloneIpc(const GpuConfig &arch, DesignPoint point,
                    const std::string &bench, std::uint32_t cores);

    const RunOptions &options() const { return options_; }

    /** Distinct alone runs memoized so far (cache observability). */
    std::size_t aloneCacheSize() const { return aloneCache_->size(); }

    /**
     * Share @p warm across evaluations: shared and alone runs then
     * fork warmed snapshots instead of re-running warmup whenever the
     * run is warm-eligible (no MASK_CKPT_* checkpointing, no
     * telemetry files). Null (the default) disables warm starts —
     * every run then simulates from cycle 0, exactly as before.
     */
    void setWarmCache(std::shared_ptr<WarmStateCache> warm)
    {
        warm_ = std::move(warm);
    }

    /** Warm-state cache in use, or null. */
    const std::shared_ptr<WarmStateCache> &warmCache() const
    {
        return warm_;
    }

  private:
    /**
     * Warmup + measure of @p bench_names on the final config @p cfg,
     * writing the telemetry files @p obs names: forked from the warm
     * cache when one is set and the run is warm-eligible (no
     * checkpointing, no telemetry), else via runWithCheckpoints with
     * checkpoint files named after @p ckpt_label.
     */
    GpuStats runWindows(const GpuConfig &cfg,
                        const std::vector<std::string> &bench_names,
                        const std::vector<std::string> &ckpt_label,
                        const obs::ObsOptions &obs);

    RunOptions options_;
    std::shared_ptr<AloneIpcCache> aloneCache_;
    std::shared_ptr<WarmStateCache> warm_;
};

/** Outcome of replaying a crash-repro record. */
struct ReplayResult
{
    bool reproduced = false; //!< an invariant tripped during replay
    bool sameCycle = false;  //!< ...at the recorded cycle
    bool sameModule = false; //!< ...in the recorded module
    Cycle failCycle = 0;
    std::string module;
    std::string detail;
};

/**
 * Re-run the configuration recorded in @p repro (preset architecture,
 * design point, benches, seeds, hardening knobs) and report whether
 * the recorded failure reproduces. Deterministic: a faithful record
 * reproduces at exactly the recorded cycle. Throws, and runs nothing,
 * when the recorded arch is not a preset (ConfigError) or the rebuilt
 * config's fingerprint differs from the recorded one
 * (std::runtime_error; say, an alone run's shrunken GPU, or a
 * bench-modified preset).
 */
ReplayResult replayRepro(const CrashRepro &repro);

} // namespace mask

#endif // MASK_SIM_RUNNER_HH

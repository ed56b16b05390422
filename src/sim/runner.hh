/**
 * @file
 * Multi-programmed workload runs (Section 6 methodology): the shared
 * run of a workload's apps on one GPU and the alone run of each app on
 * its share of the cores, each over warmup + measurement windows.
 * SweepRunner (sim/sweep.hh) runs each distinct one once and computes
 * weighted speedup / IPC throughput / unfairness from them.
 */

#ifndef MASK_SIM_RUNNER_HH
#define MASK_SIM_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/crash_repro.hh"
#include "sim/gpu.hh"
#include "sim/snapshot.hh"
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

// --- Warm-start execution split (DESIGN.md §14) ----------------------

/**
 * Cache key of the warmed state shared by every job whose config maps
 * to @p warmup_fingerprint with workload @p bench_names and warmup
 * window @p warmup. Also the basename of file-backed warm snapshots.
 */
std::string warmStateKey(std::uint64_t warmup_fingerprint,
                         const std::vector<std::string> &bench_names,
                         Cycle warmup);

class WarmStateCache; // sim/sweep.hh

/**
 * Name of the shared run of @p benches on @p arch at @p point over
 * @p options' windows: the design point, the fingerprint of the final
 * config, the benches and the windows. Identical runs share it. It is
 * the basename of the run's telemetry files and of its crash repro.
 */
std::string sharedRunName(const GpuConfig &arch, DesignPoint point,
                          const std::vector<std::string> &benches,
                          const RunOptions &options);

/**
 * Name of the alone run of @p bench on aloneConfig(arch, point,
 * cores), like sharedRunName but "alone" in place of the design
 * point, which the alone config already covers: Static's alone runs
 * are SharedTLB's.
 */
std::string aloneRunName(const GpuConfig &arch, DesignPoint point,
                         const std::string &bench, std::uint32_t cores,
                         const RunOptions &options);

/**
 * Shared run: @p benches together on @p arch at @p point, checkpointed
 * under @p ckpt. With a non-null @p warm, a warm-eligible run (no
 * checkpointing, no telemetry) forks the warmed snapshot instead of
 * simulating warmup. Writes the run's telemetry files
 * (MASK_SWEEP_OBS_DIR). A tripped invariant or a fatal signal writes
 * the run's crash repro; the SimInvariantError is rethrown with the
 * repro path attached.
 */
GpuStats runShared(const GpuConfig &arch, DesignPoint point,
                   const std::vector<std::string> &benches,
                   const RunOptions &options,
                   const CheckpointPolicy &ckpt = {},
                   WarmStateCache *warm = nullptr);

/**
 * IPC of @p bench alone on aloneConfig(arch, point, cores), run as
 * runShared runs, except that it writes no telemetry.
 */
double runAlone(const GpuConfig &arch, DesignPoint point,
                const std::string &bench, std::uint32_t cores,
                const RunOptions &options,
                const CheckpointPolicy &ckpt = {},
                WarmStateCache *warm = nullptr);

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
 * design point, benches, an alone run's core count, seeds, hardening
 * knobs) and report whether the recorded failure reproduces.
 * Deterministic: a faithful record reproduces at exactly the recorded
 * cycle. Throws, and runs nothing, when the recorded arch is not a
 * preset (ConfigError) or the rebuilt config's fingerprint differs
 * from the recorded one (std::runtime_error; say, a bench-modified
 * preset).
 */
ReplayResult replayRepro(const CrashRepro &repro);

} // namespace mask

#endif // MASK_SIM_RUNNER_HH

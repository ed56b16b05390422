/**
 * @file
 * Deterministic crash replay and cross-process snapshot checks.
 *
 * Replay mode re-runs the configuration captured in a repro file
 * (written by the runner when a hard invariant trips) and reports
 * whether the failure reproduces at the recorded cycle.
 *
 * The snapshot modes drive scripts/check_determinism.sh's
 * checkpoint-restore leg: --snapshot-save serializes a run halfway
 * through its measured window into a snapshot file, --snapshot-resume
 * restores that file in a FRESH process and finishes the window, and
 * --snapshot-run does the same run uninterrupted. Resume and run print
 * the exact result blob (encodePairResult), so bit-exact recovery is
 * checked with a plain string compare.
 *
 * Usage:
 *   crash_replay --replay <repro-file>
 *   crash_replay --snapshot-run <design> <faults:0|1>
 *   crash_replay --snapshot-save <design> <faults:0|1> <file>
 *   crash_replay --snapshot-resume <design> <faults:0|1> <file>
 *
 * <design> is a reporting name: SharedTLB, MASK, Ideal, ...
 *
 * Exit codes: 0 success (for --replay: the recorded failure reproduced
 * exactly), 1 no failure reproduced, 3 a failure reproduced but
 * differs from the record, 2 usage / file / snapshot errors.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/crash_repro.hh"
#include "sim/gpu.hh"
#include "sim/snapshot.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

using namespace mask;

namespace {

int
replay(const char *path)
{
    const CrashRepro repro = loadRepro(path);
    std::printf("replaying %s\n", path);
    std::printf("  arch=%s design=%s seed=%llu warmup=%llu "
                "measure=%llu\n",
                repro.arch.c_str(), repro.design.c_str(),
                static_cast<unsigned long long>(repro.seed),
                static_cast<unsigned long long>(repro.warmup),
                static_cast<unsigned long long>(repro.measure));
    std::printf("  benches:");
    for (const std::string &bench : repro.benches)
        std::printf(" %s", bench.c_str());
    std::printf("\n");
    std::printf("  recorded failure: [%s] cycle %llu: %s\n",
                repro.module.c_str(),
                static_cast<unsigned long long>(repro.failCycle),
                repro.detail.c_str());

    const ReplayResult result = replayRepro(repro);
    if (!result.reproduced) {
        std::printf("result: NOT REPRODUCED (run completed "
                    "cleanly)\n");
        return 1;
    }
    std::printf("result: failed at [%s] cycle %llu: %s\n",
                result.module.c_str(),
                static_cast<unsigned long long>(result.failCycle),
                result.detail.c_str());
    if (result.sameCycle && result.sameModule) {
        std::printf("result: REPRODUCED exactly (same cycle, same "
                    "module)\n");
        return 0;
    }
    std::printf("result: DIVERGED from the record (cycle match: %s, "
                "module match: %s)\n",
                result.sameCycle ? "yes" : "no",
                result.sameModule ? "yes" : "no");
    return 3;
}

// ---------------------------------------------------------------------
// Snapshot modes (check_determinism.sh checkpoint-restore leg)
// ---------------------------------------------------------------------

constexpr Cycle kSnapWarmup = 4000;
constexpr Cycle kSnapMeasure = 16000;

/** Small GPU so each leg runs in milliseconds. */
GpuConfig
snapConfig(DesignPoint point, bool faults)
{
    GpuConfig cfg;
    cfg.numCores = 6;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    cfg = applyDesignPoint(cfg, point);
    if (faults) {
        cfg.harden.fault.enabled = true;
        cfg.harden.fault.seed = 11;
        cfg.harden.fault.dramDelayProb = 0.05;
        cfg.harden.fault.walkDropProb = 0.02;
    }
    return cfg;
}

std::unique_ptr<Gpu>
snapGpu(const GpuConfig &cfg)
{
    const WorkloadPair &pair = workloadPairs().front();
    return std::make_unique<Gpu>(
        cfg,
        std::vector<AppDesc>{AppDesc{&findBenchmark(pair.first)},
                             AppDesc{&findBenchmark(pair.second)}});
}

/** Single-line exact image of the simulated stats. */
void
printStatsBlob(const GpuStats &stats)
{
    PairResult result;
    result.stats = stats;
    result.sharedIpc = stats.ipc;
    std::printf("%s\n", encodePairResult(result).c_str());
}

int
snapshotRun(DesignPoint point, bool faults)
{
    const GpuConfig cfg = snapConfig(point, faults);
    auto gpu = snapGpu(cfg);
    gpu->run(kSnapWarmup);
    gpu->resetStats();
    gpu->run(kSnapMeasure);
    printStatsBlob(gpu->collect());
    return 0;
}

int
snapshotSave(DesignPoint point, bool faults, const char *file)
{
    const GpuConfig cfg = snapConfig(point, faults);
    auto gpu = snapGpu(cfg);
    gpu->run(kSnapWarmup);
    gpu->resetStats();
    gpu->setSnapshotCookie(1);
    gpu->run(kSnapMeasure / 2);
    const std::uint64_t bytes =
        saveSnapshotFile(file, configFingerprint(cfg), *gpu);
    std::fprintf(stderr,
                 "saved %s at cycle %llu (%llu bytes)\n", file,
                 static_cast<unsigned long long>(gpu->now()),
                 static_cast<unsigned long long>(bytes));
    return 0;
}

int
snapshotResume(DesignPoint point, bool faults, const char *file)
{
    const GpuConfig cfg = snapConfig(point, faults);
    auto gpu = snapGpu(cfg);
    loadSnapshotFile(file, configFingerprint(cfg), *gpu);
    std::fprintf(stderr, "resumed %s at cycle %llu\n", file,
                 static_cast<unsigned long long>(gpu->now()));
    const Cycle end = kSnapWarmup + kSnapMeasure;
    if (gpu->now() > end) {
        std::fprintf(stderr, "snapshot is past the run window\n");
        return 2;
    }
    gpu->run(end - gpu->now());
    printStatsBlob(gpu->collect());
    return 0;
}

bool
parseFaults(const char *arg, bool &faults)
{
    if (std::strcmp(arg, "0") == 0) {
        faults = false;
        return true;
    }
    if (std::strcmp(arg, "1") == 0) {
        faults = true;
        return true;
    }
    return false;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --replay <repro-file>\n"
                 "       %s --snapshot-run <design> <faults:0|1>\n"
                 "       %s --snapshot-save <design> <faults:0|1> "
                 "<file>\n"
                 "       %s --snapshot-resume <design> <faults:0|1> "
                 "<file>\n",
                 argv0, argv0, argv0, argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc == 3 && std::strcmp(argv[1], "--replay") == 0)
            return replay(argv[2]);

        bool faults = false;
        if (argc == 4 &&
            std::strcmp(argv[1], "--snapshot-run") == 0 &&
            parseFaults(argv[3], faults))
            return snapshotRun(designPointByName(argv[2]), faults);
        if (argc == 5 &&
            std::strcmp(argv[1], "--snapshot-save") == 0 &&
            parseFaults(argv[3], faults))
            return snapshotSave(designPointByName(argv[2]), faults,
                                argv[4]);
        if (argc == 5 &&
            std::strcmp(argv[1], "--snapshot-resume") == 0 &&
            parseFaults(argv[3], faults))
            return snapshotResume(designPointByName(argv[2]), faults,
                                  argv[4]);
        usage(argv[0]);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
}

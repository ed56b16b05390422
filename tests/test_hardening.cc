/**
 * @file
 * Hardening subsystem tests: config validation, structured invariant
 * checks, the forward-progress watchdog, deterministic fault
 * injection (with recovery), and crash-repro write/load/replay.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/mshr.hh"
#include "common/check.hh"
#include "common/memreq.hh"
#include "sim/crash_repro.hh"
#include "sim/gpu.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "tlb/tlb_mshr.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

GpuConfig
smallConfig()
{
    GpuConfig cfg;
    cfg.numCores = 4;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    return cfg;
}

BenchmarkParams
smallBench(const char *name, std::uint32_t cold,
           std::uint32_t run = 2)
{
    BenchmarkParams p;
    p.name = name;
    p.hotPages = 4;
    p.coldPages = cold;
    p.hotFraction = 0.1;
    p.pageRun = run;
    p.streamFraction = 0.6;
    p.blockWarps = 16;
    p.randWindow = 4;
    p.stepAccesses = 24;
    p.computeMean = 4;
    p.memDivergence = 2;
    p.lineReuse = 0.3;
    return p;
}

// ---------------------------------------------------------------------
// Config validation (satellite: reject malformed configs loudly)
// ---------------------------------------------------------------------

TEST(ConfigValidation, AcceptsAllPresets)
{
    for (const auto name : allArchNames())
        EXPECT_NO_THROW(validateConfig(archByName(name))) << name;
    EXPECT_NO_THROW(validateConfig(smallConfig()));
}

TEST(ConfigValidation, RejectsZeroCacheSize)
{
    GpuConfig cfg = smallConfig();
    cfg.l2.sizeBytes = 0;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
}

TEST(ConfigValidation, RejectsNonPowerOfTwoSetCount)
{
    GpuConfig cfg = smallConfig();
    // 192KB / (128B * 8 ways) = 192 sets: not a power of two.
    cfg.l2.sizeBytes = 192 * 1024;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
}

TEST(ConfigValidation, RejectsZeroEpoch)
{
    GpuConfig cfg = smallConfig();
    cfg.mask.epochCycles = 0;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
}

TEST(ConfigValidation, RejectsZeroTlbEntries)
{
    GpuConfig cfg = smallConfig();
    cfg.l2Tlb.entries = 0;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
}

TEST(ConfigValidation, RejectsBadWalkerDepth)
{
    GpuConfig cfg = smallConfig();
    cfg.walker.levels = 0;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
    cfg.walker.levels = 5;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
}

TEST(ConfigValidation, RejectsBadCoreShares)
{
    GpuConfig cfg = smallConfig();
    cfg.coreShares = {3, 3}; // sums to 6, numCores is 4
    EXPECT_THROW(validateConfig(cfg), ConfigError);
    cfg.coreShares = {4, 0}; // zero share
    EXPECT_THROW(validateConfig(cfg), ConfigError);
    cfg.coreShares = {1, 3};
    EXPECT_NO_THROW(validateConfig(cfg));
}

TEST(ConfigValidation, RejectsBadFaultProbability)
{
    GpuConfig cfg = smallConfig();
    cfg.harden.fault.dramDelayProb = 1.5;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
    cfg.harden.fault.dramDelayProb = -0.1;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
}

TEST(ConfigValidation, RejectsZeroWatchdogAge)
{
    GpuConfig cfg = smallConfig();
    cfg.harden.watchdog.maxAge = 0;
    EXPECT_THROW(validateConfig(cfg), ConfigError);
    cfg.harden.watchdog.enabled = false;
    EXPECT_NO_THROW(validateConfig(cfg));
}

TEST(ConfigValidation, GpuConstructorValidates)
{
    GpuConfig cfg = smallConfig();
    cfg.mask.epochCycles = 0;
    const BenchmarkParams a = smallBench("a", 500);
    EXPECT_THROW(Gpu(cfg, {AppDesc{&a}}), ConfigError);
}

// ---------------------------------------------------------------------
// SIM_CHECK / SimInvariantError units
// ---------------------------------------------------------------------

TEST(SimCheck, ErrorCarriesModuleCycleAndContext)
{
    try {
        SIM_CHECK_CTX(1 == 2, "test.module", Cycle{42},
                      "forced failure",
                      (CheckContext{.reqId = 7, .asid = 1,
                                    .vpn = 0x30}));
        FAIL() << "SIM_CHECK_CTX did not throw";
    } catch (const SimInvariantError &err) {
        EXPECT_EQ(err.module(), "test.module");
        EXPECT_EQ(err.cycle(), 42u);
        EXPECT_NE(err.detail().find("forced failure"),
                  std::string::npos);
        EXPECT_EQ(err.context().reqId, 7u);
        const std::string what = err.what();
        EXPECT_NE(what.find("test.module"), std::string::npos);
        EXPECT_NE(what.find("42"), std::string::npos);
        const std::string diag = err.diagnostic();
        EXPECT_NE(diag.find("forced failure"), std::string::npos);
    }
}

TEST(SimCheck, MshrCompleteWithoutEntryThrows)
{
    MshrTable mshr(4);
    try {
        mshr.complete(0xdead);
        FAIL() << "expected SimInvariantError";
    } catch (const SimInvariantError &err) {
        EXPECT_EQ(err.module(), "cache.mshr");
    }
}

TEST(SimCheck, RequestPoolDoubleReleaseThrows)
{
    RequestPool pool;
    const ReqId id = pool.alloc();
    pool.release(id);
    EXPECT_THROW(pool.release(id), SimInvariantError);
}

TEST(SimCheck, TlbMshrCompleteWithoutEntryThrows)
{
    TlbMshrTable mshr(4);
    EXPECT_THROW(mshr.complete(1, 0x10), SimInvariantError);
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, CleanRunSweepsWithoutTripping)
{
    GpuConfig cfg =
        applyDesignPoint(smallConfig(), DesignPoint::Mask);
    cfg.harden.watchdog.sweepInterval = 1000;
    const BenchmarkParams a = smallBench("a", 3000);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&a}});
    EXPECT_NO_THROW(gpu.run(20000));
    const GpuStats stats = gpu.collect();
    EXPECT_GT(stats.watchdogSweeps, 0u);
    EXPECT_GT(stats.watchdogMaxAgeSeen, 0u);
    EXPECT_LE(stats.watchdogMaxAgeSeen, cfg.harden.watchdog.maxAge);
}

TEST(Watchdog, CatchesLostWalkCompletionWithinOneEpoch)
{
    GpuConfig cfg =
        applyDesignPoint(smallConfig(), DesignPoint::SharedTlb);
    cfg.harden.watchdog.maxAge = 2000;
    cfg.harden.watchdog.sweepInterval = 500;
    cfg.harden.fault.enabled = true;
    cfg.harden.fault.walkDropProb = 1.0;
    cfg.harden.fault.walkDropRetry = false; // lost forever
    const BenchmarkParams a = smallBench("a", 5000);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&a}});
    try {
        gpu.run(30000);
        FAIL() << "watchdog did not trip on a lost walk";
    } catch (const SimInvariantError &err) {
        EXPECT_EQ(err.module(), "watchdog");
        // Loud failure within one sweep epoch of the age bound.
        EXPECT_LE(err.cycle(), cfg.harden.watchdog.maxAge +
                                   cfg.harden.watchdog.sweepInterval +
                                   10000);
        EXPECT_NE(err.detail().find("stuck"), std::string::npos);
        EXPECT_GT(err.context().age, cfg.harden.watchdog.maxAge);
    }
}

TEST(Watchdog, DisabledWatchdogDoesNotSweep)
{
    GpuConfig cfg =
        applyDesignPoint(smallConfig(), DesignPoint::SharedTlb);
    cfg.harden.watchdog.enabled = false;
    const BenchmarkParams a = smallBench("a", 1000);
    Gpu gpu(cfg, {AppDesc{&a}});
    gpu.run(10000);
    EXPECT_EQ(gpu.collect().watchdogSweeps, 0u);
}

// ---------------------------------------------------------------------
// Fault injection: the machine recovers (or fails loudly)
// ---------------------------------------------------------------------

struct FaultRun
{
    std::unique_ptr<Gpu> gpu;
    GpuStats stats;
};

/** Run with faults; expect completion, progress, and clean sweeps. */
FaultRun
runWithFaults(const FaultInjectConfig &fault, DesignPoint point)
{
    GpuConfig cfg = applyDesignPoint(smallConfig(), point);
    cfg.harden.fault = fault;
    cfg.harden.fault.enabled = true;
    cfg.harden.watchdog.sweepInterval = 1000;
    static const BenchmarkParams a = smallBench("a", 3000);
    static const BenchmarkParams b = smallBench("b", 500, 8);
    FaultRun run;
    run.gpu = std::make_unique<Gpu>(
        cfg, std::vector<AppDesc>{AppDesc{&a}, AppDesc{&b}});
    run.gpu->run(8000);
    run.gpu->resetStats();
    run.gpu->run(20000);
    run.stats = run.gpu->collect();
    return run;
}

TEST(FaultInjection, RecoversFromDelayedDramResponses)
{
    FaultInjectConfig fault;
    fault.dramDelayProb = 0.05;
    fault.dramDelayCycles = 400;
    const FaultRun run =
        runWithFaults(fault, DesignPoint::SharedTlb);
    EXPECT_GT(run.gpu->faultInjector().delaysInjected(), 0u);
    EXPECT_GT(run.stats.ipc[0], 0.0);
    EXPECT_GT(run.stats.ipc[1], 0.0);
}

TEST(FaultInjection, RecoversFromDroppedThenRetriedWalks)
{
    FaultInjectConfig fault;
    fault.walkDropProb = 0.25;
    fault.walkDropRetry = true;
    fault.walkRetryDelay = 150;
    const FaultRun run =
        runWithFaults(fault, DesignPoint::SharedTlb);
    EXPECT_GT(run.gpu->faultInjector().dropsInjected(), 0u);
    EXPECT_GT(run.stats.ipc[0], 0.0);
    EXPECT_GT(run.stats.ipc[1], 0.0);
    // Sweeps ran and stayed clean.
    EXPECT_GT(run.stats.watchdogSweeps, 0u);
}

TEST(FaultInjection, RecoversFromPortStalls)
{
    FaultInjectConfig fault;
    fault.portStallProb = 0.02;
    fault.portStallCycles = 12;
    const FaultRun run =
        runWithFaults(fault, DesignPoint::SharedTlb);
    EXPECT_GT(run.gpu->faultInjector().portStallsInjected(), 0u);
    EXPECT_GT(run.stats.ipc[0], 0.0);
}

TEST(FaultInjection, RecoversFromSpuriousShootdowns)
{
    FaultInjectConfig fault;
    fault.shootdownInterval = 1500;
    const FaultRun run = runWithFaults(fault, DesignPoint::Mask);
    EXPECT_GT(run.gpu->faultInjector().shootdownsInjected(), 0u);
    EXPECT_GT(run.stats.ipc[0], 0.0);
    EXPECT_GT(run.stats.ipc[1], 0.0);
}

TEST(FaultInjection, FaultScheduleIsDeterministic)
{
    GpuConfig cfg =
        applyDesignPoint(smallConfig(), DesignPoint::SharedTlb);
    cfg.harden.fault.enabled = true;
    cfg.harden.fault.dramDelayProb = 0.05;
    cfg.harden.fault.dramDelayCycles = 300;
    cfg.harden.fault.walkDropProb = 0.1;
    const BenchmarkParams a = smallBench("a", 3000);

    std::uint64_t sig[2];
    for (int rep = 0; rep < 2; ++rep) {
        Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&a}});
        gpu.run(15000);
        sig[rep] = gpu.appInstructions(0) * 1000003u +
                   gpu.faultInjector().delaysInjected() * 101u +
                   gpu.faultInjector().dropsInjected();
    }
    EXPECT_EQ(sig[0], sig[1]);
}

TEST(FaultInjection, TranslationsStayCorrectUnderFaults)
{
    GpuConfig cfg =
        applyDesignPoint(smallConfig(), DesignPoint::SharedTlb);
    cfg.harden.fault.enabled = true;
    cfg.harden.fault.dramDelayProb = 0.05;
    cfg.harden.fault.dramDelayCycles = 300;
    cfg.harden.fault.walkDropProb = 0.1;
    cfg.harden.fault.walkDropRetry = true;
    cfg.harden.fault.walkRetryDelay = 120;
    cfg.harden.fault.shootdownInterval = 2500;
    const BenchmarkParams a = smallBench("a", 2000);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&a}});
    gpu.run(25000);

    // Every entry the shared TLB serves must agree with the live page
    // table of its address space (ASIDs are 1-based app indices).
    int checked = 0;
    for (AppId app = 0; app < 2; ++app) {
        const Asid asid = static_cast<Asid>(app + 1);
        for (Vpn vpn = 0; vpn < 3000; ++vpn) {
            Pfn cached = kInvalidPfn;
            if (!gpu.sharedTlb().lookup(asid, vpn, &cached))
                continue;
            EXPECT_EQ(cached, gpu.pageTable(app).lookup(vpn))
                << "asid " << asid << " vpn " << vpn;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------
// Crash repro: write / load / replay determinism
// ---------------------------------------------------------------------

TEST(CrashRepro, WriteLoadRoundTrip)
{
    CrashRepro repro;
    repro.arch = "integrated";
    repro.design = "MASK";
    repro.benches = {"3DS", "HISTO"};
    repro.seed = 99;
    repro.warmup = 1234;
    repro.measure = 5678;
    repro.harden.watchdog.sweepInterval = 777;
    repro.harden.watchdog.maxAge = 4242;
    repro.harden.fault.enabled = true;
    repro.harden.fault.seed = 3;
    repro.harden.fault.walkDropProb = 0.125;
    repro.harden.fault.walkDropRetry = false;
    repro.failCycle = 31337;
    repro.module = "watchdog";
    repro.detail = "stuck TLB miss with 3 waiting core(s)";

    const std::string path = "round_trip.repro";
    writeRepro(path, repro);
    const CrashRepro loaded = loadRepro(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.arch, repro.arch);
    EXPECT_EQ(loaded.design, repro.design);
    EXPECT_EQ(loaded.benches, repro.benches);
    EXPECT_EQ(loaded.seed, repro.seed);
    EXPECT_EQ(loaded.warmup, repro.warmup);
    EXPECT_EQ(loaded.measure, repro.measure);
    EXPECT_EQ(loaded.harden.watchdog.sweepInterval, 777u);
    EXPECT_EQ(loaded.harden.watchdog.maxAge, 4242u);
    EXPECT_TRUE(loaded.harden.fault.enabled);
    EXPECT_EQ(loaded.harden.fault.seed, 3u);
    EXPECT_DOUBLE_EQ(loaded.harden.fault.walkDropProb, 0.125);
    EXPECT_FALSE(loaded.harden.fault.walkDropRetry);
    EXPECT_EQ(loaded.failCycle, repro.failCycle);
    EXPECT_EQ(loaded.module, repro.module);
    EXPECT_EQ(loaded.detail, repro.detail);
}

TEST(CrashRepro, LoadRejectsUnknownKeys)
{
    const std::string path = "bad_key.repro";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("bench 3DS\nbogus 1\n", f);
    std::fclose(f);
    EXPECT_THROW(loadRepro(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(CrashRepro, LoadRejectsMalformedValuesNamingTheKey)
{
    const std::string path = "bad_value.repro";
    for (const char *line :
         {"seed -1", "warmup 100abc", "measure 18446744073709551616",
          "watchdog.enabled yes", "fault.dramDelayProb 0.5x"}) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "bench 3DS\n%s\n", line);
        std::fclose(f);
        const std::string key(line, std::strchr(line, ' '));
        try {
            loadRepro(path);
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(path), std::string::npos) << what;
            EXPECT_NE(what.find(key + " '"), std::string::npos) << what;
        }
    }
    std::remove(path.c_str());
}

TEST(CrashRepro, FormatLoadRoundTripsExactValues)
{
    CrashRepro repro;
    repro.benches = {"3DS"};
    repro.seed = UINT64_MAX;
    repro.harden.fault.dramDelayProb = 0.0123456789;
    repro.harden.fault.walkDropProb = 0.1;
    repro.harden.fault.portStallProb = 1.0 / 3.0;

    const std::string path = "exact.repro";
    writeRepro(path, repro); // the formatRepro text
    const CrashRepro loaded = loadRepro(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.seed, repro.seed);
    EXPECT_EQ(loaded.harden.fault.dramDelayProb,
              repro.harden.fault.dramDelayProb);
    EXPECT_EQ(loaded.harden.fault.walkDropProb,
              repro.harden.fault.walkDropProb);
    EXPECT_EQ(loaded.harden.fault.portStallProb,
              repro.harden.fault.portStallProb);
    EXPECT_EQ(formatRepro(loaded), formatRepro(repro));
}

/** The integrated preset with an injected unrecoverable fault:
 *  every walk completion is dropped, so the watchdog must trip during
 *  the warmup window. A preset is required for name-based replay. */
GpuConfig
trippingArch()
{
    GpuConfig arch = archByName("integrated");
    arch.harden.watchdog.maxAge = 2000;
    arch.harden.watchdog.sweepInterval = 500;
    arch.harden.fault.enabled = true;
    arch.harden.fault.walkDropProb = 1.0;
    arch.harden.fault.walkDropRetry = false;
    return arch;
}

/** A fresh MASK_REPRO_DIR under the gtest temp dir for this scope. */
struct ScopedReproDir
{
    std::string dir;

    explicit ScopedReproDir(const std::string &leaf)
        : dir(::testing::TempDir() + leaf)
    {
        std::filesystem::remove_all(dir);
        ::setenv("MASK_REPRO_DIR", dir.c_str(), 1);
    }
    ~ScopedReproDir()
    {
        ::unsetenv("MASK_REPRO_DIR");
        std::filesystem::remove_all(dir);
    }
};

/** Load @p path, expect @p benches and @p fail_cycle, and replay it to
 *  that cycle. */
void
expectReplaysToCycle(const std::string &path,
                     const std::vector<std::string> &benches,
                     Cycle fail_cycle)
{
    const CrashRepro repro = loadRepro(path);
    EXPECT_EQ(repro.arch, "integrated");
    EXPECT_EQ(repro.benches, benches) << path;
    EXPECT_EQ(repro.failCycle, fail_cycle) << path;
    EXPECT_EQ(repro.module, "watchdog");

    const ReplayResult replay = replayRepro(repro);
    EXPECT_TRUE(replay.reproduced);
    EXPECT_TRUE(replay.sameModule);
    EXPECT_TRUE(replay.sameCycle)
        << "recorded cycle " << repro.failCycle << ", replay hit "
        << replay.failCycle;
}

TEST(CrashRepro, TrippedRunWritesReproAndReplaysToSameCycle)
{
    const ScopedReproDir repro_dir("watchdog_trip_repros");

    Evaluator eval(RunOptions{6000, 6000});
    Cycle fail_cycle = 0;
    std::string path;
    try {
        eval.runShared(trippingArch(), DesignPoint::SharedTlb,
                       {"3DS", "HISTO"});
        FAIL() << "expected the watchdog to trip";
    } catch (const SimInvariantError &err) {
        fail_cycle = err.cycle();
        path = err.reproPath();
        EXPECT_EQ(err.module(), "watchdog");
    }
    // Named by the run, inside the repro directory.
    EXPECT_EQ(path.rfind(repro_dir.dir + "/SharedTLB_", 0), 0u) << path;
    const std::string tail = "_3DS_HISTO_6000_6000.repro";
    ASSERT_GT(path.size(), tail.size());
    EXPECT_EQ(path.substr(path.size() - tail.size()), tail) << path;
    expectReplaysToCycle(path, {"3DS", "HISTO"}, fail_cycle);
}

TEST(CrashRepro, EachFailedSweepJobRecordsItsOwnRepro)
{
    const ScopedReproDir repro_dir("sweep_job_repros");

    const std::vector<std::vector<std::string>> pairs = {
        {"3DS", "HISTO"}, {"LPS", "RED"}};
    SweepRunner sweep(RunOptions{6000, 6000}, 2);
    for (const auto &benches : pairs)
        sweep.submit({trippingArch(), DesignPoint::SharedTlb, benches});
    sweep.run();

    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const SweepOutcome &outcome = sweep.outcome(i);
        ASSERT_EQ(outcome.status, SweepStatus::Failed) << i;
        ASSERT_FALSE(outcome.reproPath.empty()) << i;
        Cycle fail_cycle = 0;
        try {
            std::rethrow_exception(outcome.exception);
        } catch (const SimInvariantError &err) {
            fail_cycle = err.cycle();
        }
        expectReplaysToCycle(outcome.reproPath, pairs[i], fail_cycle);
    }
    EXPECT_NE(sweep.outcome(0).reproPath, sweep.outcome(1).reproPath);
}

TEST(CrashRepro, ReplayRefusesAConfigItCannotRebuild)
{
    // An alone run's config, built as Evaluator::aloneIpc builds it:
    // a preset name on a shrunken GPU with no shares or partition.
    GpuConfig alone = archByName("maxwell");
    alone.numCores = coreShareOf(alone, 2, 0);
    alone.coreShares.clear();
    alone.partition = PartitionConfig{};
    const std::string path = "alone_run.repro";
    writeRepro(path, makeRepro(alone, DesignPoint::SharedTlb, {"3DS"},
                               100, 100));
    const CrashRepro repro = loadRepro(path);
    std::remove(path.c_str());
    EXPECT_EQ(repro.fingerprint,
              configFingerprint(
                  applyDesignPoint(alone, DesignPoint::SharedTlb)));
    EXPECT_THROW(replayRepro(repro), std::runtime_error);

    // A bench-renamed variant is not a preset at all.
    CrashRepro renamed = repro;
    renamed.arch = "maxwell-tlb8192";
    EXPECT_THROW(replayRepro(renamed), std::runtime_error);
}

} // namespace
} // namespace mask

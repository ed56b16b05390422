/**
 * Tests for the parallel workload-sweep engine: parallel results must
 * be identical to serial ones, the shared alone-IPC memo must dedup
 * across workers, the memo key must distinguish configurations that
 * share a name (the fingerprint regression), and a failing job must be
 * contained in its outcome, and a journal resume must load finished
 * jobs, without perturbing the surviving jobs' results by a single
 * bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/config.hh"
#include "sim/crash_repro.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_io.hh"

using namespace mask;

namespace {

RunOptions
shortOptions()
{
    RunOptions options;
    options.warmup = 2000;
    options.measure = 6000;
    return options;
}

std::vector<SweepJob>
sampleJobs()
{
    const GpuConfig arch = archByName("maxwell");
    std::vector<SweepJob> jobs;
    for (const DesignPoint point :
         {DesignPoint::SharedTlb, DesignPoint::Mask,
          DesignPoint::Ideal}) {
        jobs.push_back({arch, point, {"HISTO", "LPS"}});
        jobs.push_back({arch, point, {"3DS", "RED"}});
    }
    return jobs;
}

/** Unique-ish temp path under the build dir (no clock/random: gtest
 *  runs each test in its own ctest process, so the PID suffices). */
std::string
tempPath(const std::string &tag)
{
    return "sweep_test_" + tag + "_" + std::to_string(::getpid()) +
           ".tmp";
}

/** Synthetic distinguishable result for executor-driven tests. */
PairResult
syntheticResult(double ipc)
{
    PairResult result;
    result.sharedIpc = {ipc, ipc / 2};
    result.aloneIpc = {ipc * 2, ipc};
    result.weightedSpeedup = 1.5;
    result.unfairness = 2.0;
    result.ipcThroughput = ipc * 1.5;
    result.stats.cycles = 1234;
    result.stats.ipc = result.sharedIpc;
    return result;
}

/**
 * @p r in the v3 blob layout older builds wrote: a "v3" token, then
 * every field as a space-separated decimal integer or C99 hex float.
 */
std::string
v3Blob(const PairResult &r)
{
    std::ostringstream out;
    out << "v3" << std::hexfloat;
    const auto u = [&](std::uint64_t v) { out << ' ' << v; };
    const auto d = [&](double v) { out << ' ' << v; };
    const auto hm = [&](const HitMiss &v) {
        u(v.hits);
        u(v.misses);
    };
    const auto rs = [&](const RunningStat &v) {
        u(v.count);
        d(v.sum);
        d(v.minVal);
        d(v.maxVal);
    };
    const auto vec = [&](const auto &v, const auto &item) {
        u(v.size());
        for (const auto &x : v)
            item(x);
    };
    const GpuStats &s = r.stats;
    vec(r.sharedIpc, d);
    vec(r.aloneIpc, d);
    for (const double v : {r.weightedSpeedup, r.ipcThroughput,
                           r.unfairness})
        d(v);
    u(s.cycles);
    vec(s.instructions, u);
    vec(s.ipc, d);
    hm(s.l1Tlb);
    hm(s.l2Tlb);
    vec(s.l2TlbPerApp, hm);
    for (const HitMiss &v : {s.bypassCache, s.pwCache, s.l1d})
        hm(v);
    for (const HitMiss &v : s.l2Cache)
        hm(v);
    for (const HitMiss &v : s.l2CachePerLevel)
        hm(v);
    for (const std::uint64_t v : s.dram.busBusy)
        u(v);
    for (const std::uint64_t v : s.dram.serviced)
        u(v);
    for (const RunningStat &v : s.dram.latency)
        rs(v);
    for (const std::uint64_t v :
         {s.dram.rowHits, s.dram.rowMisses, s.dram.rowConflicts,
          s.dram.enqueueRejects, s.dram.capEscalations, s.walks})
        u(v);
    for (const RunningStat &v :
         {s.walkLatency, s.tlbMissLatency, s.concurrentWalks})
        rs(v);
    vec(s.concurrentWalksPerApp, rs);
    rs(s.warpsPerMiss);
    vec(s.warpsPerMissPerApp, rs);
    rs(s.readyWarpsPerCore);
    vec(s.tokens, u);
    for (const std::uint64_t v :
         {s.l2Bypasses, s.warpStallCycles, s.watchdogSweeps,
          s.watchdogMaxAgeSeen, s.faultsInjected,
          std::uint64_t{s.poolPeakLive}, std::uint64_t{s.poolCapacity}})
        u(v);
    d(0.0); // wallSeconds travelled as zero
    u(s.requests);
    d(0.0); // so did the checkpoint overhead
    u(0);
    u(0);
    return out.str();
}

} // namespace

TEST(Sweep, ParallelResultsIdenticalToSerial)
{
    const std::vector<SweepJob> jobs = sampleJobs();

    SweepRunner serial(shortOptions(), 1);
    SweepRunner parallel(shortOptions(), 4);
    for (const SweepJob &job : jobs) {
        serial.submit(job);
        parallel.submit(job);
    }
    serial.run();
    parallel.run();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const PairResult &a = serial.result(i);
        const PairResult &b = parallel.result(i);
        ASSERT_EQ(a.sharedIpc.size(), b.sharedIpc.size());
        for (std::size_t app = 0; app < a.sharedIpc.size(); ++app) {
            EXPECT_EQ(a.sharedIpc[app], b.sharedIpc[app])
                << "job " << i << " app " << app;
            EXPECT_EQ(a.aloneIpc[app], b.aloneIpc[app])
                << "job " << i << " app " << app;
        }
        EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup) << "job " << i;
        EXPECT_EQ(a.unfairness, b.unfairness) << "job " << i;
        EXPECT_EQ(a.stats.cycles, b.stats.cycles) << "job " << i;
        EXPECT_EQ(a.stats.l2Tlb.hits, b.stats.l2Tlb.hits)
            << "job " << i;
        EXPECT_EQ(a.stats.dram.busBusy[0], b.stats.dram.busBusy[0])
            << "job " << i;
    }
}

TEST(Sweep, AloneCacheSharedAcrossWorkers)
{
    // Two jobs over the same pair at the same design point need the
    // same two alone runs: the shared memo must end up with exactly
    // one entry per (config, bench), not one per worker.
    SweepRunner sweep(shortOptions(), 4);
    const GpuConfig arch = archByName("maxwell");
    for (int i = 0; i < 4; ++i)
        sweep.submit({arch, DesignPoint::SharedTlb, {"HISTO", "LPS"}});
    sweep.run();
    EXPECT_EQ(sweep.aloneCacheSize(), 2u);

    // A second batch over the same workload reuses the memo.
    sweep.submit({arch, DesignPoint::SharedTlb, {"HISTO", "LPS"}});
    sweep.run();
    EXPECT_EQ(sweep.aloneCacheSize(), 2u);
}

TEST(Sweep, SharedOnlyModeSkipsAloneRuns)
{
    SweepRunner sweep(shortOptions(), 2);
    const GpuConfig arch = archByName("maxwell");
    sweep.submit({arch, DesignPoint::SharedTlb, {"HISTO", "LPS"},
                  SweepMode::SharedOnly});
    sweep.run();
    EXPECT_EQ(sweep.aloneCacheSize(), 0u);
    EXPECT_EQ(sweep.result(0).sharedIpc.size(), 2u);
    EXPECT_TRUE(sweep.result(0).aloneIpc.empty());
    EXPECT_EQ(sweep.result(0).weightedSpeedup, 0.0);
}

TEST(Sweep, ResultIndicesFollowSubmissionOrder)
{
    SweepRunner sweep(shortOptions(), 4);
    const GpuConfig arch = archByName("maxwell");
    const std::size_t a = sweep.submit({arch, DesignPoint::SharedTlb,
                                        {"HISTO"},
                                        SweepMode::SharedOnly});
    const std::size_t b = sweep.submit(
        {arch, DesignPoint::SharedTlb, {"LPS"}, SweepMode::SharedOnly});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    sweep.run();

    // Distinguishable results: the two benches run different
    // instruction mixes, so their IPCs differ.
    Evaluator eval(shortOptions());
    const GpuStats histo =
        eval.runShared(arch, DesignPoint::SharedTlb, {"HISTO"});
    EXPECT_EQ(sweep.result(a).stats.ipc[0], histo.ipc[0]);
}

TEST(Sweep, WorkerFailureIsIsolatedToItsJob)
{
    // One broken job must not sink the batch: run() records a Failed
    // outcome for it, result() rethrows the original exception, and
    // every other job's result is bit-identical to a clean run.
    SweepRunner sweep(shortOptions(), 2);
    const GpuConfig arch = archByName("maxwell");
    GpuConfig broken = arch;
    broken.l2Tlb.entries = 0; // rejected by validateConfig
    const std::size_t good = sweep.submit(
        {arch, DesignPoint::SharedTlb, {"HISTO"},
         SweepMode::SharedOnly});
    const std::size_t bad = sweep.submit(
        {broken, DesignPoint::SharedTlb, {"LPS"},
         SweepMode::SharedOnly});
    EXPECT_NO_THROW(sweep.run());

    EXPECT_EQ(sweep.outcome(good).status, SweepStatus::Ok);
    EXPECT_EQ(sweep.outcome(bad).status, SweepStatus::Failed);
    EXPECT_FALSE(sweep.outcome(bad).error.empty());
    EXPECT_EQ(sweep.failedJobs(), 1u);
    EXPECT_THROW(sweep.result(bad), ConfigError);

    SweepRunner clean(shortOptions(), 1);
    clean.submit({arch, DesignPoint::SharedTlb, {"HISTO"},
                  SweepMode::SharedOnly});
    clean.run();
    EXPECT_EQ(encodePairResult(sweep.result(good)),
              encodePairResult(clean.result(0)));
}

TEST(Sweep, AloneMemoSurvivesFailedBatch)
{
    // A failure in one job of a batch must leave the shared alone-IPC
    // memo usable: the good job's alone runs land in the memo and a
    // follow-up batch reuses them.
    SweepRunner sweep(shortOptions(), 2);
    const GpuConfig arch = archByName("maxwell");
    GpuConfig broken = arch;
    broken.l2Tlb.entries = 0;
    const std::size_t good =
        sweep.submit({arch, DesignPoint::SharedTlb, {"HISTO", "LPS"}});
    sweep.submit({broken, DesignPoint::SharedTlb, {"3DS", "RED"}});
    sweep.run();
    EXPECT_EQ(sweep.outcome(good).status, SweepStatus::Ok);
    EXPECT_EQ(sweep.aloneCacheSize(), 2u);

    const std::size_t again =
        sweep.submit({arch, DesignPoint::SharedTlb, {"HISTO", "LPS"}});
    sweep.run();
    EXPECT_EQ(sweep.outcome(again).status, SweepStatus::Ok);
    EXPECT_EQ(sweep.aloneCacheSize(), 2u); // memo hit, no new runs
    EXPECT_EQ(encodePairResult(sweep.result(good)),
              encodePairResult(sweep.result(again)));
}

TEST(Sweep, JournalResumeSkipsCompletedJobs)
{
    const std::string journal = tempPath("journal");
    std::remove(journal.c_str());
    const GpuConfig arch = archByName("maxwell");

    SweepPolicy policy;
    policy.journalPath = journal;

    SweepRunner first(shortOptions(), 1);
    first.setPolicy(policy);
    first.submit({arch, DesignPoint::SharedTlb, {"HISTO"},
                  SweepMode::SharedOnly});
    first.submit({arch, DesignPoint::SharedTlb, {"LPS"},
                  SweepMode::SharedOnly});
    first.run();
    EXPECT_EQ(first.journalHits(), 0u);
    ASSERT_EQ(first.failedJobs(), 0u);

    // A resumed runner loads both results instead of simulating; if it
    // did simulate, the poisoned executor would throw.
    SweepRunner resumed(shortOptions(), 1);
    resumed.setPolicy(policy);
    resumed.setExecutorForTest(
        [](Evaluator &, const SweepJob &) -> PairResult {
            throw std::runtime_error("resume should not re-simulate");
        });
    resumed.submit({arch, DesignPoint::SharedTlb, {"HISTO"},
                    SweepMode::SharedOnly});
    resumed.submit({arch, DesignPoint::SharedTlb, {"LPS"},
                    SweepMode::SharedOnly});
    resumed.run();
    EXPECT_EQ(resumed.journalHits(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(resumed.outcome(i).status, SweepStatus::Ok);
        EXPECT_TRUE(resumed.outcome(i).fromJournal);
        EXPECT_EQ(encodePairResult(resumed.result(i)),
                  encodePairResult(first.result(i)));
    }
    std::remove(journal.c_str());
}

TEST(Sweep, JournalResumeResimulatesOnlyFailedJobs)
{
    const std::string journal = tempPath("journal_fail");
    std::remove(journal.c_str());
    const GpuConfig arch = archByName("maxwell");

    SweepPolicy policy;
    policy.journalPath = journal;

    SweepRunner first(shortOptions(), 1);
    first.setPolicy(policy);
    first.setExecutorForTest(
        [](Evaluator &, const SweepJob &job) -> PairResult {
            if (job.benches[0] == "LPS")
                throw std::runtime_error("injected failure");
            return syntheticResult(2.0);
        });
    first.submit({arch, DesignPoint::SharedTlb, {"HISTO"},
                  SweepMode::SharedOnly});
    first.submit({arch, DesignPoint::SharedTlb, {"LPS"},
                  SweepMode::SharedOnly});
    first.run();
    EXPECT_EQ(first.outcome(1).status, SweepStatus::Failed);

    // The resume loads the Ok job and re-simulates only the failure.
    int simulated = 0;
    SweepRunner resumed(shortOptions(), 1);
    resumed.setPolicy(policy);
    resumed.setExecutorForTest(
        [&](Evaluator &, const SweepJob &) {
            ++simulated;
            return syntheticResult(3.0);
        });
    resumed.submit({arch, DesignPoint::SharedTlb, {"HISTO"},
                    SweepMode::SharedOnly});
    resumed.submit({arch, DesignPoint::SharedTlb, {"LPS"},
                    SweepMode::SharedOnly});
    resumed.run();
    EXPECT_EQ(simulated, 1);
    EXPECT_TRUE(resumed.outcome(0).fromJournal);
    EXPECT_FALSE(resumed.outcome(1).fromJournal);
    EXPECT_EQ(resumed.outcome(1).status, SweepStatus::Ok);
    EXPECT_EQ(resumed.result(0).sharedIpc[0], 2.0);
    EXPECT_EQ(resumed.result(1).sharedIpc[0], 3.0);
    std::remove(journal.c_str());
}

TEST(Sweep, JournalEntryWithPreviousBlobVersionIsResimulated)
{
    const std::string journal = tempPath("journal_v3");
    std::remove(journal.c_str());
    const GpuConfig arch = archByName("maxwell");
    const SweepJob job{arch, DesignPoint::SharedTlb, {"HISTO"},
                       SweepMode::SharedOnly};

    SweepPolicy policy;
    policy.journalPath = journal;

    SweepRunner first(shortOptions(), 1);
    first.setPolicy(policy);
    first.submit(job);
    first.run();
    ASSERT_EQ(first.failedJobs(), 0u);
    const std::string blob = encodePairResult(first.result(0));

    // Rewrite the Ok entry's blob in the v3 text layout an older build
    // wrote (hex-float tokens instead of the base64 StateCodec
    // payload).
    const std::string old_blob = v3Blob(first.result(0));
    ASSERT_EQ(old_blob.compare(0, 3, "v3 "), 0);

    std::string text;
    {
        std::ifstream in(journal);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    const std::size_t at = text.find(blob);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, blob.size(), old_blob);
    std::ofstream(journal, std::ios::trunc) << text;

    // The stale entry cannot be decoded, so the resume re-simulates
    // the job and reproduces the fresh result bit for bit.
    SweepRunner resumed(shortOptions(), 1);
    resumed.setPolicy(policy);
    resumed.submit(job);
    resumed.run();
    EXPECT_EQ(resumed.journalHits(), 0u);
    EXPECT_EQ(resumed.outcome(0).status, SweepStatus::Ok);
    EXPECT_FALSE(resumed.outcome(0).fromJournal);
    EXPECT_EQ(encodePairResult(resumed.result(0)), blob);
    std::remove(journal.c_str());
}

TEST(Sweep, PolicyFromEnvironment)
{
    setenv("MASK_SWEEP_JOURNAL", "/tmp/j.jsonl", 1);
    EXPECT_EQ(sweepPolicyFromEnv().journalPath, "/tmp/j.jsonl");
    unsetenv("MASK_SWEEP_JOURNAL");
    EXPECT_TRUE(sweepPolicyFromEnv().journalPath.empty());
}

TEST(SweepIo, EncodeDecodeRoundTripsExactly)
{
    // Round-trip a real simulation result: every field, bit-exact.
    SweepRunner sweep(shortOptions(), 1);
    const GpuConfig arch = archByName("maxwell");
    sweep.submit({arch, DesignPoint::Mask, {"HISTO", "LPS"}});
    sweep.run();
    const PairResult &original = sweep.result(0);

    const std::string blob = encodePairResult(original);
    const PairResult decoded = decodePairResult(blob);
    EXPECT_EQ(encodePairResult(decoded), blob);
    EXPECT_EQ(decoded.weightedSpeedup, original.weightedSpeedup);
    EXPECT_EQ(decoded.stats.cycles, original.stats.cycles);
    EXPECT_EQ(decoded.stats.ipc, original.stats.ipc);
    EXPECT_EQ(decoded.stats.dram.rowHits, original.stats.dram.rowHits);

    EXPECT_THROW(decodePairResult("v0 bogus"), std::runtime_error);
    EXPECT_THROW(decodePairResult(""), std::runtime_error);
}

TEST(CrashRepro, FatalSignalHandlerFlushesArmedRepro)
{
    // Raise a real SIGSEGV in a forked child with an armed repro; the
    // handler must flush the record before the default disposition
    // kills the child.
    const std::string path = tempPath("sigrepro");
    std::remove(path.c_str());
    const GpuConfig arch = archByName("maxwell");

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const ScopedSignalRepro armed(
            makeRepro(arch, DesignPoint::Mask, {"HISTO"}, 123, 456),
            path);
        ::raise(SIGSEGV);
        std::_Exit(0); // unreachable
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    const CrashRepro repro = loadRepro(path);
    EXPECT_EQ(repro.arch, arch.name);
    EXPECT_EQ(repro.design, designPointName(DesignPoint::Mask));
    EXPECT_EQ(repro.warmup, 123u);
    EXPECT_EQ(repro.measure, 456u);
    EXPECT_EQ(repro.module, "fatal-signal");
    EXPECT_NE(repro.detail.find("SIGSEGV"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Sweep, JobsEnvVariableParsing)
{
    // sweepJobs() itself reads the environment; exercise the parse
    // rules via setenv round-trips.
    setenv("MASK_BENCH_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3u);
    setenv("MASK_BENCH_JOBS", "1", 1);
    EXPECT_EQ(sweepJobs(), 1u);
    setenv("MASK_BENCH_JOBS", "0", 1);
    EXPECT_GE(sweepJobs(), 1u); // hardware concurrency, at least 1
    unsetenv("MASK_BENCH_JOBS");
    EXPECT_EQ(sweepJobs(), 1u);
}

TEST(AloneIpcCache, SameNameDifferentConfigGetsDistinctEntries)
{
    // Regression for the old name-keyed memo: two architectures that
    // share cfg.name but differ in a behavioural parameter (the
    // sec73 sweep pattern) must not share alone IPCs.
    GpuConfig small = archByName("maxwell");
    GpuConfig large = archByName("maxwell");
    small.l2Tlb.entries = 64;
    large.l2Tlb.entries = 8192;
    ASSERT_EQ(small.name, large.name);

    // 3DS is TLB-sensitive, so the two TLB sizes must also produce
    // measurably different alone IPCs (windows long enough to miss).
    RunOptions options;
    options.warmup = 10000;
    options.measure = 40000;
    Evaluator eval(options);
    const double ipc_small =
        eval.aloneIpc(small, DesignPoint::SharedTlb, "3DS", 15);
    EXPECT_EQ(eval.aloneCacheSize(), 1u);
    const double ipc_large =
        eval.aloneIpc(large, DesignPoint::SharedTlb, "3DS", 15);
    EXPECT_EQ(eval.aloneCacheSize(), 2u);

    // And a repeated query hits the memo instead of adding entries.
    EXPECT_EQ(
        eval.aloneIpc(small, DesignPoint::SharedTlb, "3DS", 15),
        ipc_small);
    EXPECT_EQ(eval.aloneCacheSize(), 2u);

    // The tiny TLB must actually simulate differently.
    EXPECT_NE(ipc_small, ipc_large);
}

TEST(ConfigFingerprint, IgnoresNameCoversEveryBehaviouralField)
{
    const GpuConfig base = archByName("maxwell");

    GpuConfig renamed = base;
    renamed.name = "something-else";
    EXPECT_EQ(configFingerprint(base), configFingerprint(renamed));

    GpuConfig changed = base;
    changed.l2Tlb.entries *= 2;
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));

    changed = base;
    changed.seed += 1;
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));

    changed = base;
    changed.mask.tlbTokens = !changed.mask.tlbTokens;
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));

    changed = base;
    changed.coreShares = {10, 20};
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));

    changed = base;
    changed.mask.initialTokenFraction += 0.01;
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));

    changed = base;
    changed.harden.watchdog.sweepInterval += 1;
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));

    changed = base;
    changed.dram.tRcd += 1;
    EXPECT_NE(configFingerprint(base), configFingerprint(changed));
}

TEST(ConfigFingerprint, DesignPointsAreDistinguished)
{
    const GpuConfig base = archByName("maxwell");
    std::vector<std::uint64_t> prints;
    for (const DesignPoint point : kAllDesignPoints)
        prints.push_back(
            configFingerprint(applyDesignPoint(base, point)));
    for (std::size_t i = 0; i < prints.size(); ++i)
        for (std::size_t j = i + 1; j < prints.size(); ++j)
            EXPECT_NE(prints[i], prints[j]) << i << " vs " << j;
}

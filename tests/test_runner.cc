/**
 * @file
 * Tests for the evaluation runner (shared and alone runs, metric
 * assembly, time multiplexing). Reuse of alone runs is tested with
 * the sweep (test_sweep.cc).
 */

#include <set>

#include <gtest/gtest.h>

#include "sim/gpu.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/time_mux.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

GpuConfig
smallArch()
{
    GpuConfig cfg;
    cfg.name = "small";
    cfg.numCores = 4;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    return cfg;
}

RunOptions
fastOptions()
{
    RunOptions options;
    options.warmup = 2000;
    options.measure = 8000;
    return options;
}

TEST(Runner, EvaluateProducesConsistentMetrics)
{
    SweepRunner sweep(fastOptions(), 1);
    sweep.submit({smallArch(), DesignPoint::SharedTlb, {"LUD", "GUP"}});
    sweep.run();
    const PairResult &r = sweep.result(0);
    ASSERT_EQ(r.sharedIpc.size(), 2u);
    ASSERT_EQ(r.aloneIpc.size(), 2u);
    EXPECT_GT(r.weightedSpeedup, 0.0);
    EXPECT_LE(r.weightedSpeedup, 2.5);
    EXPECT_GE(r.unfairness, 0.9);
    EXPECT_NEAR(r.ipcThroughput, r.sharedIpc[0] + r.sharedIpc[1],
                1e-12);

    // The metrics divide the shared run's IPCs by the alone runs'.
    EXPECT_EQ(r.sharedIpc,
              runShared(smallArch(), DesignPoint::SharedTlb,
                        {"LUD", "GUP"}, fastOptions())
                  .ipc);
    EXPECT_EQ(r.aloneIpc[1],
              runAlone(smallArch(), DesignPoint::SharedTlb, "GUP", 2,
                       fastOptions()));
}

TEST(Runner, RunSharedReportsBothApps)
{
    const GpuStats stats = runShared(smallArch(), DesignPoint::SharedTlb,
                                     {"LUD", "NN"}, fastOptions());
    ASSERT_EQ(stats.ipc.size(), 2u);
    EXPECT_GT(stats.ipc[0], 0.0);
    EXPECT_GT(stats.ipc[1], 0.0);
}

TEST(TimeMux, OverheadIsPositiveAndGrowsWithProcesses)
{
    GpuConfig cfg = smallArch();
    TimeMuxOptions options;
    options.quantum = 2000;
    options.workPerProcess = 30000;
    options.switchBaseCost = 300;
    options.switchPerProcessCost = 150;

    const BenchmarkParams &bench = findBenchmark("LUD");
    const TimeMuxResult two = runTimeMux(cfg, bench, 2, options);
    const TimeMuxResult five = runTimeMux(cfg, bench, 5, options);

    EXPECT_GT(two.muxCycles, 0u);
    EXPECT_GT(two.serialCycles, 0u);
    EXPECT_GT(two.overhead(), 0.0);
    EXPECT_GT(five.overhead(), two.overhead());
}

TEST(TimeMux, SerialTimeScalesWithProcessCount)
{
    GpuConfig cfg = smallArch();
    TimeMuxOptions options;
    options.quantum = 2000;
    options.workPerProcess = 20000;
    const BenchmarkParams &bench = findBenchmark("LUD");
    const TimeMuxResult two = runTimeMux(cfg, bench, 2, options);
    const TimeMuxResult four = runTimeMux(cfg, bench, 4, options);
    EXPECT_NEAR(static_cast<double>(four.serialCycles),
                2.0 * static_cast<double>(two.serialCycles),
                0.01 * static_cast<double>(four.serialCycles));
}

TEST(Presets, AllArchesConstruct)
{
    for (const auto name : allArchNames()) {
        const GpuConfig cfg = archByName(name);
        EXPECT_GT(cfg.numCores, 0u);
        EXPECT_GT(cfg.dram.channels, 0u);
        EXPECT_EQ(cfg.name, std::string(name));
    }
}

TEST(Presets, DesignPointsConfigureMechanisms)
{
    const GpuConfig base = maxwellConfig();
    EXPECT_EQ(applyDesignPoint(base, DesignPoint::Ideal).design,
              TranslationDesign::Ideal);
    EXPECT_EQ(applyDesignPoint(base, DesignPoint::PwCache).design,
              TranslationDesign::PwCache);
    const GpuConfig mask_cfg =
        applyDesignPoint(base, DesignPoint::Mask);
    EXPECT_TRUE(mask_cfg.mask.tlbTokens);
    EXPECT_TRUE(mask_cfg.mask.l2Bypass);
    EXPECT_TRUE(mask_cfg.mask.dramSched);
    const GpuConfig tlb_only =
        applyDesignPoint(base, DesignPoint::MaskTlb);
    EXPECT_TRUE(tlb_only.mask.tlbTokens);
    EXPECT_FALSE(tlb_only.mask.l2Bypass);
    EXPECT_FALSE(tlb_only.mask.dramSched);
    const GpuConfig stat =
        applyDesignPoint(base, DesignPoint::Static);
    EXPECT_TRUE(stat.partition.partitionL2);
    EXPECT_TRUE(stat.partition.partitionDramChannels);
}

TEST(Presets, DesignPointNamesAreUnique)
{
    std::set<std::string> names;
    for (const DesignPoint point : kAllDesignPoints)
        names.insert(designPointName(point));
    EXPECT_EQ(names.size(), 8u);
}

TEST(Presets, CoreShareEvenSplit)
{
    GpuConfig cfg;
    cfg.numCores = 30;
    EXPECT_EQ(coreShareOf(cfg, 2, 0), 15u);
    EXPECT_EQ(coreShareOf(cfg, 2, 1), 15u);
    EXPECT_EQ(coreShareOf(cfg, 4, 0), 8u);
    EXPECT_EQ(coreShareOf(cfg, 4, 3), 7u);
    cfg.coreShares = {20, 10};
    EXPECT_EQ(coreShareOf(cfg, 2, 0), 20u);
    EXPECT_EQ(coreShareOf(cfg, 2, 1), 10u);
}

} // namespace
} // namespace mask

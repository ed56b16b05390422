/**
 * @file
 * Reproduction-shape tests: the paper's key qualitative claims,
 * asserted on a small GPU so they act as regression protection for
 * the evaluation harness.
 */

#include <gtest/gtest.h>

#include "sim/gpu.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

GpuConfig
paperGpu()
{
    GpuConfig cfg;
    cfg.numCores = 8;
    cfg.warpsPerCore = 32;
    cfg.l2 = CacheConfig{512 * 1024, 128, 8, 10, 8, 2, 128};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 4;
    cfg.mask.epochCycles = 4000;
    return cfg;
}

/** TLB-heavy irregular application (3DS-like). */
BenchmarkParams
tlbHeavy()
{
    BenchmarkParams p;
    p.name = "heavy";
    p.hotPages = 4;
    p.coldPages = 100000;
    p.hotFraction = 0.05;
    p.pageRun = 2;
    p.streamFraction = 0.5;
    p.blockWarps = 64;
    p.randWindow = 12;
    p.stepAccesses = 80;
    p.pageStride = 17;
    p.computeMean = 4;
    p.memDivergence = 2;
    p.lineReuse = 0.5;
    return p;
}

/** Streaming application with good row locality (HISTO-like). */
BenchmarkParams
streaming()
{
    BenchmarkParams p = tlbHeavy();
    p.name = "stream";
    p.coldPages = 50000;
    p.pageRun = 24;
    p.streamFraction = 0.9;
    p.randWindow = 2;
    p.stepAccesses = 400;
    p.computeMean = 6;
    p.memDivergence = 1;
    return p;
}

GpuStats
runPair(DesignPoint point, const BenchmarkParams &a,
        const BenchmarkParams &b)
{
    const GpuConfig cfg = applyDesignPoint(paperGpu(), point);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&b}});
    gpu.run(10000);
    gpu.resetStats();
    gpu.run(40000);
    return gpu.collect();
}

double
totalIpc(const GpuStats &stats)
{
    return stats.ipc[0] + stats.ipc[1];
}

TEST(PaperProperties, IdealOutperformsBaselines)
{
    const BenchmarkParams a = tlbHeavy(), b = streaming();
    const double ideal = totalIpc(runPair(DesignPoint::Ideal, a, b));
    const double shared =
        totalIpc(runPair(DesignPoint::SharedTlb, a, b));
    const double pw = totalIpc(runPair(DesignPoint::PwCache, a, b));
    EXPECT_GT(ideal, shared)
        << "Section 3: address translation must cost something";
    EXPECT_GT(ideal, pw);
}

TEST(PaperProperties, StaticPartitioningIsWorstDesign)
{
    const BenchmarkParams a = tlbHeavy(), b = streaming();
    const double stat = totalIpc(runPair(DesignPoint::Static, a, b));
    const double shared =
        totalIpc(runPair(DesignPoint::SharedTlb, a, b));
    EXPECT_LT(stat, shared)
        << "Section 7.1: static partitioning leaves resources "
           "underutilized";
}

TEST(PaperProperties, MaskReducesTlbMissLatency)
{
    const BenchmarkParams a = tlbHeavy();
    const GpuStats shared = runPair(DesignPoint::SharedTlb, a, a);
    const GpuStats mask = runPair(DesignPoint::Mask, a, a);
    ASSERT_GT(shared.tlbMissLatency.count, 100u);
    EXPECT_LT(mask.tlbMissLatency.mean(),
              shared.tlbMissLatency.mean())
        << "MASK's mechanisms must cut end-to-end TLB miss latency";
}

TEST(PaperProperties, GoldenQueueCutsTranslationDramLatency)
{
    const BenchmarkParams a = tlbHeavy();
    const GpuStats shared = runPair(DesignPoint::SharedTlb, a, a);
    const GpuStats sched = runPair(DesignPoint::MaskDram, a, a);
    ASSERT_GT(shared.dram.latency[1].count, 100u);
    EXPECT_LT(sched.dram.latency[1].mean(),
              0.8 * shared.dram.latency[1].mean())
        << "Section 5.4: the Golden Queue must slash translation "
           "DRAM latency";
}

TEST(PaperProperties, FrFcfsPenalizesTranslationRequests)
{
    // Fig. 9: under FR-FCFS, random-row translation requests see
    // latency at least comparable to (typically above) streaming
    // data requests despite their tiny bandwidth share.
    const BenchmarkParams a = tlbHeavy(), b = streaming();
    const GpuStats stats = runPair(DesignPoint::SharedTlb, a, b);
    ASSERT_GT(stats.dram.latency[1].count, 50u);
    EXPECT_GT(stats.dram.latency[1].mean(),
              0.9 * stats.dram.latency[0].mean());
    // ... while consuming far less bandwidth (Fig. 8).
    EXPECT_LT(stats.dram.busBusy[1], stats.dram.busBusy[0]);
}

TEST(PaperProperties, WalkLevelHitRatesDecreaseWithDepth)
{
    // Section 4.3: levels closer to the root hit the L2 more.
    const BenchmarkParams a = tlbHeavy();
    const GpuStats stats = runPair(DesignPoint::SharedTlb, a, a);
    ASSERT_GT(stats.l2CachePerLevel[4].accesses(), 100u);
    EXPECT_GE(stats.l2CachePerLevel[1].hitRate(),
              stats.l2CachePerLevel[3].hitRate());
    EXPECT_GT(stats.l2CachePerLevel[3].hitRate(),
              stats.l2CachePerLevel[4].hitRate());
    EXPECT_LT(stats.l2CachePerLevel[4].hitRate(), 0.5)
        << "leaf PTE reads should mostly miss the L2 (paper: ~1%)";
}

TEST(PaperProperties, L2BypassAvoidsLeafFills)
{
    // The bypass condition compares leaf-level hit rate against the
    // data hit rate, so give the data stream some shared locality
    // (as the paper's workloads have).
    BenchmarkParams a = tlbHeavy();
    a.hotPages = 16;
    a.hotFraction = 0.5;
    a.lineReuse = 0.2;
    const GpuStats stats = runPair(DesignPoint::MaskCache, a, a);
    ASSERT_GT(stats.l2Cache[0].hitRate(), 0.1)
        << "test workload must have data locality";
    EXPECT_GT(stats.l2Bypasses, 100u)
        << "the policy must learn to bypass the low-hit leaf level";
}

TEST(PaperProperties, SharingRaisesL2TlbMissRate)
{
    // Fig. 7: inter-address-space interference thrashes the shared
    // L2 TLB.
    const BenchmarkParams a = tlbHeavy();
    GpuConfig alone_cfg =
        applyDesignPoint(paperGpu(), DesignPoint::SharedTlb);
    alone_cfg.numCores /= 2;
    Gpu alone(alone_cfg, {AppDesc{&a}});
    alone.run(10000);
    alone.resetStats();
    alone.run(40000);
    const double alone_miss = alone.collect().l2Tlb.missRate();

    const GpuStats shared = runPair(DesignPoint::SharedTlb, a, a);
    EXPECT_GT(shared.l2Tlb.missRate(), alone_miss - 0.02);
}

TEST(PaperProperties, MultiWarpStallsPerMiss)
{
    // Fig. 4/6: one TLB miss stalls multiple warps.
    const BenchmarkParams a = tlbHeavy();
    const GpuStats stats = runPair(DesignPoint::SharedTlb, a, a);
    ASSERT_GT(stats.warpsPerMiss.count, 100u);
    EXPECT_GT(stats.warpsPerMiss.mean(), 1.5);
    EXPECT_GT(stats.warpsPerMiss.maxVal, 8.0);
}

TEST(PaperProperties, TokensAdaptUnderThrash)
{
    const BenchmarkParams a = tlbHeavy();
    const GpuStats stats = runPair(DesignPoint::MaskTlb, a, a);
    // The bypass cache must be exercised once tokens are withheld.
    EXPECT_GT(stats.bypassCache.accesses(), 0u);
}

TEST(PaperProperties, ShootdownsPreserveIsolationAndCorrectness)
{
    // Section 5.1 requirement behind all MASK mechanisms: concurrent
    // address spaces never observe each other's translations, even
    // when spurious full shootdowns are injected mid-run, and every
    // post-flush walk re-reads the live page table.
    GpuConfig cfg =
        applyDesignPoint(paperGpu(), DesignPoint::SharedTlb);
    cfg.harden.fault.enabled = true;
    cfg.harden.fault.shootdownInterval = 3000;
    const BenchmarkParams a = tlbHeavy();
    const BenchmarkParams b = streaming();
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&b}});
    gpu.run(15000);

    // Remap one page of app 0 behind the TLBs' backs, the way a
    // driver migrating a page would, then shoot its ASID down.
    Vpn remapped = kInvalidPfn;
    for (Vpn vpn = 0; vpn < 200000; ++vpn) {
        if (gpu.sharedTlb().probe(1, vpn)) {
            remapped = vpn;
            break;
        }
    }
    ASSERT_NE(remapped, kInvalidPfn) << "no ASID-1 entry cached";
    ASSERT_TRUE(gpu.pageTable(0).unmapPage(remapped));
    gpu.tlbShootdown(1);
    gpu.run(15000);

    EXPECT_GT(gpu.faultInjector().shootdownsInjected(), 0u);

    // The remapped page, if re-cached anywhere, must carry the frame
    // from the live page table (demand-remapped on the next touch).
    const Pfn live = gpu.pageTable(0).lookup(remapped);
    Pfn cached = kInvalidPfn;
    if (gpu.sharedTlb().lookup(1, remapped, &cached)) {
        EXPECT_EQ(cached, live);
    }
    for (const CoreId c : gpu.coresOf(0)) {
        if (gpu.core(c).l1Tlb().lookup(1, remapped, &cached)) {
            EXPECT_EQ(cached, live);
        }
    }

    // Full isolation + correctness sweep: every translation cached
    // for an ASID agrees with that ASID's own page table.
    int checked = 0;
    for (AppId app = 0; app < 2; ++app) {
        const Asid asid = static_cast<Asid>(app + 1);
        for (Vpn vpn = 0; vpn < 200000; ++vpn) {
            if (!gpu.sharedTlb().lookup(asid, vpn, &cached))
                continue;
            EXPECT_EQ(cached, gpu.pageTable(app).lookup(vpn))
                << "asid " << asid << " vpn " << vpn;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

} // namespace
} // namespace mask

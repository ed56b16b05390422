/**
 * @file
 * Checkpoint/restore tests (DESIGN.md §11): bit-exact round-trips
 * across design points with and without fault injection, the
 * corruption matrix (truncated, bit-flipped, stale-version,
 * wrong-config snapshots must raise SnapshotError — never UB, so this
 * file also runs under the ASan/UBSan build), the periodic checkpoint
 * hook, the MASK_CKPT_* policy plumbing, and resume from the
 * checkpoint file after a fatal signal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/memreq.hh"
#include "sim/crash_repro.hh"
#include "sim/gpu.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

constexpr Cycle kWarmup = 3000;
constexpr Cycle kMeasure = 6000;

/** Small but complete GPU: 4 cores, 16 warps each (as test_gpu). */
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

const BenchmarkParams &
benchA()
{
    static const BenchmarkParams p = [] {
        BenchmarkParams q;
        q.name = "snap-a";
        q.hotPages = 4;
        q.coldPages = 5000;
        q.hotFraction = 0.1;
        q.pageRun = 2;
        q.streamFraction = 0.6;
        q.blockWarps = 16;
        q.randWindow = 4;
        q.stepAccesses = 24;
        q.computeMean = 4;
        q.memDivergence = 2;
        q.lineReuse = 0.3;
        return q;
    }();
    return p;
}

const BenchmarkParams &
benchB()
{
    static const BenchmarkParams p = [] {
        BenchmarkParams q = benchA();
        q.name = "snap-b";
        q.coldPages = 100;
        q.pageRun = 8;
        return q;
    }();
    return p;
}

/**
 * Exact textual image of every simulated (non-host-side) GpuStats
 * field, via the journal codec: two stats with equal blobs are
 * bit-identical in everything the determinism guarantee covers.
 */
std::string
statsBlob(const GpuStats &stats)
{
    PairResult r;
    r.stats = stats;
    r.sharedIpc = stats.ipc;
    return encodePairResult(r);
}

std::unique_ptr<Gpu>
makeGpu(const GpuConfig &cfg)
{
    return std::make_unique<Gpu>(
        cfg, std::vector<AppDesc>{AppDesc{&benchA()}, AppDesc{&benchB()}});
}

GpuConfig
configFor(DesignPoint point, bool faults)
{
    GpuConfig cfg = applyDesignPoint(smallConfig(), point);
    if (faults) {
        cfg.harden.fault.enabled = true;
        cfg.harden.fault.seed = 7;
        cfg.harden.fault.dramDelayProb = 0.05;
        cfg.harden.fault.walkDropProb = 0.02;
        cfg.harden.fault.portStallProb = 0.01;
    }
    return cfg;
}

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return data;
}

/** Names in @p dir other than "." and "..", sorted. */
std::vector<std::string>
dirEntries(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str()); d != nullptr) {
        while (const dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                names.push_back(name);
        }
        ::closedir(d);
    }
    std::sort(names.begin(), names.end());
    return names;
}

// ---------------------------------------------------------------------
// Bit-exact round-trips across design points and fault injection
// ---------------------------------------------------------------------

class SnapshotRoundTrip
    : public ::testing::TestWithParam<std::tuple<DesignPoint, bool>>
{
};

TEST_P(SnapshotRoundTrip, MidMeasureRestoreIsBitExact)
{
    const auto [point, faults] = GetParam();
    const GpuConfig cfg = configFor(point, faults);
    const std::uint64_t fp = configFingerprint(cfg);

    // Reference: uninterrupted warmup + measure.
    auto ref = makeGpu(cfg);
    ref->run(kWarmup);
    ref->resetStats();
    ref->run(kMeasure);
    const std::string want = statsBlob(ref->collect());

    // Snapshot halfway through the measured window...
    auto g1 = makeGpu(cfg);
    g1->run(kWarmup);
    g1->resetStats();
    g1->setSnapshotCookie(1);
    g1->run(kMeasure / 2);
    // Unique per parameterization: instances run concurrently under
    // ctest -j and must not clobber each other's snapshot file.
    const std::string path =
        tmpPath(std::string("mask_roundtrip_") + designPointName(point) +
                (faults ? "_f1" : "_f0") + ".snap");
    saveSnapshotFile(path, fp, *g1);

    // ...restore into a FRESH Gpu and finish the window there.
    auto g2 = makeGpu(cfg);
    loadSnapshotFile(path, fp, *g2);
    EXPECT_EQ(g2->now(), kWarmup + kMeasure / 2);
    EXPECT_EQ(g2->snapshotCookie(), 1u);
    g2->run(kMeasure - kMeasure / 2);
    EXPECT_EQ(statsBlob(g2->collect()), want);

    // Serializing g1 must not have perturbed it: continuing the
    // ORIGINAL instance reaches the identical end state.
    g1->run(kMeasure - kMeasure / 2);
    EXPECT_EQ(statsBlob(g1->collect()), want);

    std::remove(path.c_str());
}

TEST_P(SnapshotRoundTrip, MidWarmupRestoreIsBitExact)
{
    const auto [point, faults] = GetParam();
    const GpuConfig cfg = configFor(point, faults);
    const std::uint64_t fp = configFingerprint(cfg);

    auto ref = makeGpu(cfg);
    ref->run(kWarmup);
    ref->resetStats();
    ref->run(kMeasure);
    const std::string want = statsBlob(ref->collect());

    auto g1 = makeGpu(cfg);
    g1->run(kWarmup / 2);
    const std::string image = renderSnapshot(fp, *g1);

    auto g2 = makeGpu(cfg);
    std::uint64_t cycle = 0;
    const std::string_view payload =
        validateSnapshotImage(image, fp, &cycle);
    StateReader reader(payload, cycle);
    g2->deserialize(reader);
    EXPECT_EQ(g2->now(), kWarmup / 2);
    EXPECT_EQ(g2->snapshotCookie(), 0u) << "cookie 0 = warmup phase";
    g2->run(kWarmup - kWarmup / 2);
    g2->resetStats();
    g2->run(kMeasure);
    EXPECT_EQ(statsBlob(g2->collect()), want);
}

/**
 * Lazy issue (DESIGN.md §9): a core whose warps all wait, or whose
 * greedy warp is mid compute run, is not visited until it can do more
 * than count, and its counters are settled when read. Snapshot every
 * cycle of a window that covers all three ways a core sleeps — a
 * compute run, an all-warps-waiting stall and a time-mux drain — and
 * require each image to resume to the byte-identical end state, and
 * the snapshotted run itself to match one that was never snapshotted.
 */
TEST(SnapshotEveryCycle, EachCycleResumesBitExact)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);
    constexpr Cycle kStart = 2000;
    constexpr Cycle kWindow = 160;
    constexpr Cycle kSwitchAt = 60; // time-mux switch inside the window
    constexpr Cycle kTail = 80;
    const Cycle end = kStart + kWindow + kTail;

    auto untouched = makeGpu(cfg);
    untouched->run(kStart + kSwitchAt);
    untouched->switchAllCores(1, 30);
    untouched->run(end - untouched->now());
    const std::string want = renderSnapshot(fp, *untouched);

    auto ref = makeGpu(cfg);
    ref->run(kStart);
    std::vector<std::string> images;
    bool saw_compute = false;
    bool saw_stall = false;
    bool saw_drain = false;
    for (Cycle i = 0; i < kWindow; ++i) {
        if (i == kSwitchAt)
            ref->switchAllCores(1, 30);
        for (CoreId c = 0; c < ref->numCores(); ++c) {
            const ShaderCore &core = ref->core(c);
            if (core.nextIssue() <= ref->now())
                continue; // awake: issues this cycle
            if (core.draining())
                saw_drain = true;
            else if (core.readyWarps() == 0)
                saw_stall = true;
            else
                saw_compute = true;
        }
        images.push_back(renderSnapshot(fp, *ref));
        ref->run(1);
    }
    EXPECT_TRUE(saw_compute) << "no core slept through a compute run";
    EXPECT_TRUE(saw_stall) << "no core slept with every warp waiting";
    EXPECT_TRUE(saw_drain) << "no core slept while draining";

    ref->run(end - ref->now());
    ASSERT_EQ(renderSnapshot(fp, *ref), want)
        << "snapshotting every cycle perturbed the run";

    for (Cycle i = 0; i < kWindow; ++i) {
        auto g = makeGpu(cfg);
        std::uint64_t cycle = 0;
        StateReader reader(validateSnapshotImage(images[i], fp, &cycle),
                           cycle);
        g->deserialize(reader);
        ASSERT_EQ(g->now(), kStart + i);
        ASSERT_EQ(renderSnapshot(fp, *g), images[i])
            << "restore at cycle " << kStart + i << " re-serializes "
            << "differently";
        if (i < kSwitchAt) {
            // The image predates the switch: replay it on schedule.
            g->run(kStart + kSwitchAt - g->now());
            g->switchAllCores(1, 30);
        }
        g->run(end - g->now());
        ASSERT_EQ(renderSnapshot(fp, *g), want)
            << "resume from cycle " << kStart + i << " diverged";
    }
}

/**
 * Derived-index rebuild (DESIGN.md §12): snapshot a run whose
 * scheduler indices are demonstrably populated (tiny L1 MSHR tables
 * keep retries parked; the DRAM request queues stay deep), restore
 * into a fresh instance, and require (a) the restored instance
 * re-serializes to the byte-identical image — the rebuilt key chains
 * and merge-eligibility sets flatten back to exactly the flat
 * arrival-ordered form — and (b) the continued run is bit-exact.
 */
TEST(SnapshotIndexRebuild, PopulatedIndicesRoundTripBitExact)
{
    GpuConfig cfg = configFor(DesignPoint::Mask, false);
    cfg.l1d.mshrs = 2; // saturate: park MSHR-full data retries
    const std::uint64_t fp = configFingerprint(cfg);

    auto ref = makeGpu(cfg);
    ref->run(kWarmup);
    ref->resetStats();
    ref->run(kMeasure);
    const GpuStats ref_stats = ref->collect();
    const std::string want = statsBlob(ref_stats);
    // The retry machinery must have engaged, or this test proves
    // nothing about the indices it claims to cover.
    ASSERT_GT(ref_stats.dataRetryProbes, 0u);
    ASSERT_GT(ref_stats.dramSchedPicks, 0u);

    auto g1 = makeGpu(cfg);
    g1->run(kWarmup);
    g1->resetStats();
    g1->run(kMeasure / 2);
    const std::string image = renderSnapshot(fp, *g1);

    auto g2 = makeGpu(cfg);
    std::uint64_t cycle = 0;
    const std::string_view payload =
        validateSnapshotImage(image, fp, &cycle);
    StateReader reader(payload, cycle);
    g2->deserialize(reader);
    EXPECT_EQ(renderSnapshot(fp, *g2), image)
        << "restored indices do not flatten back to the same bytes";
    g2->run(kMeasure - kMeasure / 2);
    g1->run(kMeasure - kMeasure / 2);
    EXPECT_EQ(statsBlob(g1->collect()), statsBlob(g2->collect()))
        << "restored instance diverges from the instance it was "
           "snapshotted from";
    EXPECT_EQ(statsBlob(g1->collect()), statsBlob(ref_stats))
        << "split-run simulated state diverges from continuous run";
}

INSTANTIATE_TEST_SUITE_P(
    Designs, SnapshotRoundTrip,
    ::testing::Combine(::testing::Values(DesignPoint::SharedTlb,
                                         DesignPoint::Mask,
                                         DesignPoint::Ideal),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(designPointName(std::get<0>(info.param)))
                   .append(std::get<1>(info.param) ? "_faults"
                                                   : "_clean");
    });

// ---------------------------------------------------------------------
// Corruption matrix: every tampered snapshot raises SnapshotError
// ---------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_ = configFor(DesignPoint::Mask, false);
        fp_ = configFingerprint(cfg_);
        auto gpu = makeGpu(cfg_);
        gpu->run(2500);
        image_ = renderSnapshot(fp_, *gpu);
    }

    /** Expect load of @p image to throw, and return the error. */
    SnapshotError
    expectRejected(const std::string &image,
                   std::uint64_t fp = 0)
    {
        if (fp == 0)
            fp = fp_;
        auto gpu = makeGpu(cfg_);
        try {
            std::uint64_t cycle = SnapshotError::kNoCycle;
            const std::string_view payload =
                validateSnapshotImage(image, fp, &cycle);
            StateReader reader(payload, cycle);
            gpu->deserialize(reader);
        } catch (const SnapshotError &err) {
            return err;
        }
        ADD_FAILURE() << "corrupted snapshot was accepted";
        return SnapshotError("", "", SnapshotError::kNoCycle);
    }

    GpuConfig cfg_;
    std::uint64_t fp_ = 0;
    std::string image_;
};

TEST_F(SnapshotCorruption, IntactImageRestores)
{
    auto gpu = makeGpu(cfg_);
    std::uint64_t cycle = 0;
    const std::string_view payload =
        validateSnapshotImage(image_, fp_, &cycle);
    StateReader reader(payload, cycle);
    gpu->deserialize(reader);
    EXPECT_EQ(gpu->now(), 2500u);
}

TEST_F(SnapshotCorruption, TruncatedPayload)
{
    const SnapshotError err =
        expectRejected(image_.substr(0, image_.size() - 7));
    EXPECT_NE(err.reason().find("truncated"), std::string::npos)
        << err.reason();
    EXPECT_EQ(err.cycle(), 2500u) << "error carries snapshot cycle";
}

TEST_F(SnapshotCorruption, TruncatedBeforeHeaderEnds)
{
    const SnapshotError err = expectRejected(image_.substr(0, 10));
    EXPECT_NE(err.reason().find("header"), std::string::npos)
        << err.reason();
}

TEST_F(SnapshotCorruption, SingleBitFlipInPayload)
{
    std::string bad = image_;
    bad[bad.size() / 2] =
        static_cast<char>(bad[bad.size() / 2] ^ 0x08);
    const SnapshotError err = expectRejected(bad);
    EXPECT_NE(err.reason().find("checksum"), std::string::npos)
        << err.reason();
    EXPECT_EQ(err.cycle(), 2500u);
}

TEST_F(SnapshotCorruption, StaleFormatVersion)
{
    const std::string head =
        "MASKSNAP " + std::to_string(kSnapshotVersion) + " ";
    ASSERT_EQ(image_.compare(0, head.size(), head), 0);
    const std::string bad = "MASKSNAP " +
                            std::to_string(kSnapshotVersion + 1) + " " +
                            image_.substr(head.size());
    const SnapshotError err = expectRejected(bad);
    EXPECT_NE(err.reason().find("version"), std::string::npos)
        << err.reason();
}

TEST_F(SnapshotCorruption, BadMagic)
{
    std::string bad = image_;
    bad[0] = 'X';
    const SnapshotError err = expectRejected(bad);
    EXPECT_NE(err.reason().find("magic"), std::string::npos)
        << err.reason();
}

TEST_F(SnapshotCorruption, MismatchedConfigFingerprint)
{
    const SnapshotError err = expectRejected(image_, fp_ + 1);
    EXPECT_NE(err.reason().find("fingerprint"), std::string::npos)
        << err.reason();
    EXPECT_EQ(err.cycle(), 2500u)
        << "fingerprint check runs after the cycle is parsed";
}

TEST_F(SnapshotCorruption, ValidChecksumOverTruncatedPayload)
{
    // Corruption that defeats the checksum (here: a rewritten header
    // over a cut payload) must still be caught by the bounds-checked
    // payload decoder, with the failing structural field named.
    const std::size_t nl = image_.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string payload =
        image_.substr(nl + 1, (image_.size() - nl - 1) / 2);
    std::string bad = "MASKSNAP " + std::to_string(kSnapshotVersion) +
                      " " + std::to_string(fp_) + " 2500 " +
                      std::to_string(payload.size()) + " " +
                      std::to_string(fnv1a64(payload)) + "\n" + payload;
    const SnapshotError err = expectRejected(bad);
    EXPECT_EQ(err.cycle(), 2500u);
    EXPECT_FALSE(err.field().empty())
        << "decoder errors name the last structural field reached";
}

TEST_F(SnapshotCorruption, UnknownRequestStageLabel)
{
    // A request's stage label replaced by a string of the same length,
    // under a recomputed checksum, passes every header check; the
    // decoder must still reject it and name it.
    const std::size_t nl = image_.find('\n');
    ASSERT_NE(nl, std::string::npos);
    std::string payload = image_.substr(nl + 1);
    std::size_t at = std::string::npos;
    std::string label;
    for (const char *name : kReqStageNames) {
        label = name;
        at = payload.find(static_cast<char>(label.size()) + label);
        if (at != std::string::npos)
            break;
    }
    ASSERT_NE(at, std::string::npos) << "no live request in the image";
    const std::string bogus(label.size(), 'q');
    payload.replace(at + 1, label.size(), bogus);
    const std::string header = image_.substr(0, nl);
    const std::string bad = header.substr(0, header.rfind(' ') + 1) +
                            std::to_string(fnv1a64(payload)) + "\n" +
                            payload;
    const SnapshotError err = expectRejected(bad);
    EXPECT_NE(err.reason().find("unknown request stage label '" + bogus +
                                "'"),
              std::string::npos)
        << err.reason();
    EXPECT_EQ(err.cycle(), 2500u);
}

TEST_F(SnapshotCorruption, MalformedCycleField)
{
    // Header numbers are digits only, at most 20 bytes, below 2^64.
    const std::string cycle = " 2500 ";
    const std::size_t at = image_.find(cycle);
    ASSERT_NE(at, std::string::npos);
    ASSERT_LT(at, image_.find('\n'));
    for (const char *tok :
         {"+5", "18446744073709551616", "00000000000000000002500"}) {
        std::string bad = image_;
        bad.replace(at + 1, cycle.size() - 2, tok);
        const SnapshotError err = expectRejected(bad);
        EXPECT_NE(err.reason().find("malformed cycle"), std::string::npos)
            << tok << ": " << err.reason();
    }
}

TEST_F(SnapshotCorruption, MissingFile)
{
    auto gpu = makeGpu(cfg_);
    EXPECT_THROW(loadSnapshotFile(tmpPath("does_not_exist.snap"), fp_,
                                  *gpu),
                 SnapshotError);
}

// ---------------------------------------------------------------------
// Periodic checkpoint hook and runWithCheckpoints
// ---------------------------------------------------------------------

TEST(CheckpointHook, FiresOnIntervalAndIsTransparent)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);

    auto plain = makeGpu(cfg);
    plain->run(kWarmup);
    plain->resetStats();
    plain->run(kMeasure);
    const std::string want = statsBlob(plain->collect());

    auto hooked = makeGpu(cfg);
    hooked->run(kWarmup);
    hooked->resetStats();
    // Installed after resetStats so the `calls` counter and the
    // ckptWrites stat (zeroed with the window) cover the same span.
    int calls = 0;
    hooked->setCheckpointHook(512, [&calls](Gpu &) { ++calls; });
    hooked->run(kMeasure);
    const GpuStats stats = hooked->collect();

    EXPECT_GT(calls, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(calls), stats.ckptWrites)
        << "collect() reports checkpoint count (host-side)";
    EXPECT_EQ(statsBlob(stats), want)
        << "checkpointing must not perturb simulated results";
}

TEST(CheckpointHook, DisabledCostsNothingAndNeverFires)
{
    const GpuConfig cfg = configFor(DesignPoint::SharedTlb, false);
    auto gpu = makeGpu(cfg);
    int calls = 0;
    gpu->setCheckpointHook(0, [&calls](Gpu &) { ++calls; });
    gpu->run(4000);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(gpu->collect().ckptWrites, 0u);
}

TEST(RunWithCheckpoints, EnabledMatchesDisabledBitExactly)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);
    const auto make = [&cfg]() { return makeGpu(cfg); };

    CheckpointPolicy off;
    const std::string want = statsBlob(runWithCheckpoints(
        make, off, fp, std::string(), kWarmup, kMeasure));

    CheckpointPolicy on;
    on.intervalCycles = 1024;
    on.dir = ::testing::TempDir();
    const std::string path = tmpPath("mask_rwc.snap");
    const GpuStats stats =
        runWithCheckpoints(make, on, fp, path, kWarmup, kMeasure);
    EXPECT_EQ(statsBlob(stats), want);
    EXPECT_GT(stats.ckptWrites, 0u);
    EXPECT_GT(stats.ckptBytes, 0u);
    // keep=false: snapshot files are cleaned up on success.
    std::ifstream left(path);
    EXPECT_FALSE(static_cast<bool>(left))
        << "checkpoint not removed after successful run";
}

TEST(RunWithCheckpoints, ResumesFromKeptCheckpoint)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);
    const auto make = [&cfg]() { return makeGpu(cfg); };
    const std::string path = tmpPath("mask_rwc_keep.snap");
    std::remove(path.c_str());

    CheckpointPolicy keep;
    keep.intervalCycles = 1024;
    keep.dir = ::testing::TempDir();
    keep.keep = true;

    const std::string want = statsBlob(runWithCheckpoints(
        make, keep, fp, path, kWarmup, kMeasure));
    // keep=true leaves the newest periodic snapshot behind...
    std::uint64_t cycle = 0;
    validateSnapshotImage(readFile(path), fp, &cycle);
    EXPECT_GT(cycle, kWarmup);
    EXPECT_LE(cycle, kWarmup + kMeasure);

    // ...and a re-run warm-starts from it, bit-identically.
    EXPECT_EQ(statsBlob(runWithCheckpoints(make, keep, fp, path,
                                           kWarmup, kMeasure)),
              want);

    // A corrupted checkpoint is rejected and the run falls back to
    // cycle 0 — same result, no crash.
    std::string data = readFile(path);
    data[data.size() - 3] =
        static_cast<char>(data[data.size() - 3] ^ 0x01);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
    }
    EXPECT_EQ(statsBlob(runWithCheckpoints(make, keep, fp, path,
                                           kWarmup, kMeasure)),
              want);

    std::remove(path.c_str());
}

TEST(RunWithCheckpoints, FatalSignalMidRunResumesFromPath)
{
    // A forked child with the real fatal-signal handlers installed
    // checkpoints a long run and is killed by SIGSEGV mid-window. The
    // handler writes only the repro; the periodic checkpoint file is
    // the one resume image, and resuming from it is bit-exact.
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);
    const auto make = [&cfg]() { return makeGpu(cfg); };
    constexpr Cycle kLongMeasure = 500000;
    const std::string dir = tmpPath("mask_sig_resume");
    const auto clear_dir = [&dir] {
        for (const std::string &name : dirEntries(dir))
            std::remove((dir + "/" + name).c_str());
    };
    ::mkdir(dir.c_str(), 0755);
    clear_dir();
    const std::string path = dir + "/job.snap";
    const std::string repro = dir + "/job.repro";

    CheckpointPolicy keep;
    keep.intervalCycles = 1024;
    keep.dir = dir;
    keep.keep = true;

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        CrashRepro record;
        record.benches = {benchA().name, benchB().name};
        const ScopedSignalRepro armed(record, repro);
        runWithCheckpoints(make, keep, fp, path, kWarmup, kLongMeasure);
        std::_Exit(0); // finished before the signal: the parent fails
    }
    struct stat st = {};
    for (int i = 0; i < 60000 && ::stat(path.c_str(), &st) != 0; ++i)
        ::usleep(1000);
    ASSERT_EQ(::kill(child, SIGSEGV), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child was not killed mid-run (exit status " << status << ")";
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
    EXPECT_NE(loadRepro(repro).detail.find("SIGSEGV"), std::string::npos);
    // Besides a tmp file the kill may strand mid-write, the directory
    // holds the repro and the one checkpoint: no second resume image.
    std::vector<std::string> left = dirEntries(dir);
    std::erase_if(left, [](const std::string &name) {
        return name.rfind("job.snap.tmp.", 0) == 0;
    });
    EXPECT_EQ(left, (std::vector<std::string>{"job.repro", "job.snap"}));

    std::uint64_t cycle = 0;
    validateSnapshotImage(readFile(path), fp, &cycle);
    EXPECT_GT(cycle, 0u);
    ::testing::internal::CaptureStderr();
    const std::string resumed = statsBlob(
        runWithCheckpoints(make, keep, fp, path, kWarmup, kLongMeasure));
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("resumed from checkpoint " + path + " at cycle " +
                       std::to_string(cycle)),
              std::string::npos)
        << log;
    EXPECT_EQ(resumed,
              statsBlob(runWithCheckpoints(make, CheckpointPolicy{}, fp,
                                           std::string(), kWarmup,
                                           kLongMeasure)));

    clear_dir();
    ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------
// Previous-format images: rejected on every read path, never misread
// ---------------------------------------------------------------------

/**
 * A version-2 image as the text-token codec wrote it. Magic,
 * fingerprint, length and checksum are all valid, so only the version
 * check stands between it and the binary decoder.
 */
std::string
textFormatImage(std::uint64_t fingerprint, std::uint64_t cycle)
{
    const std::string payload = "/gpu " + std::to_string(cycle) +
                                " 0 0x1.8p+1 s3:abc /dram 4 1";
    return "MASKSNAP 2 " + std::to_string(fingerprint) + " " +
           std::to_string(cycle) + " " + std::to_string(payload.size()) +
           " " + std::to_string(fnv1a64(payload)) + "\n" + payload;
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/** One warm-eligible MASK job; returns its encodePairResult blob. */
std::string
runWarmJob(const WarmPolicy &warm, WarmStateCache::Stats *stats_out)
{
    RunOptions options;
    options.warmup = 2000;
    options.measure = 2000;
    SweepRunner sweep(options, 1);
    sweep.setWarmPolicy(warm);
    const WorkloadPair &pair = workloadPairs().front();
    const std::size_t id = sweep.submit(
        SweepJob{smallConfig(), DesignPoint::Mask,
                 {pair.first, pair.second}, SweepMode::SharedOnly});
    sweep.run();
    if (stats_out != nullptr)
        *stats_out = sweep.warmStats();
    return encodePairResult(sweep.result(id));
}

TEST(SnapshotFormat, PreviousVersionImageFallsBackToColdRun)
{
    // As a checkpoint candidate: skipped with a "version" reason, and
    // the run starts over from cycle 0.
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);
    const auto make = [&cfg]() { return makeGpu(cfg); };
    const std::string cold = statsBlob(runWithCheckpoints(
        make, CheckpointPolicy{}, fp, std::string(), kWarmup, kMeasure));

    CheckpointPolicy on;
    on.intervalCycles = 1024;
    on.dir = ::testing::TempDir();
    const std::string path = tmpPath("mask_v2_candidate.snap");
    writeFile(path, textFormatImage(fp, kWarmup + 1024));
    ::testing::internal::CaptureStderr();
    const std::string resumed = statsBlob(
        runWithCheckpoints(make, on, fp, path, kWarmup, kMeasure));
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resumed, cold);
    EXPECT_NE(log.find("format version 2"), std::string::npos) << log;
    EXPECT_EQ(log.find("resumed from"), std::string::npos) << log;
    std::remove(path.c_str());

    // As a <key>.snap warm file: rejected on restore with a "version"
    // reason, invalidated, and the job re-simulated cold.
    const std::string cold_warm = runWarmJob(WarmPolicy{}, nullptr);
    WarmPolicy warm;
    warm.enabled = true;
    warm.dir = tmpPath("mask_v2_warm");
    ::mkdir(warm.dir.c_str(), 0777);
    runWarmJob(warm, nullptr); // publishes <dir>/<key>.snap
    std::string snap;
    if (DIR *d = ::opendir(warm.dir.c_str()); d != nullptr) {
        while (const dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.size() > 5 &&
                name.compare(name.size() - 5, 5, ".snap") == 0)
                snap = warm.dir + "/" + name;
        }
        ::closedir(d);
    }
    ASSERT_FALSE(snap.empty()) << "warm run published no snapshot";
    std::istringstream header(readFile(snap));
    std::string magic;
    std::uint64_t version = 0, warm_fp = 0, cycle = 0;
    header >> magic >> version >> warm_fp >> cycle;
    ASSERT_EQ(version, kSnapshotVersion);
    writeFile(snap, textFormatImage(warm_fp, cycle));

    ::testing::internal::CaptureStderr();
    WarmStateCache::Stats stats;
    const std::string warmed = runWarmJob(warm, &stats);
    const std::string warm_log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(warmed, cold_warm);
    EXPECT_EQ(stats.fallbacks, 1u);
    EXPECT_NE(warm_log.find("format version 2"), std::string::npos)
        << warm_log;
    std::remove(snap.c_str());
    ::rmdir(warm.dir.c_str());
}

// ---------------------------------------------------------------------
// MASK_CKPT_* policy plumbing
// ---------------------------------------------------------------------

/** setenv/unsetenv guard restoring prior values on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name)) {
            had_ = true;
            prev_ = prev;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), prev_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string prev_;
    bool had_ = false;
};

TEST(CheckpointPolicy, FromEnv)
{
    {
        ScopedEnv interval("MASK_CKPT_INTERVAL_CYCLES", nullptr);
        ScopedEnv dir("MASK_CKPT_DIR", nullptr);
        const CheckpointPolicy policy = checkpointPolicyFromEnv();
        EXPECT_FALSE(policy.enabled());
        EXPECT_EQ(policy.dir, ".");
        EXPECT_FALSE(policy.keep);
    }
    {
        ScopedEnv interval("MASK_CKPT_INTERVAL_CYCLES", "250000");
        ScopedEnv dir("MASK_CKPT_DIR", "/tmp/ckpts");
        const CheckpointPolicy policy = checkpointPolicyFromEnv();
        EXPECT_TRUE(policy.enabled());
        EXPECT_EQ(policy.intervalCycles, 250000u);
        EXPECT_EQ(policy.dir, "/tmp/ckpts");
    }
    {
        // A garbage interval is rejected, never silently "off".
        ScopedEnv interval("MASK_CKPT_INTERVAL_CYCLES", "10k");
        EXPECT_THROW(checkpointPolicyFromEnv(), ConfigError);
    }
}

TEST(CheckpointPolicy, PathIsDeterministicAndSanitized)
{
    CheckpointPolicy policy;
    policy.dir = "/tmp/snapdir";
    const std::string path = checkpointPath(
        policy, 0x1234abcdu, {"3dmm", "weird name/x"}, 5000, 20000);
    EXPECT_EQ(path, "/tmp/snapdir/ckpt_000000001234abcd_3dmm_"
                    "weird-name-x_5000_20000.snap");
    // Same job -> same file, so a rerun after a kill finds it.
    EXPECT_EQ(path,
              checkpointPath(policy, 0x1234abcdu,
                             {"3dmm", "weird name/x"}, 5000, 20000));
}

// ---------------------------------------------------------------------
// File layer (common/file_io.hh)
// ---------------------------------------------------------------------

TEST(SnapshotFile, ConcurrentSaversOfOnePathNeverClobber)
{
    // Two processes checkpointing the same job into one shared
    // directory publish the same path. Each must always publish a
    // complete image of its own; neither may see its tmp file
    // truncated or renamed away by the other.
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);
    auto gpu = makeGpu(cfg);
    gpu->run(500);
    const std::string dir = tmpPath("mask_concurrent_ckpt");
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/job.snap";
    const auto save_many = [&] {
        for (int i = 0; i < 200; ++i)
            saveSnapshotFile(path, fp, *gpu);
    };

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        int code = 0;
        try {
            save_many();
        } catch (...) {
            code = 1;
        }
        std::_Exit(code);
    }
    std::string parent_error;
    try {
        save_many();
    } catch (const std::exception &err) {
        parent_error = err.what();
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_EQ(parent_error, "");
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child saver threw";

    auto fresh = makeGpu(cfg);
    loadSnapshotFile(path, fp, *fresh);
    EXPECT_EQ(fresh->now(), 500u);
    EXPECT_EQ(dirEntries(dir), std::vector<std::string>{"job.snap"});
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(FileLayer, ReadFileMissingAndFromOffset)
{
    std::string out = "stale";
    EXPECT_FALSE(mask::readFile(tmpPath("mask_no_such_file"), out));
    EXPECT_EQ(out, "");

    const std::string path = tmpPath("mask_read_offset.txt");
    writeFileAtomic(path, "0123456789");
    ASSERT_TRUE(mask::readFile(path, out));
    EXPECT_EQ(out, "0123456789");
    ASSERT_TRUE(mask::readFile(path, out, 4));
    EXPECT_EQ(out, "456789");
    ASSERT_TRUE(mask::readFile(path, out, 10));
    EXPECT_EQ(out, "");
    ASSERT_TRUE(mask::readFile(path, out, 99));
    EXPECT_EQ(out, "");
    std::remove(path.c_str());
}

TEST(FileLayer, WriteFileAtomicLeavesNoTmpBehind)
{
    const std::string dir = tmpPath("mask_atomic_dir");
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/file";
    writeFileAtomic(path, "a first, longer image");
    writeFileAtomic(path, "second");
    std::string out;
    ASSERT_TRUE(mask::readFile(path, out));
    EXPECT_EQ(out, "second");
    EXPECT_EQ(dirEntries(dir), std::vector<std::string>{"file"});

    // A publish that cannot happen throws and leaves nothing behind:
    // no tmp file can be created, or the rename onto a directory
    // fails after the tmp file was written.
    EXPECT_THROW(writeFileAtomic(dir + "/missing/file", "x"),
                 std::runtime_error);
    EXPECT_EQ(dirEntries(dir), std::vector<std::string>{"file"});
    EXPECT_THROW(writeFileAtomic(dir, "x"), std::runtime_error);
    for (const std::string &name : dirEntries(::testing::TempDir()))
        EXPECT_NE(name.rfind("mask_atomic_dir.tmp", 0), 0u) << name;
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace mask

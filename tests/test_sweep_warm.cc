/**
 * Tests for warm-start sweep execution (DESIGN.md §14): warm-forked
 * results must be byte-identical to fresh serial runs across design
 * points and fault injection, the WarmStateCache must be single-flight
 * under concurrency, a corrupted warm file or an unwritable warm dir
 * must degrade to a fresh run (never a wrong result), and the
 * warmupFingerprint field classification must stay exhaustive as
 * GpuConfig grows.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/config.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

using namespace mask;

namespace {

/** Small GPU so each simulated leg runs in milliseconds. */
GpuConfig
smallConfig(bool faults)
{
    GpuConfig cfg;
    cfg.numCores = 6;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    if (faults) {
        cfg.harden.fault.enabled = true;
        cfg.harden.fault.seed = 11;
        cfg.harden.fault.dramDelayProb = 0.05;
        cfg.harden.fault.walkDropProb = 0.02;
    }
    return cfg;
}

RunOptions
warmOptions()
{
    RunOptions options;
    options.warmup = 2000;
    options.measure = 4000;
    return options;
}

std::vector<std::string>
samplePair()
{
    const WorkloadPair &pair = workloadPairs().front();
    return {pair.first, pair.second};
}

SweepJob
gridJob(const GpuConfig &arch, DesignPoint point, Cycle measure,
        SweepMode mode = SweepMode::SharedOnly)
{
    SweepJob job;
    job.arch = arch;
    job.point = point;
    job.benches = samplePair();
    job.mode = mode;
    RunOptions options = warmOptions();
    options.measure = measure;
    job.options = options;
    return job;
}

/** Unique-ish temp dir under the build dir (no clock/random: gtest
 *  runs each test in its own ctest process, so the PID suffices). */
std::string
tempDir(const std::string &tag)
{
    const std::string dir = "sweep_warm_" + tag + "_" +
                            std::to_string(::getpid()) + ".tmp";
    ::mkdir(dir.c_str(), 0777);
    return dir;
}

void
removeDir(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str()); d != nullptr) {
        while (const dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                ::unlink((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

/** A warm policy over a fresh temp dir, removed with this object. */
class WarmDir
{
  public:
    explicit WarmDir(const std::string &tag) : dir_(tempDir(tag)) {}
    ~WarmDir() { removeDir(dir_); }
    WarmDir(const WarmDir &) = delete;
    WarmDir &operator=(const WarmDir &) = delete;

    const std::string &path() const { return dir_; }
    WarmPolicy policy() const { return WarmPolicy{true, dir_}; }

  private:
    std::string dir_;
};

std::vector<std::string>
snapFilesIn(const std::string &dir)
{
    std::vector<std::string> files;
    if (DIR *d = ::opendir(dir.c_str()); d != nullptr) {
        while (const dirent *entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name.size() > 5 &&
                name.compare(name.size() - 5, 5, ".snap") == 0)
                files.push_back(dir + "/" + name);
        }
        ::closedir(d);
    }
    return files;
}

/** Run @p jobs on a fresh runner and return encodePairResult blobs. */
std::vector<std::string>
runAndEncode(const std::vector<SweepJob> &jobs, WarmPolicy warm,
             unsigned workers,
             WarmStateCache::Stats *stats_out = nullptr)
{
    SweepRunner sweep(warmOptions(), workers);
    sweep.setWarmPolicy(std::move(warm));
    std::vector<std::size_t> ids;
    ids.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        ids.push_back(sweep.submit(job));
    sweep.run();
    std::vector<std::string> blobs;
    blobs.reserve(ids.size());
    for (const std::size_t id : ids)
        blobs.push_back(encodePairResult(sweep.result(id)));
    if (stats_out != nullptr)
        *stats_out = sweep.warmStats();
    return blobs;
}

} // namespace

// --- Warm-vs-fresh byte identity -------------------------------------

TEST(SweepWarm, WarmForkedResultsByteIdenticalAcrossDesignsAndFaults)
{
    for (const DesignPoint point :
         {DesignPoint::SharedTlb, DesignPoint::Mask,
          DesignPoint::Ideal}) {
        for (const bool faults : {false, true}) {
            const GpuConfig arch = smallConfig(faults);
            // Two measure lengths sharing one warmup fingerprint: the
            // second job restores the snapshot the first published.
            const std::vector<SweepJob> jobs = {
                gridJob(arch, point, 4000),
                gridJob(arch, point, 2000),
            };
            const std::vector<std::string> fresh =
                runAndEncode(jobs, WarmPolicy{}, 1);
            const WarmDir dir("designs");
            WarmStateCache::Stats stats;
            const std::vector<std::string> warm =
                runAndEncode(jobs, dir.policy(), 1, &stats);
            EXPECT_EQ(fresh, warm)
                << "design=" << designPointName(point)
                << " faults=" << faults;
            EXPECT_EQ(stats.misses, 1u);
            EXPECT_EQ(stats.hits, 1u);
            EXPECT_EQ(stats.warmupCyclesSaved, warmOptions().warmup);
            EXPECT_EQ(stats.fallbacks, 0u);
        }
    }
}

TEST(SweepWarm, MetricsModeWarmMatchesFresh)
{
    // Metrics mode adds the alone runs, which take the warm path with
    // their own (single-bench, resized-GPU) fingerprints.
    const GpuConfig arch = smallConfig(false);
    const std::vector<SweepJob> jobs = {
        gridJob(arch, DesignPoint::Mask, 4000, SweepMode::Metrics),
        gridJob(arch, DesignPoint::Mask, 2000, SweepMode::Metrics),
    };
    const std::vector<std::string> fresh =
        runAndEncode(jobs, WarmPolicy{}, 1);
    const WarmDir dir("metrics");
    WarmStateCache::Stats stats;
    const std::vector<std::string> warm =
        runAndEncode(jobs, dir.policy(), 1, &stats);
    EXPECT_EQ(fresh, warm);
    // Job 1 warms three states (the shared run plus one alone run per
    // application); job 2's measure window differs so its runs differ
    // from job 1's, but all three share job 1's warmup fingerprints
    // and hit.
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 3u);
}

// --- Single flight under concurrency ---------------------------------

TEST(SweepWarm, SingleFlightUnderFourWorkers)
{
    const GpuConfig arch = smallConfig(false);
    const std::vector<SweepJob> jobs = {
        gridJob(arch, DesignPoint::SharedTlb, 1000),
        gridJob(arch, DesignPoint::SharedTlb, 2000),
        gridJob(arch, DesignPoint::SharedTlb, 3000),
        gridJob(arch, DesignPoint::SharedTlb, 4000),
    };
    const std::vector<std::string> fresh =
        runAndEncode(jobs, WarmPolicy{}, 1);
    const WarmDir dir("flight");
    WarmStateCache::Stats stats;
    const std::vector<std::string> warm =
        runAndEncode(jobs, dir.policy(), 4, &stats);
    EXPECT_EQ(fresh, warm);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.warmupCyclesSaved, 3 * warmOptions().warmup);
}

TEST(SweepWarm, CacheSingleFlightBlocksConcurrentProducers)
{
    const WarmDir dir("producers");
    WarmStateCache cache(dir.policy());
    std::atomic<int> produced{0};
    const auto produce = [&produced]() {
        ++produced;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return std::string("image-bytes");
    };
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&]() {
            if (cache.getOrWarm("key", 1000, produce) != "image-bytes")
                ++mismatches;
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(produced.load(), 1);
    EXPECT_EQ(mismatches.load(), 0);
    const WarmStateCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 7u);
    EXPECT_EQ(stats.warmupCyclesSaved, 7000u);
}

// --- Corrupted warm file ---------------------------------------------

TEST(SweepWarm, CorruptedWarmFileFallsBackToFreshRun)
{
    const WarmDir dir("corrupt");
    const GpuConfig arch = smallConfig(false);
    const std::vector<SweepJob> jobs = {
        gridJob(arch, DesignPoint::Mask, 2000)};
    const std::vector<std::string> fresh =
        runAndEncode(jobs, WarmPolicy{}, 1);

    const WarmPolicy file_policy = dir.policy();
    runAndEncode(jobs, file_policy, 1); // publishes <dir>/<key>.snap

    std::vector<std::string> files = snapFilesIn(dir.path());
    ASSERT_EQ(files.size(), 1u);
    {
        // Flip one payload byte: the header parses, the checksum does
        // not — exactly the shape of on-disk bit rot.
        std::fstream f(files.front(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        f.seekg(size - 2);
        char byte = 0;
        f.read(&byte, 1);
        f.seekp(size - 2);
        byte = static_cast<char>(byte ^ 0x40);
        f.write(&byte, 1);
    }

    // A new runner reads the corrupt file, rejects it during
    // restore, and re-runs fresh — identical bytes.
    WarmStateCache::Stats stats;
    const std::vector<std::string> recovered =
        runAndEncode(jobs, file_policy, 1, &stats);
    EXPECT_EQ(fresh, recovered);
    EXPECT_EQ(stats.fallbacks, 1u);
    // invalidate() dropped the poisoned file.
    EXPECT_TRUE(snapFilesIn(dir.path()).empty());
}

// --- File-backed reuse across runners --------------------------------

TEST(SweepWarm, WarmFilesServeAcrossRunnerInstances)
{
    const WarmDir dir("reuse");
    const GpuConfig arch = smallConfig(false);
    const std::vector<SweepJob> jobs = {
        gridJob(arch, DesignPoint::SharedTlb, 2000)};
    const std::vector<std::string> fresh =
        runAndEncode(jobs, WarmPolicy{}, 1);

    const WarmPolicy file_policy = dir.policy();
    WarmStateCache::Stats first;
    runAndEncode(jobs, file_policy, 1, &first);
    EXPECT_EQ(first.misses, 1u);

    // Second runner: the file it did not write is a hit — the
    // journal-resume and distributed-worker sharing path.
    WarmStateCache::Stats second;
    const std::vector<std::string> reused =
        runAndEncode(jobs, file_policy, 1, &second);
    EXPECT_EQ(fresh, reused);
    EXPECT_EQ(second.misses, 0u);
    EXPECT_EQ(second.hits, 1u);
}

// --- Disk trouble ----------------------------------------------------

TEST(SweepWarm, UnwritableWarmDirCostsTimeNotResults)
{
    // The warm dir sits under a regular file, so no snapshot can be
    // written or read: every run warms itself and counts a miss, and
    // the grid's results still match a cold run byte for byte.
    const WarmDir parent("unwritable");
    const std::string blocker = parent.path() + "/file";
    std::ofstream(blocker) << "not a directory\n";
    const WarmPolicy blocked{true, blocker + "/warm"};

    const GpuConfig arch = smallConfig(false);
    const std::vector<SweepJob> jobs = {
        gridJob(arch, DesignPoint::Mask, 1000),
        gridJob(arch, DesignPoint::Mask, 2000),
        gridJob(arch, DesignPoint::Mask, 3000),
    };
    const std::vector<std::string> fresh =
        runAndEncode(jobs, WarmPolicy{}, 1);
    for (const unsigned workers : {1u, 2u}) {
        WarmStateCache::Stats stats;
        ::testing::internal::CaptureStderr();
        const std::vector<std::string> warm =
            runAndEncode(jobs, blocked, workers, &stats);
        const std::string log = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(fresh, warm) << "workers=" << workers;
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.misses, jobs.size());
        EXPECT_EQ(stats.fallbacks, 0u);
        EXPECT_NE(log.find("[sweep]"), std::string::npos) << log;
    }
}

TEST(SweepWarm, EnabledPolicyWithoutDirIsConfigError)
{
    SweepRunner sweep(warmOptions(), 1);
    EXPECT_THROW(sweep.setWarmPolicy(WarmPolicy{true, ""}), ConfigError);
    EXPECT_NO_THROW(sweep.setWarmPolicy(WarmPolicy{}));
    EXPECT_EQ(sweep.warmCache(), nullptr);
}

// --- Config-field classification exhaustiveness ----------------------

/**
 * Mirror structs replicating every configuration struct field-for-
 * field. If someone adds a field to any config struct, the sizeof
 * comparison below breaks this build until the mirror — and therefore
 * this checklist — is updated, and the fingerprint sensitivity checks
 * force the new field to be classified warmup-affecting (mixed into
 * configFingerprint, which warmupFingerprint re-hashes) or
 * measure-only/behaviour-neutral (documented on the declaration). This is the exhaustiveness contract of
 * warmupFingerprint(): no field may be silently unclassified.
 */
namespace mirror {

struct CacheConfig
{
    std::uint32_t sizeBytes, lineBytes, ways, latency, banks,
        portsPerBank, mshrs; // all warmup-affecting
};

struct TlbConfig
{
    std::uint32_t entries, ways, latency, ports,
        mshrs; // all warmup-affecting
};

struct DramConfig
{
    std::uint32_t channels, banksPerChannel, rowBytes, tRcd, tRp, tCl,
        tBurst, queueEntries, starvationCap; // all warmup-affecting
};

struct WalkerConfig
{
    std::uint32_t maxConcurrentWalks, levels; // all warmup-affecting
};

struct MaskConfig
{
    bool tlbTokens, l2Bypass, dramSched; // warmup-affecting
    Cycle epochCycles;                   // warmup-affecting
    double initialTokenFraction, missRateDelta,
        tokenStepFraction; // warmup-affecting
    std::uint32_t bypassCacheEntries, minBypassSamples,
        sampleProbeInterval, goldenQueueEntries, silverQueueEntries,
        normalQueueEntries, threshMax;  // warmup-affecting
    Cycle goldenMaxDelay, silverMaxDelay; // warmup-affecting
};

struct WatchdogConfig
{
    bool enabled;        // warmup-affecting (can trip mid-warmup)
    Cycle sweepInterval; // warmup-affecting
    Cycle maxAge;        // warmup-affecting
};

struct FaultInjectConfig
{
    bool enabled;       // warmup-affecting (perturbs timing)
    std::uint64_t seed; // warmup-affecting
    double dramDelayProb;
    Cycle dramDelayCycles;
    double walkDropProb;
    bool walkDropRetry;
    Cycle walkRetryDelay;
    Cycle shootdownInterval;
    double portStallProb;
    Cycle portStallCycles; // all warmup-affecting
};

struct HardenConfig
{
    WatchdogConfig watchdog;
    FaultInjectConfig fault;
    std::size_t poolHighWater; // warmup-affecting (invariant bound)
};

struct PartitionConfig
{
    bool partitionL2;           // warmup-affecting
    bool partitionDramChannels; // warmup-affecting
};

struct GpuConfig
{
    std::string name; // measure-only/neutral: free-form label
    std::uint32_t numCores, warpsPerCore, threadsPerWarp,
        lsuWidth;                      // warmup-affecting
    std::uint32_t pageBits, lineBits;  // warmup-affecting
    TranslationDesign design;          // warmup-affecting
    TlbConfig l1Tlb, l2Tlb;            // warmup-affecting
    CacheConfig pwCache, l1d, l2;      // warmup-affecting
    DramConfig dram;                   // warmup-affecting
    WalkerConfig walker;               // warmup-affecting
    MaskConfig mask;                   // warmup-affecting
    PartitionConfig partition;         // warmup-affecting
    HardenConfig harden;               // warmup-affecting
    std::vector<std::uint32_t> coreShares; // warmup-affecting
    std::uint64_t seed; // warmup-affecting
};

} // namespace mirror

TEST(SweepWarm, EveryConfigFieldIsClassified)
{
    // A new field in any config struct changes its size and fails the
    // matching assertion; add the field to the mirror above WITH a
    // warmup-affecting / measure-only classification comment, and mix
    // it into configFingerprint(), which warmupFingerprint() re-hashes
    // (or document its exclusion on warmupFingerprint).
    static_assert(sizeof(CacheConfig) == sizeof(mirror::CacheConfig),
                  "CacheConfig changed: classify the new field for "
                  "warmupFingerprint");
    static_assert(sizeof(TlbConfig) == sizeof(mirror::TlbConfig),
                  "TlbConfig changed: classify the new field");
    static_assert(sizeof(DramConfig) == sizeof(mirror::DramConfig),
                  "DramConfig changed: classify the new field");
    static_assert(sizeof(WalkerConfig) == sizeof(mirror::WalkerConfig),
                  "WalkerConfig changed: classify the new field");
    static_assert(sizeof(MaskConfig) == sizeof(mirror::MaskConfig),
                  "MaskConfig changed: classify the new field");
    static_assert(sizeof(WatchdogConfig) ==
                      sizeof(mirror::WatchdogConfig),
                  "WatchdogConfig changed: classify the new field");
    static_assert(sizeof(FaultInjectConfig) ==
                      sizeof(mirror::FaultInjectConfig),
                  "FaultInjectConfig changed: classify the new field");
    static_assert(sizeof(HardenConfig) == sizeof(mirror::HardenConfig),
                  "HardenConfig changed: classify the new field");
    static_assert(sizeof(PartitionConfig) ==
                      sizeof(mirror::PartitionConfig),
                  "PartitionConfig changed: classify the new field");
    static_assert(sizeof(GpuConfig) == sizeof(mirror::GpuConfig),
                  "GpuConfig changed: classify the new field");
    SUCCEED();
}

TEST(SweepWarm, WarmupFingerprintSensitivity)
{
    const GpuConfig base = smallConfig(false);
    const std::uint64_t wfp = warmupFingerprint(base);

    // Excluded field: a free-form label.
    GpuConfig renamed = base;
    renamed.name = "some-other-label";
    EXPECT_EQ(warmupFingerprint(renamed), wfp);

    // Warmup-affecting fields must perturb the fingerprint.
    GpuConfig seeded = base;
    seeded.seed = base.seed + 1;
    EXPECT_NE(warmupFingerprint(seeded), wfp);
    GpuConfig redesigned = base;
    redesigned.design = TranslationDesign::Ideal;
    EXPECT_NE(warmupFingerprint(redesigned), wfp);
    GpuConfig resized = base;
    resized.numCores = base.numCores + 2;
    EXPECT_NE(warmupFingerprint(resized), wfp);
    GpuConfig retimed = base;
    retimed.l2Tlb.entries *= 2;
    EXPECT_NE(warmupFingerprint(retimed), wfp);
    GpuConfig faulted = base;
    faulted.harden.fault.enabled = true;
    EXPECT_NE(warmupFingerprint(faulted), wfp);
    GpuConfig shared = base;
    shared.coreShares = {4, 2};
    EXPECT_NE(warmupFingerprint(shared), wfp);

    // Distinct hash family from configFingerprint (a warm snapshot
    // header can never validate against a checkpoint fingerprint).
    EXPECT_NE(wfp, configFingerprint(base));

    // Design points produce distinct warmup prefixes (MASK adapts from
    // cycle 0), so they never share warmed state.
    EXPECT_NE(warmupFingerprint(
                  applyDesignPoint(base, DesignPoint::Mask)),
              warmupFingerprint(
                  applyDesignPoint(base, DesignPoint::SharedTlb)));
}

TEST(SweepWarm, WarmStateKeyCoversWorkloadAndWindow)
{
    const std::string key = warmStateKey(0x1234, {"HISTO", "LPS"}, 2000);
    EXPECT_EQ(key, "warm_0000000000001234_HISTO_LPS_2000");
    EXPECT_NE(key, warmStateKey(0x1235, {"HISTO", "LPS"}, 2000));
    EXPECT_NE(key, warmStateKey(0x1234, {"HISTO"}, 2000));
    EXPECT_NE(key, warmStateKey(0x1234, {"HISTO", "LPS"}, 4000));
    // Filename-safe: the key doubles as a warm-file basename.
    for (const char c : key) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == '-')
            << "unsafe character in warm key: " << c;
    }
}

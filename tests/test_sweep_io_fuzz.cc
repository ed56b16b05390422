/**
 * @file
 * Randomized round-trip fuzzing of the exact sweep-result codec
 * (sweep_io). The journal and the fork-isolation pipe both rely on
 * encodePairResult/decodePairResult reproducing every bit of a
 * PairResult; here random results — including denormal, negative-zero
 * and huge doubles — must survive the trip exactly, and corrupted
 * blobs (truncations, flipped characters, foreign versions) must be
 * rejected with a clear error, never a crash. Deterministically
 * seeded so failures reproduce.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "sim/runner.hh"
#include "sim/sweep_io.hh"

namespace mask {
namespace {

using Rng = std::mt19937_64;

/**
 * Random finite double drawn from the full bit space (signs,
 * denormals, negative zero, extreme exponents) — any finite pattern
 * must round-trip through the %a hex-float encoding bit-exactly.
 */
double
randomDouble(Rng &rng)
{
    std::uint64_t bits = rng();
    // Clear an all-ones exponent: NaN payloads are not preserved by
    // printf("%a") and infinities never occur in real stats.
    constexpr std::uint64_t kExpMask = 0x7ff0000000000000ull;
    if ((bits & kExpMask) == kExpMask)
        bits &= ~(1ull << 62);
    double v = 0.0;
    static_assert(sizeof(v) == sizeof(bits));
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

RunningStat
randomRunningStat(Rng &rng)
{
    RunningStat v;
    v.count = rng();
    v.sum = randomDouble(rng);
    v.minVal = randomDouble(rng);
    v.maxVal = randomDouble(rng);
    return v;
}

HitMiss
randomHitMiss(Rng &rng)
{
    HitMiss v;
    v.hits = rng();
    v.misses = rng();
    return v;
}

std::size_t
smallSize(Rng &rng)
{
    return static_cast<std::size_t>(rng() % 5);
}

PairResult
randomResult(Rng &rng)
{
    PairResult r;
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        r.sharedIpc.push_back(randomDouble(rng));
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        r.aloneIpc.push_back(randomDouble(rng));
    r.weightedSpeedup = randomDouble(rng);
    r.ipcThroughput = randomDouble(rng);
    r.unfairness = randomDouble(rng);

    GpuStats &s = r.stats;
    s.cycles = rng();
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        s.instructions.push_back(rng());
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        s.ipc.push_back(randomDouble(rng));
    s.l1Tlb = randomHitMiss(rng);
    s.l2Tlb = randomHitMiss(rng);
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        s.l2TlbPerApp.push_back(randomHitMiss(rng));
    s.bypassCache = randomHitMiss(rng);
    s.pwCache = randomHitMiss(rng);
    s.l1d = randomHitMiss(rng);
    for (HitMiss &v : s.l2Cache)
        v = randomHitMiss(rng);
    for (HitMiss &v : s.l2CachePerLevel)
        v = randomHitMiss(rng);

    for (std::uint64_t &v : s.dram.busBusy)
        v = rng();
    for (std::uint64_t &v : s.dram.serviced)
        v = rng();
    for (RunningStat &v : s.dram.latency)
        v = randomRunningStat(rng);
    s.dram.rowHits = rng();
    s.dram.rowMisses = rng();
    s.dram.rowConflicts = rng();
    s.dram.enqueueRejects = rng();
    s.dram.capEscalations = rng();

    s.walks = rng();
    s.walkLatency = randomRunningStat(rng);
    s.tlbMissLatency = randomRunningStat(rng);
    s.concurrentWalks = randomRunningStat(rng);
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        s.concurrentWalksPerApp.push_back(randomRunningStat(rng));
    s.warpsPerMiss = randomRunningStat(rng);
    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        s.warpsPerMissPerApp.push_back(randomRunningStat(rng));
    s.readyWarpsPerCore = randomRunningStat(rng);

    for (std::size_t i = 0, n = smallSize(rng); i < n; ++i)
        s.tokens.push_back(static_cast<std::uint32_t>(rng()));
    s.l2Bypasses = rng();
    s.warpStallCycles = rng();
    s.watchdogSweeps = rng();
    s.watchdogMaxAgeSeen = rng();
    s.faultsInjected = rng();
    s.poolPeakLive = static_cast<std::size_t>(rng());
    s.poolCapacity = static_cast<std::size_t>(rng());
    s.requests = rng();
    // wallSeconds and the ckpt* overhead fields stay zero: they are
    // host-side accounting the codec deliberately encodes as zeros so
    // the blob is a pure function of the simulation.
    return r;
}

TEST(SweepIoFuzz, RandomResultsRoundTripExactly)
{
    Rng rng(0xA5EED5EEDull);
    for (int iter = 0; iter < 200; ++iter) {
        const PairResult r = randomResult(rng);
        const std::string blob = encodePairResult(r);
        const PairResult back = decodePairResult(blob);

        // Re-encoding the decoded result reproduces the blob byte for
        // byte; with a deterministic encoder covering every field this
        // implies field-level equality.
        EXPECT_EQ(encodePairResult(back), blob) << "iter " << iter;

        // Belt and braces: bit-compare a cross-section of doubles
        // (including whatever denormals the generator produced).
        ASSERT_EQ(back.sharedIpc.size(), r.sharedIpc.size());
        for (std::size_t i = 0; i < r.sharedIpc.size(); ++i)
            EXPECT_TRUE(bitEqual(back.sharedIpc[i], r.sharedIpc[i]));
        EXPECT_TRUE(
            bitEqual(back.weightedSpeedup, r.weightedSpeedup));
        EXPECT_TRUE(bitEqual(back.stats.walkLatency.sum,
                             r.stats.walkLatency.sum));
        EXPECT_TRUE(bitEqual(back.stats.warpsPerMiss.minVal,
                             r.stats.warpsPerMiss.minVal));
        EXPECT_EQ(back.stats.cycles, r.stats.cycles);
        EXPECT_EQ(back.stats.dram.rowHits, r.stats.dram.rowHits);
    }
}

TEST(SweepIoFuzz, ExtremeDoublesRoundTrip)
{
    PairResult r;
    r.sharedIpc = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        1.0 / 3.0,
    };
    const PairResult back = decodePairResult(encodePairResult(r));
    ASSERT_EQ(back.sharedIpc.size(), r.sharedIpc.size());
    for (std::size_t i = 0; i < r.sharedIpc.size(); ++i)
        EXPECT_TRUE(bitEqual(back.sharedIpc[i], r.sharedIpc[i]))
            << "index " << i;
}

TEST(SweepIoFuzz, DeepTruncationIsRejected)
{
    Rng rng(42);
    const std::string blob = encodePairResult(randomResult(rng));
    // A cut deep inside the stream always leaves a vector count
    // without its elements or a missing tail — a clear decode error.
    EXPECT_THROW(decodePairResult(blob.substr(0, blob.size() / 3)),
                 std::runtime_error);
    EXPECT_THROW(decodePairResult(std::string()), std::runtime_error);
    EXPECT_THROW(decodePairResult("v3"), std::runtime_error);
}

TEST(SweepIoFuzz, EveryTruncationFailsOrDecodesDifferently)
{
    Rng rng(43);
    const std::string blob = encodePairResult(randomResult(rng));
    // No prefix may silently decode to the original result: either
    // the decoder throws, or the decode visibly differs (a cut inside
    // the final token can still parse, but never back to the full
    // blob). Every iteration must be crash-free — this test also runs
    // under ASan/UBSan.
    for (std::size_t len = 0; len < blob.size(); ++len) {
        bool threw = false;
        std::string reencoded;
        try {
            reencoded = encodePairResult(
                decodePairResult(blob.substr(0, len)));
        } catch (const std::runtime_error &) {
            threw = true;
        }
        EXPECT_TRUE(threw || reencoded != blob) << "prefix " << len;
    }
}

TEST(SweepIoFuzz, RandomCharCorruptionNeverCrashes)
{
    Rng rng(44);
    const std::string blob = encodePairResult(randomResult(rng));
    int rejected = 0;
    for (int iter = 0; iter < 500; ++iter) {
        std::string bad = blob;
        const std::size_t pos = rng() % bad.size();
        char c = static_cast<char>(rng() % 0x60 + 0x20);
        if (c == bad[pos])
            c = '#';
        bad[pos] = c;
        try {
            (void)decodePairResult(bad);
        } catch (const std::runtime_error &) {
            ++rejected; // structured rejection is the expected path
        }
    }
    // Most single-character corruptions land in a token and break
    // parsing; a few flip digits silently (the snapshot layer's
    // checksum exists for those). Either way: no crash, no UB.
    EXPECT_GT(rejected, 0);
}

TEST(SweepIoFuzz, ForeignVersionIsRejected)
{
    Rng rng(45);
    std::string blob = encodePairResult(randomResult(rng));
    ASSERT_EQ(blob.compare(0, 2, "v3"), 0);
    blob[1] = '9';
    try {
        (void)decodePairResult(blob);
        FAIL() << "foreign version accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
}

} // namespace
} // namespace mask

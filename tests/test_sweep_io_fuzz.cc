/**
 * @file
 * Randomized round-trip fuzzing of the exact sweep-result codec
 * (sweep_io). The journal and the distributed shards both rely on
 * encodePairResult/decodePairResult reproducing every bit of a
 * PairResult; here random results — including denormal, negative-zero,
 * huge and NaN-payload doubles — must survive the trip exactly, and
 * corrupted blobs (truncations, flipped base64 characters, bad
 * padding, foreign versions) must be rejected with a clear error or
 * decode visibly differently, never crash. Deterministically seeded
 * so failures reproduce.
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

double
fromBits(std::uint64_t bits)
{
    double v = 0.0;
    static_assert(sizeof(v) == sizeof(bits));
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Random double drawn from the full bit space (signs, denormals,
 * negative zero, extreme exponents, infinities, NaN payloads) — the
 * codec carries raw bit patterns, so every one must round-trip.
 */
double
randomDouble(Rng &rng)
{
    return fromBits(rng());
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
    // The host-side fields (wallSeconds, ckpt*, work counters, stage
    // profile) stay zero: the codec does not carry them, so a decoded
    // result has them zero too.
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
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        fromBits(0x7ff0000000000001ull), // signalling NaN, payload 1
        fromBits(0xfff8dead0000beefull), // negative quiet NaN payload
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
    EXPECT_THROW(decodePairResult(blob.substr(0, blob.size() / 3)),
                 std::runtime_error);
    EXPECT_THROW(decodePairResult(std::string()), std::runtime_error);
    EXPECT_THROW(decodePairResult("v4"), std::runtime_error);
    EXPECT_THROW(decodePairResult("v4 "), std::runtime_error);
}

TEST(SweepIoFuzz, EveryTruncationFailsOrDecodesDifferently)
{
    Rng rng(43);
    const std::string blob = encodePairResult(randomResult(rng));
    ASSERT_EQ(blob.compare(0, 3, "v4 "), 0);
    // A prefix either breaks the base64 framing or decodes to a
    // payload the bounds-checked reader runs off the end of. Every
    // iteration must be crash-free — this test also runs under
    // ASan/UBSan.
    for (std::size_t len = 0; len < blob.size(); ++len) {
        EXPECT_THROW(decodePairResult(blob.substr(0, len)),
                     std::runtime_error)
            << "prefix " << len;
    }
}

TEST(SweepIoFuzz, RandomCharCorruptionNeverCrashes)
{
    static constexpr char kAlphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
        "0123456789+/";
    Rng rng(44);
    const std::string blob = encodePairResult(randomResult(rng));
    int rejected = 0;
    for (int iter = 0; iter < 500; ++iter) {
        // Swap one base64 character for another alphabet character:
        // the framing stays valid, so only the payload decoder (tags,
        // counts, bounds, trailing bytes) or a changed value can tell.
        std::string bad = blob;
        const std::size_t pos = 3 + rng() % (bad.size() - 3);
        if (bad[pos] == '=')
            continue;
        char c = kAlphabet[rng() % 64];
        if (c == bad[pos])
            c = c == 'A' ? 'B' : 'A';
        bad[pos] = c;
        try {
            const std::string back =
                encodePairResult(decodePairResult(bad));
            EXPECT_NE(back, blob) << "corruption at " << pos;
        } catch (const std::runtime_error &) {
            ++rejected; // structured rejection
        }
    }
    EXPECT_GT(rejected, 0);
}

TEST(SweepIoFuzz, MalformedBase64IsRejected)
{
    static constexpr char kAlphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
        "0123456789+/";
    Rng rng(46);
    const std::string blob = encodePairResult(randomResult(rng));
    // Any byte outside the alphabet, anywhere in the body.
    for (int iter = 0; iter < 200; ++iter) {
        std::string bad = blob;
        const std::size_t pos = 3 + rng() % (bad.size() - 3);
        bad[pos] = " \n\"#-_.*"[rng() % 8];
        EXPECT_THROW(decodePairResult(bad), std::runtime_error)
            << "byte at " << pos;
    }

    // Each extra sharedIpc element adds 8 payload bytes, so three
    // consecutive sizes cover every payload length mod 3, padded ones
    // included. Set a bit under the padding: the payload bytes are
    // unchanged, but the spelling is not canonical and must be
    // refused. Dropping the padding must be refused too.
    PairResult r;
    int padded = 0;
    for (int n = 0; n < 3; ++n, r.sharedIpc.push_back(1.0)) {
        const std::string ok = encodePairResult(r);
        ASSERT_NO_THROW(decodePairResult(ok));
        const std::size_t pad = ok.size() - 1 - ok.find_last_not_of('=');
        if (pad == 0)
            continue;
        ++padded;
        std::string bad = ok;
        char &last = bad[bad.size() - pad - 1];
        last = kAlphabet[std::strchr(kAlphabet, last) - kAlphabet + 1];
        EXPECT_THROW(decodePairResult(bad), std::runtime_error) << bad;
        EXPECT_THROW(decodePairResult(ok.substr(0, ok.size() - pad)),
                     std::runtime_error);
    }
    EXPECT_EQ(padded, 2);
}

TEST(SweepIoFuzz, ForeignVersionIsRejected)
{
    Rng rng(45);
    std::string blob = encodePairResult(randomResult(rng));
    ASSERT_EQ(blob.compare(0, 3, "v4 "), 0);
    blob[1] = '9';
    try {
        (void)decodePairResult(blob);
        FAIL() << "foreign version accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_THROW(decodePairResult("v3 0 0 0x0p+0"), std::runtime_error);
}

TEST(SweepIoFuzz, HostSideFieldsDoNotReachTheBlob)
{
    Rng rng(47);
    const PairResult r = randomResult(rng);
    PairResult host = r;
    GpuStats &s = host.stats;
    s.wallSeconds = 1.5;
    s.ckptWriteSeconds = 0.25;
    s.ckptBytes = 4096;
    s.ckptWrites = 3;
    s.skippedCycles = 7;
    s.dramSchedPicks = 11;
    s.dramSchedBanksScanned = 13;
    s.dataRetryProbes = 17;
    s.tlbRetryProbes = 19;
    s.stageSeconds = {0.1, 0.2};
    s.stageCalls = {1, 2};
    const std::string blob = encodePairResult(r);
    EXPECT_EQ(encodePairResult(host), blob);
    // ...and a decoded result carries them as zero.
    const GpuStats back = decodePairResult(blob).stats;
    EXPECT_EQ(back.wallSeconds, 0.0);
    EXPECT_EQ(back.ckptWrites, 0u);
    EXPECT_EQ(back.dramSchedPicks, 0u);
    EXPECT_TRUE(back.stageSeconds.empty());
}

} // namespace
} // namespace mask

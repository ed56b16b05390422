/**
 * @file
 * Unit tests for the binary StateCodec (common/state_codec.{hh,cc}):
 * bit-exact round trips of varint, zigzag and raw-double fields at
 * their edges, one rejection case per malformed-encoding rule
 * (including values wider than the field they restore), a payload
 * fuzz over a real snapshot, and the pinned wire format. The fuzz
 * re-computes the header checksum after every mutation, so the
 * bounds-checked decoder — not the checksum — is what must cope; it
 * also runs under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/memreq.hh"
#include "common/state_codec.hh"
#include "common/file_io.hh"
#include "sim/gpu.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

/** Expect decoding @p payload via @p read to throw; return the error. */
template <typename Fn>
SnapshotError
expectReject(const std::string &payload, Fn &&read)
{
    StateReader r(payload);
    try {
        read(r);
        r.finish();
    } catch (const SnapshotError &err) {
        return err;
    }
    ADD_FAILURE() << "malformed payload was accepted";
    return SnapshotError("", "", SnapshotError::kNoCycle);
}

bool
contains(const std::string &haystack, const char *needle)
{
    return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

TEST(StateCodec, UnsignedRoundTripsAtVarintEdges)
{
    const std::vector<std::uint64_t> values = {
        0, 1, 127, 128, 16383, 16384, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()};
    StateWriter w;
    for (const std::uint64_t v : values)
        w.u(v);
    StateReader r(w.str());
    for (const std::uint64_t v : values)
        EXPECT_EQ(r.u(), v);
    r.finish();

    // LEB128 lengths: 7 payload bits per byte.
    const auto size_of = [](std::uint64_t v) {
        StateWriter sw;
        sw.u(v);
        return sw.str().size();
    };
    EXPECT_EQ(size_of(0), 1u);
    EXPECT_EQ(size_of(127), 1u);
    EXPECT_EQ(size_of(128), 2u);
    EXPECT_EQ(size_of(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(StateCodec, SignedRoundTripsThroughZigzag)
{
    const std::vector<std::int64_t> values = {
        0, -1, 1, -64, 64, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()};
    StateWriter w;
    for (const std::int64_t v : values)
        w.i(v);
    StateReader r(w.str());
    for (const std::int64_t v : values)
        EXPECT_EQ(r.i(), v);
    r.finish();

    StateWriter small;
    small.i(-1);
    EXPECT_EQ(small.str().size(), 1u) << "small negatives stay short";
}

TEST(StateCodec, DoublesRoundTripBitExactly)
{
    const std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::bit_cast<double>(std::uint64_t{0x7ff4000000c0ffeeull}),
        std::bit_cast<double>(std::uint64_t{0xfff8000000000001ull}),
        std::numeric_limits<double>::denorm_min(),
        std::bit_cast<double>(std::uint64_t{0x000fffffffffffffull}),
        1.0 / 3.0};
    StateWriter w;
    for (const double v : values)
        w.d(v);
    EXPECT_EQ(w.str().size(), 8 * values.size());
    StateReader r(w.str());
    for (const double v : values)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.d()),
                  std::bit_cast<std::uint64_t>(v));
    r.finish();
}

TEST(StateCodec, DoubleIsLittleEndianBitPattern)
{
    StateWriter w;
    w.d(std::bit_cast<double>(std::uint64_t{0x0102030405060708ull}));
    EXPECT_EQ(w.str(), std::string("\x08\x07\x06\x05\x04\x03\x02\x01"));
}

TEST(StateCodec, MixedFieldsTagsAndStringsRoundTrip)
{
    const std::string blob("raw\0bytes with / and \xff", 22);
    StateWriter w;
    w.tag("comp");
    w.u(300);
    w.b(true);
    w.b(false);
    w.s(blob);
    w.s("");
    w.tag("next");
    w.i(-5);
    StateReader r(w.str());
    r.tag("comp");
    EXPECT_EQ(r.u(), 300u);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.s(), blob);
    EXPECT_EQ(r.s(), "");
    r.tag("next");
    EXPECT_EQ(r.i(), -5);
    r.finish();
}

// ---------------------------------------------------------------------
// Rejection: one case per malformed-encoding rule
// ---------------------------------------------------------------------

TEST(StateCodecReject, ElevenByteVarint)
{
    const std::string payload = std::string(10, '\x80') + '\x00';
    const SnapshotError err =
        expectReject(payload, [](StateReader &r) { r.u(); });
    EXPECT_TRUE(contains(err.reason(), "longer than 10 bytes"))
        << err.reason();
}

TEST(StateCodecReject, TenthByteOverflowsSixtyFourBits)
{
    const std::string payload = std::string(9, '\xff') + '\x02';
    const SnapshotError err =
        expectReject(payload, [](StateReader &r) { r.u(); });
    EXPECT_TRUE(contains(err.reason(), "overflows 64 bits"))
        << err.reason();
}

TEST(StateCodecReject, TruncatedVarint)
{
    const SnapshotError err =
        expectReject("\x80\x80", [](StateReader &r) { r.u(); });
    EXPECT_TRUE(contains(err.reason(), "payload truncated"))
        << err.reason();
}

TEST(StateCodecReject, TruncatedDouble)
{
    StateWriter w;
    w.d(1.5);
    const std::string payload = w.str().substr(0, 7);
    const SnapshotError err =
        expectReject(payload, [](StateReader &r) { r.d(); });
    EXPECT_TRUE(contains(err.reason(), "payload truncated"))
        << err.reason();
}

TEST(StateCodecReject, StringLengthPastEnd)
{
    StateWriter w;
    w.s("abcdef");
    const std::string payload = w.str().substr(0, 4);
    const SnapshotError err =
        expectReject(payload, [](StateReader &r) { r.s(); });
    EXPECT_TRUE(contains(err.reason(), "payload truncated"))
        << err.reason();
}

TEST(StateCodecReject, CountAboveBound)
{
    StateWriter w;
    w.u(5);
    w.u(1);
    w.u(2);
    w.u(3);
    w.u(4);
    w.u(5);
    const SnapshotError err = expectReject(
        w.str(), [](StateReader &r) { r.count(4); });
    EXPECT_TRUE(contains(err.reason(), "exceeds bound")) << err.reason();
}

TEST(StateCodecReject, CountAboveRemainingBytes)
{
    StateWriter w;
    w.u(4);
    w.u(1);
    w.u(2);
    w.u(3);
    const SnapshotError err = expectReject(
        w.str(), [](StateReader &r) { r.count(kMaxSeqItems); });
    EXPECT_TRUE(contains(err.reason(), "exceeds remaining payload"))
        << err.reason();
}

TEST(StateCodecReject, WrongTagName)
{
    StateWriter w;
    w.tag("dram");
    const SnapshotError err =
        expectReject(w.str(), [](StateReader &r) { r.tag("drum"); });
    EXPECT_TRUE(contains(err.reason(), "expected field marker '/drum'"))
        << err.reason();
    EXPECT_TRUE(contains(err.reason(), "'/dram'")) << err.reason();
}

TEST(StateCodecReject, TagWithWrongLength)
{
    StateWriter w;
    w.tag("dram");
    std::string payload = w.str();
    payload[1] = 3; // "/", len 3, "dra" + stray 'm'
    const SnapshotError err =
        expectReject(payload, [](StateReader &r) { r.tag("dram"); });
    EXPECT_TRUE(contains(err.reason(), "expected field marker"))
        << err.reason();
}

TEST(StateCodecReject, BooleanOfTwo)
{
    StateWriter w;
    w.u(2);
    const SnapshotError err =
        expectReject(w.str(), [](StateReader &r) { r.b(); });
    EXPECT_TRUE(contains(err.reason(), "malformed boolean"))
        << err.reason();
}

TEST(StateCodecReject, TrailingBytes)
{
    StateWriter w;
    w.u(7);
    w.u(8);
    const SnapshotError err =
        expectReject(w.str(), [](StateReader &r) { r.u(); });
    EXPECT_TRUE(contains(err.reason(), "trailing bytes")) << err.reason();
}

TEST(StateCodecReject, ErrorNamesLastTag)
{
    StateWriter w;
    w.tag("tlb");
    const SnapshotError err = expectReject(w.str(), [](StateReader &r) {
        r.tag("tlb");
        r.u();
    });
    EXPECT_EQ(err.field(), "tlb");
}

// A payload with a valid checksum can still carry a value wider than
// the field it restores; the typed reads reject it instead of
// truncating it.

TEST(StateCodecReject, RequestAsidWiderThanSixteenBits)
{
    // A complete, otherwise well-formed record: only asid is wrong.
    StateWriter w;
    w.tag("req");
    w.u(0x1000); // paddr
    w.u(65537);  // asid: 2^16 + 1
    for (int k = 0; k < 7; ++k)
        w.u(0); // app, core, warp, type, origin, pwLevel, walkId
    for (int k = 0; k < 4; ++k)
        w.b(false); // bypassL2, mshrPrimary, l2StatsCounted, live
    w.s("dram");
    w.u(10); // issueCycle
    w.u(20); // dramEnqueueCycle
    const SnapshotError err = expectReject(w.str(), [](StateReader &r) {
        MemRequest req;
        r.obj(req);
    });
    EXPECT_TRUE(contains(err.reason(), "does not fit the 16-bit field"))
        << err.reason();
    EXPECT_EQ(err.field(), "req");
}

TEST(StateCodecReject, UintSeqElementWiderThanItsType)
{
    StateWriter w;
    w.uintSeq(std::vector<std::uint32_t>{1, 70000});
    const SnapshotError err = expectReject(w.str(), [](StateReader &r) {
        std::vector<std::uint16_t> v;
        r.uintSeq(v);
    });
    EXPECT_TRUE(contains(err.reason(), "70000 does not fit the 16-bit"))
        << err.reason();
}

TEST(StateCodecReject, SignedValueOutsideItsType)
{
    StateWriter w;
    w.i(std::int64_t{1} << 40);
    const SnapshotError err = expectReject(w.str(), [](StateReader &r) {
        int v = 0;
        r.i(v);
    });
    EXPECT_TRUE(contains(err.reason(), "does not fit the 32-bit field"))
        << err.reason();
}

TEST(StateCodec, EnumsTravelAsTheirUnderlyingValue)
{
    StateWriter w;
    w.u(ReqType::Translation);
    w.u(std::uint64_t{256});
    StateReader r(w.str());
    ReqType t = ReqType::Data;
    r.u(t);
    EXPECT_EQ(t, ReqType::Translation);
    try {
        r.u(t);
        ADD_FAILURE() << "256 fits no 8-bit enum";
    } catch (const SnapshotError &err) {
        EXPECT_TRUE(contains(err.reason(), "does not fit the 8-bit field"))
            << err.reason();
    }
}

// ---------------------------------------------------------------------
// Payload fuzz over a real snapshot
// ---------------------------------------------------------------------

GpuConfig
fuzzConfig()
{
    GpuConfig cfg = applyDesignPoint(GpuConfig{}, DesignPoint::Mask);
    cfg.numCores = 4;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    return cfg;
}

std::unique_ptr<Gpu>
fuzzGpu(const GpuConfig &cfg)
{
    const WorkloadPair &pair = workloadPairs().front();
    return std::make_unique<Gpu>(
        cfg, std::vector<AppDesc>{AppDesc{&findBenchmark(pair.first)},
                                  AppDesc{&findBenchmark(pair.second)}});
}

class StateCodecFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_ = fuzzConfig();
        fp_ = configFingerprint(cfg_);
        auto gpu = fuzzGpu(cfg_);
        gpu->run(2500);
        const std::string image = renderSnapshot(fp_, *gpu);
        const std::size_t nl = image.find('\n');
        ASSERT_NE(nl, std::string::npos);
        payload_ = image.substr(nl + 1);
    }

    /** Snapshot image around @p payload with a valid header. */
    std::string
    imageFor(const std::string &payload) const
    {
        return "MASKSNAP " + std::to_string(kSnapshotVersion) + " " +
               std::to_string(fp_) + " 2500 " +
               std::to_string(payload.size()) + " " +
               std::to_string(fnv1a64(payload)) + "\n" + payload;
    }

    /** Restore @p payload into a fresh Gpu: true if it decoded,
     *  false on SnapshotError; any other outcome fails the test. */
    bool
    decodes(const std::string &payload) const
    {
        const std::string image = imageFor(payload);
        auto gpu = fuzzGpu(cfg_);
        try {
            std::uint64_t cycle = 0;
            StateReader reader(validateSnapshotImage(image, fp_, &cycle),
                               cycle);
            gpu->deserialize(reader);
        } catch (const SnapshotError &) {
            return false;
        }
        return true;
    }

    GpuConfig cfg_;
    std::uint64_t fp_ = 0;
    std::string payload_;
};

TEST_F(StateCodecFuzz, IntactPayloadDecodes)
{
    EXPECT_TRUE(decodes(payload_));
}

TEST_F(StateCodecFuzz, EveryTruncationIsRejected)
{
    for (std::size_t len = 0; len < payload_.size(); len += 97)
        EXPECT_FALSE(decodes(payload_.substr(0, len))) << "prefix " << len;
}

TEST_F(StateCodecFuzz, RandomByteCorruptionNeverCrashes)
{
    std::mt19937_64 rng(0x5EEDC0DEull);
    int rejected = 0;
    for (int iter = 0; iter < 200; ++iter) {
        std::string bad = payload_;
        const std::size_t pos = rng() % bad.size();
        bad[pos] = static_cast<char>(bad[pos] ^
                                     static_cast<char>(rng() % 255 + 1));
        if (!decodes(bad))
            ++rejected;
    }
    // A flipped value byte may still decode; a flipped tag, length or
    // count byte is caught. Either way: no crash, no UB.
    EXPECT_GT(rejected, 0);
}

// The wire format, pinned: the fuzz pair's 2500-cycle snapshot
// payload and a PairResult blob of a short shared run. A deliberate
// format or model change updates these constants, together with
// kSnapshotVersion (snapshots) or the blob prefix (journal entries).
TEST_F(StateCodecFuzz, WireFormatIsPinned)
{
    EXPECT_EQ(kSnapshotVersion, 3u);
    EXPECT_EQ(payload_.size(), 25886u);
    EXPECT_EQ(fnv1a64(payload_), 0x2dfe5c0e86f207c6ull);

    const WorkloadPair &pair = workloadPairs().front();
    Evaluator eval(RunOptions{2000, 3000});
    PairResult result;
    result.stats =
        eval.runShared(cfg_, DesignPoint::Mask, {pair.first, pair.second});
    result.sharedIpc = result.stats.ipc;
    const std::string blob = encodePairResult(result);
    EXPECT_EQ(blob.rfind("v4 ", 0), 0u);
    EXPECT_EQ(blob.size(), 615u);
    EXPECT_EQ(fnv1a64(blob), 0xd7689d3e7d2d5d60ull);
}

} // namespace
} // namespace mask

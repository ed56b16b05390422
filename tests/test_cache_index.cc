/**
 * @file
 * Differential test of SetAssocCache against a plain-scan reference.
 *
 * SetAssocCache keeps a key -> line index and per-set recency lists
 * for sets of kIndexedWays ways or more, and scans tags below that.
 * ScanCache below is the straightforward true-LRU directory the index
 * must agree with: one record per way, every probe a scan of the set,
 * the victim the first invalid way in the fill range or else the way
 * with the smallest stamp. Random streams of lookups, fills,
 * partial-range fills, erases, predicate flushes, full flushes and
 * snapshot round trips drive both; every hit, every evicted key, the
 * occupancy and the LRU depth of every live key must match.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/state_codec.hh"

namespace mask {
namespace {

/** The reference: a scan over one record per way. */
class ScanCache
{
  public:
    ScanCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {}

    bool
    lookup(std::uint64_t key, std::uint64_t *payload)
    {
        Line *line = find(key);
        if (line == nullptr)
            return false;
        line->stamp = ++clock_;
        *payload = line->payload;
        return true;
    }

    bool
    fillRange(std::uint64_t key, std::uint64_t payload,
              std::uint32_t lo, std::uint32_t hi, std::uint64_t *evicted)
    {
        if (Line *line = find(key)) {
            line->payload = payload;
            line->stamp = ++clock_;
            return false;
        }
        Line *set = &lines_[setOf(key) * ways_];
        Line *victim = nullptr;
        for (std::uint32_t w = lo; w < hi; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (victim == nullptr || set[w].stamp < victim->stamp)
                victim = &set[w];
        }
        const bool displaced = victim->valid;
        if (displaced)
            *evicted = victim->key;
        *victim = Line{key, payload, ++clock_, true};
        return displaced;
    }

    bool
    erase(std::uint64_t key)
    {
        Line *line = find(key);
        if (line == nullptr)
            return false;
        line->valid = false;
        return true;
    }

    template <typename Pred>
    void
    flushIf(Pred pred)
    {
        for (Line &line : lines_) {
            if (line.valid && pred(line.key))
                line.valid = false;
        }
    }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const Line &line : lines_)
            n += line.valid ? 1 : 0;
        return n;
    }

    int
    lruDepth(std::uint64_t key)
    {
        const Line *target = find(key);
        if (target == nullptr)
            return -1;
        const Line *set = &lines_[setOf(key) * ways_];
        int depth = 0;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].stamp > target->stamp)
                ++depth;
        }
        return depth;
    }

  private:
    struct Line
    {
        std::uint64_t key = 0;
        std::uint64_t payload = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    std::uint32_t setOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(key) & (sets_ - 1);
    }

    Line *
    find(std::uint64_t key)
    {
        Line *set = &lines_[setOf(key) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].key == key)
                return &set[w];
        }
        return nullptr;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<Line> lines_;
};

std::string
imageOf(const SetAssocCache &cache)
{
    StateWriter w;
    w.obj(cache);
    return w.take();
}

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

class CacheIndexDiff : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheIndexDiff, RandomStreamsMatchScanReference)
{
    const Geometry g = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 1000003 + g.sets * 131 + g.ways);
        SetAssocCache cache(g.sets, g.ways);
        ScanCache ref(g.sets, g.ways);
        // A key space ~3x the capacity: plenty of hits and evictions.
        const std::uint64_t keys = 3ull * g.sets * g.ways;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t key = rng.below(keys) + (seed << 40);
            const std::uint32_t kind = rng.below(100);
            SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                         std::to_string(op));
            if (kind < 40) {
                std::uint64_t got = 0, want = 0;
                ASSERT_EQ(cache.lookup(key, &got), ref.lookup(key, &want));
                ASSERT_EQ(got, want);
            } else if (kind < 75) {
                std::uint64_t got = ~0ull, want = ~0ull;
                const std::uint64_t payload = rng.next();
                ASSERT_EQ(cache.fill(key, payload, &got),
                          ref.fillRange(key, payload, 0, g.ways, &want));
                ASSERT_EQ(got, want);
            } else if (kind < 85) {
                // A Static-style partial-range fill.
                const std::uint32_t lo = rng.below(g.ways);
                const std::uint32_t hi = lo + 1 + rng.below(g.ways - lo);
                std::uint64_t got = ~0ull, want = ~0ull;
                ASSERT_EQ(cache.fillRange(key, op, lo, hi, &got),
                          ref.fillRange(key, op, lo, hi, &want));
                ASSERT_EQ(got, want);
            } else if (kind < 93) {
                ASSERT_EQ(cache.erase(key), ref.erase(key));
            } else if (kind < 96) {
                const std::uint64_t mod = 2 + rng.below(5);
                const auto pred = [mod](std::uint64_t k) {
                    return k % mod == 0;
                };
                cache.flushIf(pred);
                ref.flushIf(pred);
            } else if (kind < 97) {
                cache.flush();
                ref.flushIf([](std::uint64_t) { return true; });
            } else {
                // Snapshot round trip: continue on the restored copy,
                // which must re-serialize to the same bytes.
                const std::string image = imageOf(cache);
                SetAssocCache restored(g.sets, g.ways);
                StateReader r(image);
                r.obj(restored);
                r.finish();
                ASSERT_EQ(imageOf(restored), image);
                cache = restored;
            }
            ASSERT_EQ(cache.occupancy(), ref.occupancy());
            if (op % 97 == 0) {
                for (std::uint64_t k = 0; k < keys; ++k) {
                    const std::uint64_t probe = k + (seed << 40);
                    ASSERT_EQ(cache.lruDepth(probe), ref.lruDepth(probe))
                        << "key " << probe;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheIndexDiff,
    ::testing::Values(Geometry{1, 64},  // Table 1 L1 TLB (indexed)
                      Geometry{1, 32},  // bypass cache (indexed)
                      Geometry{4, 48},  // multi-set, indexed
                      Geometry{1, 31},  // just below the index cutoff
                      Geometry{16, 4},  // L1D-like scan
                      Geometry{8, 16}), // L2-like scan
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::to_string(info.param.sets) + "x" +
               std::to_string(info.param.ways);
    });

TEST(CacheIndex, IndexedGeometriesStartAtTheCutoff)
{
    EXPECT_TRUE(SetAssocCache(1, SetAssocCache::kIndexedWays).indexed());
    EXPECT_FALSE(
        SetAssocCache(1, SetAssocCache::kIndexedWays - 1).indexed());
}

} // namespace
} // namespace mask

/**
 * @file
 * Generic set-associative cache directory with true-LRU replacement.
 *
 * This models presence/replacement only (no data payload beyond one
 * 64-bit value); timing is layered separately via BankedPipe. The same
 * class backs the L1 data caches, the shared L2 data cache, the page
 * walk cache, and both TLB levels.
 */

#ifndef MASK_CACHE_CACHE_HH
#define MASK_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/state_codec.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mask {

/**
 * Set-associative directory of 64-bit keys with a 64-bit payload and
 * true-LRU replacement. The number of sets must be a power of two;
 * ways may be anything (1 set x N ways gives a fully-associative
 * structure).
 *
 * To support the Static baseline's fixed partitioning, fills can be
 * restricted to a contiguous way range per application while probes
 * always search the whole set.
 */
class SetAssocCache
{
  public:
    SetAssocCache(std::uint32_t sets, std::uint32_t ways);

    /** Look up without touching LRU state. */
    bool contains(std::uint64_t key) const;

    /**
     * Look up and update LRU on hit. Returns true on hit; on hit and
     * @p payload non-null, writes the stored payload.
     */
    bool lookup(std::uint64_t key, std::uint64_t *payload = nullptr);

    /**
     * Insert (or refresh) a mapping, evicting the LRU way of the set
     * if needed. Returns the evicted key via @p evicted (and true)
     * when a valid entry was displaced.
     */
    bool fill(std::uint64_t key, std::uint64_t payload = 0,
              std::uint64_t *evicted = nullptr);

    /** Fill restricted to ways [way_lo, way_hi) of the set. */
    bool fillRange(std::uint64_t key, std::uint64_t payload,
                   std::uint32_t way_lo, std::uint32_t way_hi,
                   std::uint64_t *evicted = nullptr);

    /** Remove one key; returns true if it was present. */
    bool erase(std::uint64_t key);

    /** Invalidate everything. */
    void flush();

    /** Invalidate all entries whose key satisfies @p pred. */
    void flushIf(const std::function<bool(std::uint64_t)> &pred);

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t occupancy() const { return occupancy_; }

    /**
     * LRU position of @p key within its set: 0 = MRU. Returns -1 when
     * absent. For replacement-order property tests.
     */
    int lruDepth(std::uint64_t key) const;

    /** Snapshot the full directory, including LRU timestamps. */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    struct Line
    {
        std::uint64_t key = 0;
        std::uint64_t payload = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t setIndex(std::uint64_t key) const;
    Line *findLine(std::uint64_t key);
    const Line *findLine(std::uint64_t key) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t occupancy_ = 0;
    std::vector<Line> lines_; //!< sets_ x ways_, row-major
};

} // namespace mask

#endif // MASK_CACHE_CACHE_HH

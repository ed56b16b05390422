/**
 * @file
 * Generic set-associative cache directory with true-LRU replacement.
 *
 * This models presence/replacement only (no data payload beyond one
 * 64-bit value); timing is layered separately via BankedPipe. The same
 * class backs the L1 data caches, the shared L2 data cache, the page
 * walk cache, both TLB levels and the TLB bypass cache.
 */

#ifndef MASK_CACHE_CACHE_HH
#define MASK_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_table.hh"
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
 *
 * Tags, LRU stamps and payloads live in separate arrays so a probe
 * scans only the set's tags. A line is valid exactly when its stamp
 * is nonzero (stamps come from a clock that starts at 1). Sets of at
 * least kIndexedWays ways — the fully-associative 64-entry L1 TLB and
 * 32-entry bypass cache of the paper's configuration — would scan
 * dozens of tags per probe, so they also keep a key -> line index and
 * a per-set recency list (LRU first): a probe is one hash lookup and a
 * full-range fill takes the list head as its victim. The victim is the
 * one the scan picks — the first invalid way, otherwise the smallest
 * stamp — because stamps are unique and the list is in stamp order.
 * Partial-range fills (the Static baseline) keep the scan.
 */
class SetAssocCache
{
  public:
    /** Ways per set from which the index and recency list are kept. */
    static constexpr std::uint32_t kIndexedWays = 32;

    SetAssocCache(std::uint32_t sets, std::uint32_t ways);

    /** Look up without touching LRU state. */
    bool contains(std::uint64_t key) const
    {
        return findLine(key) != kNil;
    }

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
              std::uint64_t *evicted = nullptr)
    {
        return fillRange(key, payload, 0, ways_, evicted);
    }

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
    /** True when this geometry keeps the index and recency list. */
    bool indexed() const { return indexed_; }

    /**
     * LRU position of @p key within its set: 0 = MRU. Returns -1 when
     * absent. For replacement-order property tests.
     */
    int lruDepth(std::uint64_t key) const;

    /** Snapshot the full directory, including LRU timestamps; the
     *  index and recency lists are rebuilt from them on restore. */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    std::uint32_t setIndex(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(key) & (sets_ - 1);
    }
    bool valid(std::uint32_t line) const { return stamp_[line] != 0; }
    /** Line holding @p key, or kNil. */
    std::uint32_t findLine(std::uint64_t key) const;
    /** Make a valid line the most recently used of its set. */
    void touch(std::uint32_t line);
    /** Drop a valid line (index, recency list, occupancy). */
    void invalidate(std::uint32_t line);

    // Recency list of one set (indexed mode): LRU at the head.
    void listAppend(std::uint32_t set, std::uint32_t line);
    void listUnlink(std::uint32_t set, std::uint32_t line);
    /** Rebuild every recency list from the stamps (restore). */
    void rebuildRecency();

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool indexed_;
    std::uint64_t useClock_ = 0;
    std::uint64_t occupancy_ = 0;
    std::vector<std::uint64_t> keys_;     //!< sets_ x ways_, row-major
    std::vector<std::uint64_t> stamp_;    //!< LRU stamp; 0 = invalid
    std::vector<std::uint64_t> payload_;

    // Indexed mode only (derived state, never serialized).
    FlatTable<std::uint32_t> index_{0}; //!< key -> line
    std::vector<std::uint32_t> prev_, next_; //!< per line
    std::vector<std::uint32_t> head_, tail_; //!< per set
    std::vector<std::uint32_t> setValid_;    //!< valid lines per set
};

} // namespace mask

#endif // MASK_CACHE_CACHE_HH

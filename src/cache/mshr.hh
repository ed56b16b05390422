/**
 * @file
 * Miss-status holding register (MSHR) table for cache-like structures.
 *
 * Outstanding misses are keyed by line/page key; secondary misses to
 * the same key merge into the existing entry and are woken together
 * when the fill arrives. The table is a flat open-addressed map with a
 * pool of recycled waiter vectors, so the allocate/complete cycle on
 * the miss path performs no heap allocation in steady state.
 */

#ifndef MASK_CACHE_MSHR_HH
#define MASK_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/flat_table.hh"
#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/** MSHR table whose waiters are ReqId handles. */
class MshrTable
{
  public:
    explicit MshrTable(std::uint32_t entries);

    enum class Outcome : std::uint8_t {
        Allocated, //!< primary miss; caller must send the fill request
        Merged,    //!< secondary miss; waiter attached to existing entry
        Full,      //!< no entry free; caller must retry later
    };

    /**
     * Record a miss on @p key with @p waiter to wake on fill.
     */
    Outcome allocate(std::uint64_t key, ReqId waiter);

    /** True if a miss on @p key is already outstanding. */
    bool has(std::uint64_t key) const { return table_.contains(key); }

    /**
     * Fill arrived for @p key: returns all waiters (primary first) and
     * frees the entry. Key must be present. The returned vector's
     * storage is recycled into the next allocate once the caller
     * drains it via completeDone().
     */
    std::vector<ReqId> complete(std::uint64_t key);

    /** Return a drained waiter vector's capacity to the pool. */
    void recycle(std::vector<ReqId> &&waiters);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(table_.size());
    }
    std::uint32_t capacity() const { return entries_; }
    std::uint64_t merges() const { return merges_; }
    std::uint64_t rejections() const { return rejections_; }

    /**
     * Account @p n allocate() attempts that were elided because the
     * caller proved they would return Full (the event-gated retry pass
     * advances the rejection counter in closed form so the stats match
     * a per-cycle re-probe bit for bit).
     */
    void addRejections(std::uint64_t n) { rejections_ += n; }

    /** Snapshot outstanding entries and their waiter lists (the
     *  recycled-capacity pool is a pure optimization and is skipped). */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    std::uint32_t entries_;
    FlatTable<std::vector<ReqId>> table_;
    /** Recycled waiter vectors (retain capacity across misses). */
    std::vector<std::vector<ReqId>> pool_;
    std::uint64_t merges_ = 0;
    std::uint64_t rejections_ = 0;
};

} // namespace mask

#endif // MASK_CACHE_MSHR_HH

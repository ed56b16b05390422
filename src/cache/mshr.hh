/**
 * @file
 * Miss-status holding register (MSHR) table for cache-like structures.
 *
 * Outstanding misses are keyed by line/page key; secondary misses to
 * the same key merge into the existing entry and are woken together
 * when the fill arrives. The table is a flat open-addressed map whose
 * entries chain their waiters through one shared node arena with a
 * free list, so the allocate/complete cycle on the miss path performs
 * no heap allocation in steady state and an entry is three integers.
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
     * Fill arrived for @p key: frees the entry, then calls
     * @p fn(ReqId) for each waiter, primary first. Key must be
     * present. @p fn may allocate in this table again.
     */
    template <typename Fn>
    void
    complete(std::uint64_t key, Fn &&fn)
    {
        const Chain chain = take(key);
        for (std::uint32_t n = chain.head; n != kNil; n = nodes_[n].next) {
            const ReqId waiter = nodes_[n].waiter; // fn may grow nodes_
            fn(waiter);
        }
        if (chain.head != kNil) {
            nodes_[chain.tail].next = freeNode_;
            freeNode_ = chain.head;
        }
    }

    /** complete() collecting the waiters (tests, cold paths). */
    std::vector<ReqId> complete(std::uint64_t key);

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

    /** Snapshot outstanding entries and their waiter lists (the node
     *  arena is rebuilt from them on restore). */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** One entry's waiters: a list through nodes_, oldest first. */
    struct Chain
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t count = 0;
    };
    struct Node
    {
        ReqId waiter = 0;
        std::uint32_t next = kNil;
    };

    /** Append @p waiter to @p chain. */
    void append(Chain &chain, ReqId waiter);
    /** Remove @p key's entry (checked) and return its chain. */
    Chain take(std::uint64_t key);

    std::uint32_t entries_;
    FlatTable<Chain> table_;
    std::vector<Node> nodes_;
    std::uint32_t freeNode_ = kNil; //!< free list through Node::next
    std::uint64_t merges_ = 0;
    std::uint64_t rejections_ = 0;
};

} // namespace mask

#endif // MASK_CACHE_MSHR_HH

/**
 * @file
 * Incrementally indexed DRAM request queue (DESIGN.md §12).
 *
 * Replaces the per-cycle O(queue) rescans of the FR-FCFS scheduler
 * with indices maintained at enqueue/dequeue/row-change time, the way
 * Ramulator-style controllers keep their request buffers: a global
 * age list (FIFO order), a per-bank FIFO list, and a per-bank
 * open-row hit chain. Every per-cycle pick then touches O(banks)
 * state instead of O(entries), and `hasRowHit` is a head-pointer
 * test.
 *
 * The structure is observationally identical to scanning the
 * age-ordered vector with frFcfsPick(): the oldest serviceable
 * entry is the minimum sequence number over ready banks'
 * FIFO heads, and the oldest row hit is the minimum over ready banks'
 * hit-chain heads (chains are kept in age order). pickReference()
 * retains the original rescan algorithm over the same storage so the
 * equivalence is enforced by tests and by a MASK_SCHED_REFERENCE=1
 * determinism leg.
 *
 * All index state is derived: serialization writes only the entries
 * in age order (byte-identical to the flat-vector format it
 * replaces), and deserialization rebuilds the links by replaying
 * pushes against the already-restored bank state.
 */

#ifndef MASK_DRAM_BANKED_QUEUE_HH
#define MASK_DRAM_BANKED_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/** Row-buffer and busy state of one DRAM bank. */
struct DramBank
{
    std::uint64_t openRow = 0;
    bool rowValid = false;
    Cycle readyAt = 0;

    void
    serialize(StateWriter &w) const
    {
        w.u(openRow);
        w.b(rowValid);
        w.u(readyAt);
    }

    void
    deserialize(StateReader &r)
    {
        openRow = r.u();
        rowValid = r.b();
        readyAt = r.u();
    }
};

/** An entry in a channel request buffer. */
struct DramQueueEntry
{
    ReqId id = kInvalidReq;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    AppId app = 0;
    ReqType type = ReqType::Data;
    Cycle enqueueCycle = 0;
    std::uint32_t bypassed = 0; //!< times skipped by younger row hits

    void
    serialize(StateWriter &w) const
    {
        w.u(id);
        w.u(bank);
        w.u(row);
        w.u(app);
        w.u(static_cast<std::uint64_t>(type));
        w.u(enqueueCycle);
        w.u(bypassed);
    }

    void
    deserialize(StateReader &r)
    {
        id = static_cast<ReqId>(r.u());
        bank = static_cast<std::uint32_t>(r.u());
        row = r.u();
        app = static_cast<AppId>(r.u());
        type = static_cast<ReqType>(r.u());
        enqueueCycle = r.u();
        bypassed = static_cast<std::uint32_t>(r.u());
    }
};

/** Age-ordered request queue with per-bank FIFO and row-hit indices. */
class BankedRequestQueue
{
  public:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    explicit BankedRequestQueue(std::uint32_t num_banks);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Append @p e (youngest); joins @p e's bank list and, when the
     *  bank's open row matches, its row-hit chain. */
    void push(const DramQueueEntry &e,
              const std::vector<DramBank> &banks);

    /** Unlink @p node from every index and return its entry. */
    DramQueueEntry take(std::uint32_t node);

    DramQueueEntry &entry(std::uint32_t node);
    const DramQueueEntry &entry(std::uint32_t node) const;

    /**
     * FR-FCFS pick over the per-bank indices: node to service, or
     * kNil. Exactly frFcfsPick() on the age-ordered sequence,
     * including the starvation-cap bookkeeping (mutates the oldest
     * serviceable entry's bypass count when a younger row hit wins,
     * escalates into @p cap_escalations past the cap). Adds the
     * number of banks examined to @p scanned when provided.
     */
    std::uint32_t pick(const std::vector<DramBank> &banks, Cycle now,
                       std::uint32_t starvation_cap,
                       std::uint64_t *cap_escalations,
                       std::uint64_t *scanned);

    /**
     * Reference implementation: the original age-list rescan,
     * ignoring the per-bank indices (kept for differential tests and
     * the MASK_SCHED_REFERENCE=1 mode). Adds entries examined to
     * @p scanned.
     */
    std::uint32_t pickReference(const std::vector<DramBank> &banks,
                                Cycle now,
                                std::uint32_t starvation_cap,
                                std::uint64_t *cap_escalations,
                                std::uint64_t *scanned);

    /** Any queued entry hitting @p bank's open row? O(1). */
    bool hasRowHit(std::uint32_t bank) const
    {
        return banks_[bank].hitHead != kNil;
    }

    /** Reference rescan of the age list for the same predicate. */
    bool hasRowHitReference(std::uint32_t bank,
                            const std::vector<DramBank> &banks) const;

    /**
     * Bank @p bank's open row changed (or became valid): rebuild its
     * row-hit chain by walking the bank's FIFO list. Amortized
     * against the service that closed the row.
     */
    void onRowChange(std::uint32_t bank,
                     const std::vector<DramBank> &banks);

    /** Visit entries oldest-first (reference mode, serialization). */
    template <typename Fn>
    void
    forEachAge(Fn &&fn) const
    {
        for (std::uint32_t n = ageHead_; n != kNil;
             n = nodes_[n].ageNext)
            fn(nodes_[n].entry);
    }

    /** Byte-identical to putSeq over the age-ordered entries. */
    void serialize(StateWriter &w) const;

    /** Rebuilds every index; @p banks must already be restored so
     *  the row-hit chains come back correct. */
    void deserialize(StateReader &r,
                     const std::vector<DramBank> &banks);

  private:
    struct Node
    {
        DramQueueEntry entry;
        std::uint64_t seq = 0;
        std::uint32_t agePrev = kNil, ageNext = kNil;
        std::uint32_t bankPrev = kNil, bankNext = kNil;
        std::uint32_t hitPrev = kNil, hitNext = kNil;
        bool inHitChain = false;
    };

    struct BankIndex
    {
        std::uint32_t head = kNil, tail = kNil;     //!< FIFO list
        std::uint32_t hitHead = kNil, hitTail = kNil;
        std::uint32_t count = 0;
    };

    void linkHit(std::uint32_t node, BankIndex &bank);
    void unlinkHit(std::uint32_t node, BankIndex &bank);
    void clear();

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> freeNodes_;
    std::vector<BankIndex> banks_;
    std::uint32_t ageHead_ = kNil, ageTail_ = kNil;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace mask

#endif // MASK_DRAM_BANKED_QUEUE_HH

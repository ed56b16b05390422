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
 * hit-chain heads (chains are kept in age order).
 * tests/test_sched_index.cc drives this queue and a flat vector
 * picked by frFcfsPick() with the same traffic and requires the same
 * decisions, bypass counts, row-hit answers and busy_until bound.
 *
 * All index state is derived: a snapshot holds only the entries in
 * age order (byte-identical to the flat-vector format it replaces),
 * and a restore rebuilds the links by replaying pushes against the
 * already-restored bank state.
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

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.u(self.openRow);
        io.b(self.rowValid);
        io.u(self.readyAt);
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

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.u(self.id);
        io.u(self.bank);
        io.u(self.row);
        io.u(self.app);
        io.u(self.type);
        io.u(self.enqueueCycle);
        io.u(self.bypassed);
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
     * number of banks examined to @p scanned when provided. Lowers
     * @p busy_until, when provided, to the readyAt of every busy bank
     * with queued entries (the earliest cycle a pick can succeed when
     * this one returns kNil).
     */
    std::uint32_t pick(const std::vector<DramBank> &banks, Cycle now,
                       std::uint32_t starvation_cap,
                       std::uint64_t *cap_escalations,
                       std::uint64_t *scanned,
                       Cycle *busy_until = nullptr);

    /** Any queued entry hitting @p bank's open row? O(1). */
    bool hasRowHit(std::uint32_t bank) const
    {
        return banks_[bank].hitHead != kNil;
    }

    /**
     * Bank @p bank's open row changed (or became valid): rebuild its
     * row-hit chain by walking the bank's FIFO list. Amortized
     * against the service that closed the row.
     */
    void onRowChange(std::uint32_t bank,
                     const std::vector<DramBank> &banks);

    /** Visit entries oldest-first (serialization, tests). */
    template <typename Fn>
    void
    forEachAge(Fn &&fn) const
    {
        for (std::uint32_t n = ageHead_; n != kNil;
             n = nodes_[n].ageNext)
            fn(nodes_[n].entry);
    }

    /**
     * The age-ordered entries as a sequence (the flat-vector format
     * this queue replaced). Reading rebuilds every index by replaying
     * pushes; @p banks must already be restored so the row-hit chains
     * come back correct.
     */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io,
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

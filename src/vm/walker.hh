/**
 * @file
 * Shared, highly-threaded page table walker (paper Section 3).
 *
 * The walker tracks walk state machines only; the GPU top level issues
 * the actual PTE fetches into the memory hierarchy (via the page walk
 * cache, the shared L2, or — under MASK's L2 bypass — directly to
 * DRAM) and notifies the walker when each level's read completes.
 */

#ifndef MASK_VM_WALKER_HH
#define MASK_VM_WALKER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "vm/page_table.hh"

namespace mask {

/** Handle for an in-progress page table walk. */
using WalkId = std::uint32_t;

/** Shared multi-threaded page table walker. */
class PageTableWalker
{
  public:
    explicit PageTableWalker(const WalkerConfig &cfg);

    /** Per-walk bookkeeping exposed on completion. */
    struct WalkInfo
    {
        Asid asid = 0;
        Vpn vpn = 0;
        AppId app = 0;
        Cycle startCycle = 0;
    };

    /** True if another walk thread is available. */
    bool hasCapacity() const { return active_ < cfg_.maxConcurrentWalks; }

    /**
     * Begin a walk. @p pte_addrs are the physical addresses of the PTE
     * read at each level, root first (PageTable::walkAddrs).
     * The walk is immediately queued for its level-1 fetch.
     */
    WalkId startWalk(Asid asid, Vpn vpn, AppId app,
                     const std::array<Addr, kPtLevels> &pte_addrs,
                     Cycle now);

    /** True if some walk has a PTE fetch ready to issue. */
    bool hasPendingFetch() const { return !fetchQueue_.empty(); }

    /** Pop the next walk whose current-level fetch should be issued. */
    WalkId popPendingFetch();

    /** Physical address of @p walk's current-level PTE read. */
    Addr fetchAddr(WalkId walk) const;

    /** Page table level (1..4) of @p walk's current fetch. */
    std::uint8_t fetchLevel(WalkId walk) const;

    /**
     * Notify that the current level's PTE data arrived. Advances the
     * walk; returns true if the walk has finished all levels.
     * An unfinished walk is re-queued for its next fetch.
     */
    bool fetchComplete(WalkId walk, Cycle now);

    const WalkInfo &info(WalkId walk) const;

    /** Release a finished walk's slot. */
    void release(WalkId walk);

    /** Walks currently in flight (Fig. 5 metric, ConPTW of Eq. 1). */
    std::uint32_t activeWalks() const { return active_; }

    /** Ids of all in-flight walks in slot order (watchdog sweeps). */
    std::vector<WalkId> activeWalkIds() const;

    /** Walks in flight for one application (ConPTW_i of Eq. 1). */
    std::uint32_t activeWalksFor(AppId app) const;

    /** Total walks started. */
    std::uint64_t walksStarted() const { return started_; }

    /** Completed-walk latency statistics. */
    const RunningStat &walkLatency() const { return walkLatency_; }

    void resetStats() { walkLatency_.reset(); started_ = 0; }

    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    struct Slot
    {
        WalkInfo info;
        std::array<Addr, kPtLevels> pteAddrs{};
        std::uint8_t level = 1; //!< level of the outstanding/next fetch
        bool inUse = false;
    };

    WalkerConfig cfg_;
    std::vector<Slot> slots_;
    std::vector<WalkId> freeSlots_;
    std::deque<WalkId> fetchQueue_;
    std::vector<std::uint32_t> activePerApp_;
    std::uint32_t active_ = 0;
    std::uint64_t started_ = 0;
    RunningStat walkLatency_;
};

} // namespace mask

#endif // MASK_VM_WALKER_HH

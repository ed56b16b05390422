/**
 * @file
 * TLB miss-status holding registers.
 *
 * One entry tracks one outstanding translation (asid, vpn). Warp
 * memory accesses that need the translation park here until the page
 * table walk completes; the entry counts how many warps are stalled,
 * which feeds both the Fig. 6 measurement and the WarpsStalled term of
 * the MASK DRAM scheduler's Equation 1. Entries live in a flat
 * open-addressed table (common/flat_table.hh) keyed by tlbKey — this
 * sits on the per-miss hot path.
 */

#ifndef MASK_TLB_TLB_MSHR_HH
#define MASK_TLB_TLB_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/flat_table.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/tlb.hh"

namespace mask {

/** A warp memory access parked while its translation is outstanding. */
struct StalledAccess
{
    Addr vaddr = 0;
    CoreId core = 0;
    WarpId warp = 0;
    Cycle issueCycle = 0;

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.u(self.vaddr);
        io.u(self.core);
        io.u(self.warp);
        io.u(self.issueCycle);
    }
};

/** Table of outstanding TLB misses keyed by (asid, vpn). */
class TlbMshrTable
{
  public:
    explicit TlbMshrTable(std::uint32_t entries);

    struct Entry
    {
        Asid asid = 0;
        Vpn vpn = 0;
        AppId app = 0;
        std::vector<StalledAccess> waiters;
        /** Peak number of stalled warps (the paper's 6-bit counter). */
        std::uint32_t maxWarpsStalled = 0;
        Cycle firstMissCycle = 0;
        bool walkStarted = false;
        std::uint32_t walkId = 0;
    };

    enum class Outcome : std::uint8_t { Allocated, Merged, Full };

    /**
     * Record a miss for (asid, vpn); the stalled access is parked on
     * the entry. Allocated means the caller must start a page walk.
     */
    Outcome allocate(Asid asid, Vpn vpn, AppId app,
                     const StalledAccess &access, Cycle now);

    bool has(Asid asid, Vpn vpn) const;

    Entry &get(Asid asid, Vpn vpn);

    /**
     * Translation arrived: returns the entry (with all waiters) and
     * frees the slot.
     */
    Entry complete(Asid asid, Vpn vpn);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(table_.size());
    }
    std::uint32_t capacity() const { return entries_; }

    /** Total warps currently stalled across all entries. */
    std::uint32_t stalledWarps() const { return stalledWarps_; }

    /** Visit all outstanding entries (watchdog sweeps). */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        table_.forEach(
            [&fn](std::uint64_t, const Entry &entry) { fn(entry); });
    }

    /** Warps currently stalled for one application. */
    std::uint32_t stalledWarpsFor(AppId app) const;

    /** Mean waiters per completed entry (Fig. 6 series). */
    const RunningStat &warpsPerMiss() const { return warpsPerMiss_; }

    /** Per-application version of warpsPerMiss. */
    const RunningStat &warpsPerMissFor(AppId app);

    void resetStats();

    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    std::uint32_t entries_;
    FlatTable<Entry> table_;
    std::vector<std::uint32_t> stalledPerApp_;
    std::uint32_t stalledWarps_ = 0;
    RunningStat warpsPerMiss_;
    std::vector<RunningStat> warpsPerMissPerApp_;
};

} // namespace mask

#endif // MASK_TLB_TLB_MSHR_HH

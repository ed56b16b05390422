/**
 * @file
 * Forward-progress watchdog (DESIGN.md §6 invariants at runtime).
 *
 * Registered with the GPU top level, the watchdog sweeps every
 * in-flight structure on a configurable interval: the global request
 * pool (which covers DRAM queues, L2 MSHR waiters, and retry queues —
 * every request below the L1 structures is pool-live), the TLB MSHRs,
 * the page table walker slots, the DRAM queue occupancy bounds, and
 * the per-application token counts. Anything older than
 * WatchdogConfig::maxAge trips a SimInvariantError carrying the full
 * stuck-request chain (TLB miss -> walk -> outstanding PTE fetch).
 */

#ifndef MASK_SIM_WATCHDOG_HH
#define MASK_SIM_WATCHDOG_HH

#include <cstdint>

#include "common/config.hh"
#include "common/memreq.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "mask/tokens.hh"
#include "tlb/tlb_mshr.hh"
#include "vm/walker.hh"

namespace mask {

/** Everything one sweep inspects; borrowed for the call only. */
struct WatchdogView
{
    const RequestPool *pool = nullptr;
    const TlbMshrTable *tlbMshr = nullptr;
    const PageTableWalker *walker = nullptr;
    const Dram *dram = nullptr;
    const TokenManager *tokens = nullptr;
    std::uint32_t numApps = 0;
    std::uint32_t warpsPerApp = 0;
    bool tokensEnabled = false;
};

class Watchdog
{
  public:
    explicit Watchdog(const WatchdogConfig &cfg) : cfg_(cfg) {}

    /** True when a sweep is due at @p now. */
    bool
    due(Cycle now) const
    {
        return cfg_.enabled && cfg_.sweepInterval > 0 &&
               now >= nextSweep_;
    }

    /**
     * Inspect every structure in @p view; throws SimInvariantError on
     * the first stuck item or violated bound.
     */
    void sweep(Cycle now, const WatchdogView &view);

    std::uint64_t sweeps() const { return sweepsDone_; }

    /** Oldest in-flight age (cycles) observed across all sweeps. */
    Cycle maxAgeSeen() const { return maxAgeSeen_; }

    void
    resetStats()
    {
        sweepsDone_ = 0;
        maxAgeSeen_ = 0;
    }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("wdog");
        io.u(self.nextSweep_);
        io.u(self.sweepsDone_);
        io.u(self.maxAgeSeen_);
    }

  private:
    void sweepPool(Cycle now, const WatchdogView &view);
    void sweepTlbMshr(Cycle now, const WatchdogView &view);
    void sweepWalker(Cycle now, const WatchdogView &view);
    void sweepDram(Cycle now, const WatchdogView &view);
    void sweepTokens(Cycle now, const WatchdogView &view);

    void noteAge(Cycle age)
    {
        if (age > maxAgeSeen_)
            maxAgeSeen_ = age;
    }

    WatchdogConfig cfg_;
    Cycle nextSweep_ = 0;
    std::uint64_t sweepsDone_ = 0;
    Cycle maxAgeSeen_ = 0;
};

} // namespace mask

#endif // MASK_SIM_WATCHDOG_HH

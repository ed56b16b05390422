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

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/memreq.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "mask/tokens.hh"
#include "sim/cancel.hh"
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

/**
 * Wall-clock companion to the simulated-cycle watchdog: one monitor
 * thread tracks the deadlines of in-flight sweep jobs and cancels the
 * CancelToken of any job that overruns its budget
 * (MASK_SWEEP_TIMEOUT_MS). The cancelled job unwinds at its next
 * pollCancellation() and the sweep engine records it as TimedOut
 * instead of blocking the pool forever.
 */
class DeadlineMonitor
{
  public:
    DeadlineMonitor();
    ~DeadlineMonitor();

    DeadlineMonitor(const DeadlineMonitor &) = delete;
    DeadlineMonitor &operator=(const DeadlineMonitor &) = delete;

    /**
     * Watch @p token: cancel it @p timeout_ms from now unless
     * unwatch() is called first. Returns a handle for unwatch().
     * @p token must outlive the watch (unwatch before destroying it).
     */
    std::uint64_t watch(CancelToken *token, std::uint64_t timeout_ms);

    /** Stop watching @p handle (idempotent). */
    void unwatch(std::uint64_t handle);

    /** Tokens cancelled because their deadline passed. */
    std::uint64_t expired() const;

  private:
    struct Entry
    {
        std::uint64_t id = 0;
        CancelToken *token = nullptr;
        std::chrono::steady_clock::time_point deadline;
        std::uint64_t timeoutMs = 0;
    };

    void loop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Entry> entries_;
    std::uint64_t nextId_ = 1;
    std::uint64_t expired_ = 0;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace mask

#endif // MASK_SIM_WATCHDOG_HH

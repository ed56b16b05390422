/**
 * @file
 * Deterministic fault-injection harness (DESIGN.md "Hardening").
 *
 * Injects the failure modes shared-resource mechanisms are most prone
 * to hide: delayed DRAM responses, dropped-then-retried (or silently
 * lost) page-walk completions, spurious full TLB shootdowns mid-run,
 * and transient shared-TLB port stalls. All decisions come from one
 * RNG stream seeded by (FaultInjectConfig::seed, GpuConfig::seed), so
 * a fault schedule replays bit-identically — the watchdog and the
 * crash-replay flow rely on this.
 *
 * The GPU top level owns the injector and calls the hook methods at
 * well-defined pipeline points; with enabled == false every hook is a
 * constant-false branch and costs nothing on the hot path.
 */

#ifndef MASK_SIM_FAULT_INJECT_HH
#define MASK_SIM_FAULT_INJECT_HH

#include <cstdint>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace mask {

class FaultInjector
{
  public:
    FaultInjector(const FaultInjectConfig &cfg, std::uint64_t gpu_seed);

    bool enabled() const { return cfg_.enabled; }

    /** Extra cycles to hold back a completed DRAM response (0 = none). */
    Cycle dramResponseDelay();

    /** True: drop this returning page-walk PTE fetch. */
    bool dropWalkFetch();

    bool retryDroppedFetch() const { return cfg_.walkDropRetry; }
    Cycle walkRetryDelay() const { return cfg_.walkRetryDelay; }

    /** True when a spurious full shootdown is due this cycle. */
    bool shootdownDue(Cycle now);

    /** Pick the victim app for a spurious shootdown. */
    std::uint32_t pickApp(std::uint32_t num_apps);

    /** True while the shared L2 TLB input port is stalled. */
    bool portStalled(Cycle now);

    // --- Injection counters (tests assert the harness actually fired) ---
    std::uint64_t delaysInjected() const { return delays_; }
    std::uint64_t dropsInjected() const { return drops_; }
    std::uint64_t shootdownsInjected() const { return shootdowns_; }
    std::uint64_t portStallsInjected() const { return portStalls_; }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("faults");
        io.obj(self.rng_);
        io.u(self.nextShootdown_);
        io.u(self.stallUntil_);
        io.u(self.delays_);
        io.u(self.drops_);
        io.u(self.shootdowns_);
        io.u(self.portStalls_);
    }

  private:
    FaultInjectConfig cfg_;
    Rng rng_;
    Cycle nextShootdown_ = 0;
    Cycle stallUntil_ = 0;

    std::uint64_t delays_ = 0;
    std::uint64_t drops_ = 0;
    std::uint64_t shootdowns_ = 0;
    std::uint64_t portStalls_ = 0;
};

} // namespace mask

#endif // MASK_SIM_FAULT_INJECT_HH

/**
 * @file
 * Equation 1 of the paper: the Silver Queue quota controller of the
 * Address-Space-Aware DRAM Scheduler (Section 5.4).
 *
 *   thresh_i = thresh_max * ConPTW_i * WarpsStalled_i
 *              / sum_j ConPTW_j * WarpsStalled_j
 *
 * ConPTW and WarpsStalled are sampled live from the page table walker
 * and the TLB MSHRs; accumulators reset every epoch.
 */

#ifndef MASK_MASK_DRAM_SCHED_HH
#define MASK_MASK_DRAM_SCHED_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "dram/dram.hh"

namespace mask {

/** Silver-queue quota provider implementing Equation 1. */
class SilverQuotaController : public SilverQuotaProvider
{
  public:
    SilverQuotaController(const MaskConfig &cfg, std::uint32_t num_apps);

    /**
     * Add one sample of the live per-application metrics: concurrent
     * page walks and warps stalled on active TLB misses.
     */
    void sample(AppId app, std::uint32_t concurrent_walks,
                std::uint32_t warps_stalled);

    /** thresh_i for @p app from the current accumulators. */
    std::uint32_t silverQuota(AppId app) const override;

    /** Epoch boundary: reset the 6-bit-counter analogs. */
    void onEpoch();

    double pressure(AppId app) const;

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("quota");
        io.seq(self.weight_, [&io](auto &v) { io.d(v); });
    }

  private:
    MaskConfig cfg_;
    std::uint32_t numApps_;
    /** Sum over samples of ConPTW_i * WarpsStalled_i. */
    std::vector<double> weight_;
};

} // namespace mask

#endif // MASK_MASK_DRAM_SCHED_HH

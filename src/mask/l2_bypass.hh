/**
 * @file
 * Address-Translation-Aware L2 Bypass (paper Section 5.3).
 *
 * The shared L2 cache keeps hit-rate counters per page-table level for
 * translation requests and one for data demand requests. A walk read
 * from level L bypasses the L2 (goes straight to DRAM, and does not
 * fill) whenever level L's measured hit rate falls below the data
 * demand hit rate. Bypassed levels still probe occasionally (1 in
 * sampleProbeInterval) so the estimate can track dynamic behaviour.
 */

#ifndef MASK_MASK_L2_BYPASS_HH
#define MASK_MASK_L2_BYPASS_HH

#include <array>
#include <cstdint>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mask {

/** Per-page-table-level L2 bypass decision logic. */
class L2BypassPolicy
{
  public:
    /** Walk levels tracked (1..kMaxLevel); index 0 is data demand. */
    static constexpr std::uint32_t kMaxLevel = 4;

    explicit L2BypassPolicy(const MaskConfig &cfg) : cfg_(cfg) {}

    /**
     * Should a translation request tagged with @p pw_level skip the
     * shared L2 cache? Data requests (level 0) never bypass. Returns
     * false every sampleProbeInterval-th query for an otherwise
     * bypassed level, so that the level keeps producing samples.
     */
    bool shouldBypass(std::uint8_t pw_level);

    /** Record the L2 probe outcome of a request (level 0 = data). */
    void
    recordAccess(std::uint8_t pw_level, bool hit)
    {
        HitMiss &hm = stats_[pw_level];
        if (hit)
            ++hm.hits;
        else
            ++hm.misses;
    }

    /** Measured L2 hit rate for @p pw_level (0 = data demand). */
    double hitRate(std::uint8_t pw_level) const
    {
        return stats_[pw_level].hitRate();
    }

    const HitMiss &stats(std::uint8_t pw_level) const
    {
        return stats_[pw_level];
    }

    /** Epoch boundary: decay history so stale behaviour ages out. */
    void onEpoch();

    std::uint64_t bypasses() const { return bypasses_; }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("l2byp");
        for (auto &hm : self.stats_)
            io.obj(hm);
        for (auto &v : self.probeCountdown_)
            io.u(v);
        io.u(self.bypasses_);
    }

  private:
    MaskConfig cfg_;
    std::array<HitMiss, kMaxLevel + 1> stats_{};
    std::array<std::uint32_t, kMaxLevel + 1> probeCountdown_{};
    std::uint64_t bypasses_ = 0;
};

} // namespace mask

#endif // MASK_MASK_L2_BYPASS_HH

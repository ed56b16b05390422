/**
 * @file
 * TLB-Fill Tokens (paper Section 5.2).
 *
 * Every warp may probe the shared L2 TLB, but only warps holding a
 * token may fill it; fills from token-less warps are redirected to the
 * small TLB bypass cache. The per-application token count adapts every
 * epoch based on the change in that application's shared L2 TLB miss
 * rate.
 */

#ifndef MASK_MASK_TOKENS_HH
#define MASK_MASK_TOKENS_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/** Per-application TLB-fill token allocation controller. */
class TokenManager
{
  public:
    TokenManager(const MaskConfig &cfg, std::uint32_t num_apps,
                 std::uint32_t warps_per_app);

    /**
     * True if the warp with application-wide index @p warp_index (the
     * paper's warp-ID ordering: index = core-within-app x warps/core +
     * warp id) may fill the shared L2 TLB. During the first epoch all
     * warps may fill (Section 6, footnote 6).
     */
    bool mayFill(AppId app, std::uint32_t warp_index) const;

    /**
     * Epoch boundary for one application: adjust its token count from
     * the change in shared L2 TLB miss rate (+/- missRateDelta).
     */
    void onEpoch(AppId app, double l2_tlb_miss_rate);

    std::uint32_t tokens(AppId app) const { return tokens_[app]; }

    /** Epochs completed so far (0 = still in warm-up epoch). */
    std::uint64_t epochsDone() const { return epochsDone_; }

    /** Signal that one full epoch elapsed (after all apps updated). */
    void epochComplete() { ++epochsDone_; }

    /**
     * Direction of the last token adjustment for @p app: -1, 0, +1
     * (the 1-bit direction register of Section 7.4, widened for
     * reporting).
     */
    int lastDirection(AppId app) const { return lastDir_[app]; }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("tokens");
        io.uintSeq(self.tokens_);
        io.seq(self.prevMissRate_, [&io](auto &v) { io.d(v); });
        io.seq(self.havePrev_, [&io](auto &v) { io.b(v); });
        io.seq(self.lastDir_, [&io](auto &v) { io.i(v); });
        io.u(self.epochsDone_);
    }

  private:
    MaskConfig cfg_;
    std::uint32_t warpsPerApp_;
    std::uint32_t step_;
    std::vector<std::uint32_t> tokens_;
    std::vector<double> prevMissRate_;
    std::vector<bool> havePrev_;
    std::vector<int> lastDir_;
    std::uint64_t epochsDone_ = 0;
};

} // namespace mask

#endif // MASK_MASK_TOKENS_HH

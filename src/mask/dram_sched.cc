#include "mask/dram_sched.hh"

#include <cassert>

namespace mask {

SilverQuotaController::SilverQuotaController(const MaskConfig &cfg,
                                             std::uint32_t num_apps)
    : cfg_(cfg), numApps_(num_apps == 0 ? 1 : num_apps)
{
    weight_.assign(numApps_, 0.0);
}

void
SilverQuotaController::sample(AppId app, std::uint32_t concurrent_walks,
                              std::uint32_t warps_stalled)
{
    assert(app < numApps_);
    weight_[app] += static_cast<double>(concurrent_walks) *
                    static_cast<double>(warps_stalled);
}

double
SilverQuotaController::pressure(AppId app) const
{
    return app < numApps_ ? weight_[app] : 0.0;
}

std::uint32_t
SilverQuotaController::silverQuota(AppId app) const
{
    assert(app < numApps_);
    double total = 0.0;
    for (double w : weight_)
        total += w;
    if (total <= 0.0)
        return std::max<std::uint32_t>(1, cfg_.threshMax / numApps_);

    const double share =
        cfg_.threshMax * (weight_[app] / total);
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(share));
}

void
SilverQuotaController::onEpoch()
{
    for (double &w : weight_)
        w = 0.0;
}

} // namespace mask

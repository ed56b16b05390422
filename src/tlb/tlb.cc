#include "tlb/tlb.hh"

namespace mask {

namespace {

/** Sets/ways for a TLB config (ways == 0 means fully associative). */
std::uint32_t
tlbSets(const TlbConfig &cfg)
{
    if (cfg.ways == 0)
        return 1;
    return cfg.entries / cfg.ways;
}

std::uint32_t
tlbWays(const TlbConfig &cfg)
{
    return cfg.ways == 0 ? cfg.entries : cfg.ways;
}

} // namespace

Tlb::Tlb(const TlbConfig &cfg) : cache_(tlbSets(cfg), tlbWays(cfg)) {}

void
Tlb::ensureAsid(Asid asid)
{
    if (asid >= perAsid_.size()) {
        perAsid_.resize(asid + 1);
        epochPerAsid_.resize(asid + 1);
    }
}

bool
Tlb::lookup(Asid asid, Vpn vpn, Pfn *pfn)
{
    ensureAsid(asid);
    std::uint64_t payload = 0;
    const bool hit = cache_.lookup(tlbKey(asid, vpn), &payload);
    if (hit) {
        ++stats_.hits;
        ++epochStats_.hits;
        ++perAsid_[asid].hits;
        ++epochPerAsid_[asid].hits;
        if (pfn != nullptr)
            *pfn = payload;
    } else {
        ++stats_.misses;
        ++epochStats_.misses;
        ++perAsid_[asid].misses;
        ++epochPerAsid_[asid].misses;
    }
    return hit;
}

bool
Tlb::probe(Asid asid, Vpn vpn) const
{
    return cache_.contains(tlbKey(asid, vpn));
}

void
Tlb::fill(Asid asid, Vpn vpn, Pfn pfn)
{
    cache_.fill(tlbKey(asid, vpn), pfn);
}

bool
Tlb::invalidate(Asid asid, Vpn vpn)
{
    return cache_.erase(tlbKey(asid, vpn));
}

void
Tlb::flushAsid(Asid asid)
{
    cache_.flushIf(
        [asid](std::uint64_t key) { return tlbKeyAsid(key) == asid; });
}

void
Tlb::flushAll()
{
    cache_.flush();
}

const HitMiss &
Tlb::statsFor(Asid asid)
{
    ensureAsid(asid);
    return perAsid_[asid];
}

const HitMiss &
Tlb::epochStatsFor(Asid asid)
{
    ensureAsid(asid);
    return epochPerAsid_[asid];
}

void
Tlb::resetEpochStats()
{
    epochStats_.reset();
    for (HitMiss &hm : epochPerAsid_)
        hm.reset();
}

void
Tlb::resetStats()
{
    stats_.reset();
    for (HitMiss &hm : perAsid_)
        hm.reset();
    resetEpochStats();
}

template <typename Self, typename Io>
void
Tlb::state(Self &self, Io &io)
{
    io.tag("tlb");
    io.obj(self.cache_);
    io.obj(self.stats_);
    io.obj(self.epochStats_);
    io.seq(self.perAsid_);
    io.seq(self.epochPerAsid_);
}

MASK_STATE_INSTANTIATE(Tlb);

} // namespace mask

/**
 * @file
 * The TLB bypass cache (paper Section 5.2): a small fully-associative
 * LRU cache that holds translations requested by warps without
 * TLB-fill tokens. Probed in parallel with the shared L2 TLB; a hit in
 * either counts as an L2 TLB hit.
 */

#ifndef MASK_MASK_BYPASS_CACHE_HH
#define MASK_MASK_BYPASS_CACHE_HH

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/tlb.hh"

namespace mask {

/** 32-entry fully-associative PTE cache for token-less fills. */
class TlbBypassCache
{
  public:
    explicit TlbBypassCache(const MaskConfig &cfg)
        : cache_(1, cfg.bypassCacheEntries)
    {}

    /** Translate; counts hit/miss and updates LRU. */
    bool
    lookup(Asid asid, Vpn vpn, Pfn *pfn = nullptr)
    {
        std::uint64_t payload = 0;
        if (cache_.lookup(tlbKey(asid, vpn), &payload)) {
            ++stats_.hits;
            if (pfn != nullptr)
                *pfn = payload;
            return true;
        }
        ++stats_.misses;
        return false;
    }

    bool probe(Asid asid, Vpn vpn) const
    {
        return cache_.contains(tlbKey(asid, vpn));
    }

    void fill(Asid asid, Vpn vpn, Pfn pfn)
    {
        cache_.fill(tlbKey(asid, vpn), pfn);
    }

    /** Flushed whenever a PTE is modified (consistency, Section 5.2). */
    void flush() { cache_.flush(); }

    void flushAsid(Asid asid)
    {
        cache_.flushIf([asid](std::uint64_t key) {
            return tlbKeyAsid(key) == asid;
        });
    }

    const HitMiss &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    std::uint64_t occupancy() const { return cache_.occupancy(); }
    std::uint32_t entries() const { return cache_.numWays(); }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("bypcache");
        io.obj(self.cache_);
        io.obj(self.stats_);
    }

  private:
    SetAssocCache cache_;
    HitMiss stats_;
};

} // namespace mask

#endif // MASK_MASK_BYPASS_CACHE_HH

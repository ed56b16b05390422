/**
 * @file
 * Translation lookaside buffers (L1 per-core and shared L2), tagged
 * with address space identifiers (ASIDs) for multi-application
 * isolation (paper Section 5.1).
 */

#ifndef MASK_TLB_TLB_HH
#define MASK_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mask {

/** Combine (asid, vpn) into one lookup key. */
constexpr std::uint64_t
tlbKey(Asid asid, Vpn vpn)
{
    return (static_cast<std::uint64_t>(asid) << 48) | vpn;
}

/** Extract the ASID from a TLB key. */
constexpr Asid
tlbKeyAsid(std::uint64_t key)
{
    return static_cast<Asid>(key >> 48);
}

/** Extract the VPN from a TLB key. */
constexpr Vpn
tlbKeyVpn(std::uint64_t key)
{
    return key & ((std::uint64_t{1} << 48) - 1);
}

/**
 * A set-associative, LRU, ASID-tagged TLB. Keeps cumulative and
 * epoch-windowed per-ASID hit/miss statistics; the epoch window feeds
 * MASK's TLB-Fill Token controller (Section 5.2).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg);

    /** Translate; counts a hit or miss and updates LRU. */
    bool lookup(Asid asid, Vpn vpn, Pfn *pfn = nullptr);

    /** Presence check without stats or LRU update. */
    bool probe(Asid asid, Vpn vpn) const;

    /** Install a translation. */
    void fill(Asid asid, Vpn vpn, Pfn pfn);

    /** Remove one translation; true if present. */
    bool invalidate(Asid asid, Vpn vpn);

    /** Shootdown of every entry belonging to @p asid (Section 5.1). */
    void flushAsid(Asid asid);

    /** Full flush. */
    void flushAll();

    const HitMiss &stats() const { return stats_; }
    const HitMiss &statsFor(Asid asid);
    const HitMiss &epochStats() const { return epochStats_; }
    const HitMiss &epochStatsFor(Asid asid);
    void resetEpochStats();
    void resetStats();

    std::uint64_t occupancy() const { return cache_.occupancy(); }
    std::uint32_t entries() const
    {
        return cache_.numSets() * cache_.numWays();
    }

    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    /** Grow the per-ASID stat vectors to cover @p asid. */
    void ensureAsid(Asid asid);

    SetAssocCache cache_;
    HitMiss stats_;
    HitMiss epochStats_;
    // Indexed by ASID (small dense integers) — this is the hottest
    // path in the simulator, so no hashing here.
    std::vector<HitMiss> perAsid_;
    std::vector<HitMiss> epochPerAsid_;
};

} // namespace mask

#endif // MASK_TLB_TLB_HH

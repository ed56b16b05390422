#include "common/config.hh"

#include <cstring>
#include <string>

namespace mask {

namespace {

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

void
require(bool ok, const std::string &message)
{
    if (!ok)
        throw ConfigError(message);
}

void
validateCache(const char *name, const CacheConfig &cfg)
{
    const std::string who = name;
    require(cfg.sizeBytes > 0, who + ": sizeBytes must be > 0");
    require(cfg.lineBytes > 0, who + ": lineBytes must be > 0");
    require(isPow2(cfg.lineBytes),
            who + ": lineBytes must be a power of two");
    require(cfg.ways > 0, who + ": ways must be > 0");
    require(cfg.sizeBytes % cfg.lineBytes == 0,
            who + ": sizeBytes must be a multiple of lineBytes");
    require(cfg.numLines() % cfg.ways == 0,
            who + ": line count must be a multiple of ways");
    require(cfg.numSets() > 0, who + ": set count must be > 0");
    require(isPow2(cfg.numSets()),
            who + ": set count must be a power of two (got " +
                std::to_string(cfg.numSets()) + ")");
    require(cfg.banks > 0, who + ": banks must be > 0");
    require(cfg.portsPerBank > 0, who + ": portsPerBank must be > 0");
    require(cfg.mshrs > 0, who + ": mshrs must be > 0");
}

void
validateTlb(const char *name, const TlbConfig &cfg)
{
    const std::string who = name;
    require(cfg.entries > 0, who + ": entries must be > 0");
    if (cfg.ways != 0) {
        require(cfg.entries % cfg.ways == 0,
                who + ": entries must be a multiple of ways");
        require(isPow2(cfg.entries / cfg.ways),
                who + ": set count must be a power of two (got " +
                    std::to_string(cfg.entries / cfg.ways) + ")");
    }
    require(cfg.ports > 0, who + ": ports must be > 0");
    require(cfg.mshrs > 0, who + ": mshrs must be > 0");
}

void
validateProb(const char *name, double p)
{
    require(p >= 0.0 && p <= 1.0,
            std::string(name) + " must be within [0, 1]");
}

} // namespace

void
validateConfig(const GpuConfig &cfg)
{
    require(cfg.numCores > 0, "numCores must be > 0");
    require(cfg.warpsPerCore > 0, "warpsPerCore must be > 0");
    require(cfg.threadsPerWarp > 0, "threadsPerWarp must be > 0");
    require(cfg.lsuWidth > 0, "lsuWidth must be > 0");
    require(cfg.lineBits > 0 && cfg.lineBits < cfg.pageBits,
            "lineBits must be in (0, pageBits)");
    require(cfg.pageBits <= 30, "pageBits must be <= 30");

    validateTlb("l1Tlb", cfg.l1Tlb);
    validateTlb("l2Tlb", cfg.l2Tlb);
    validateCache("pwCache", cfg.pwCache);
    validateCache("l1d", cfg.l1d);
    validateCache("l2", cfg.l2);

    require(cfg.dram.channels > 0, "dram.channels must be > 0");
    require(cfg.dram.banksPerChannel > 0,
            "dram.banksPerChannel must be > 0");
    require(cfg.dram.rowBytes > 0 && isPow2(cfg.dram.rowBytes),
            "dram.rowBytes must be a power of two > 0");
    require(cfg.dram.rowBytes >= cfg.lineBytes(),
            "dram.rowBytes must be >= the cache line size");
    require(cfg.dram.queueEntries > 0, "dram.queueEntries must be > 0");

    require(cfg.walker.maxConcurrentWalks > 0,
            "walker.maxConcurrentWalks must be > 0");
    require(cfg.walker.levels > 0 && cfg.walker.levels <= 4,
            "walker.levels must be in [1, 4]");

    require(cfg.mask.epochCycles > 0, "mask.epochCycles must be > 0");
    require(cfg.mask.initialTokenFraction > 0.0 &&
                cfg.mask.initialTokenFraction <= 1.0,
            "mask.initialTokenFraction must be within (0, 1]");
    require(cfg.mask.tokenStepFraction > 0.0,
            "mask.tokenStepFraction must be > 0");
    require(cfg.mask.bypassCacheEntries > 0,
            "mask.bypassCacheEntries must be > 0");
    require(cfg.mask.sampleProbeInterval > 0,
            "mask.sampleProbeInterval must be > 0");
    require(cfg.mask.goldenQueueEntries > 0,
            "mask.goldenQueueEntries must be > 0");
    require(cfg.mask.silverQueueEntries > 0,
            "mask.silverQueueEntries must be > 0");
    require(cfg.mask.normalQueueEntries > 0,
            "mask.normalQueueEntries must be > 0");
    require(cfg.mask.threshMax > 0, "mask.threshMax must be > 0");

    if (!cfg.coreShares.empty()) {
        std::uint64_t total = 0;
        for (const std::uint32_t share : cfg.coreShares) {
            require(share > 0, "coreShares entries must be > 0");
            total += share;
        }
        require(total == cfg.numCores,
                "coreShares must sum to numCores");
    }

    require(!cfg.harden.watchdog.enabled ||
                cfg.harden.watchdog.maxAge > 0,
            "harden.watchdog.maxAge must be > 0 when enabled");
    const FaultInjectConfig &fault = cfg.harden.fault;
    validateProb("harden.fault.dramDelayProb", fault.dramDelayProb);
    validateProb("harden.fault.walkDropProb", fault.walkDropProb);
    validateProb("harden.fault.portStallProb", fault.portStallProb);
    if (fault.enabled) {
        require(fault.dramDelayProb == 0.0 ||
                    fault.dramDelayCycles > 0,
                "harden.fault.dramDelayCycles must be > 0");
        require(!fault.walkDropRetry || fault.walkDropProb == 0.0 ||
                    fault.walkRetryDelay > 0,
                "harden.fault.walkRetryDelay must be > 0");
        require(fault.portStallProb == 0.0 ||
                    fault.portStallCycles > 0,
                "harden.fault.portStallCycles must be > 0");
    }
}

DesignPoint
designPointByName(const std::string &name)
{
    for (const DesignPoint point : kAllDesignPoints) {
        if (name == designPointName(point))
            return point;
    }
    throw ConfigError("unknown design point name: " + name);
}

const char *
designPointName(DesignPoint point)
{
    switch (point) {
      case DesignPoint::Static:
        return "Static";
      case DesignPoint::PwCache:
        return "PWCache";
      case DesignPoint::SharedTlb:
        return "SharedTLB";
      case DesignPoint::MaskTlb:
        return "MASK-TLB";
      case DesignPoint::MaskCache:
        return "MASK-Cache";
      case DesignPoint::MaskDram:
        return "MASK-DRAM";
      case DesignPoint::Mask:
        return "MASK";
      case DesignPoint::Ideal:
        return "Ideal";
    }
    return "?";
}

GpuConfig
applyDesignPoint(GpuConfig base, DesignPoint point)
{
    base.design = TranslationDesign::SharedTlb;
    // Reset the mechanism selection but preserve any tuning fields
    // (epoch length, queue sizes, guards) the caller customized.
    base.mask.tlbTokens = false;
    base.mask.l2Bypass = false;
    base.mask.dramSched = false;
    base.partition = PartitionConfig{};

    switch (point) {
      case DesignPoint::Static:
        base.partition.partitionL2 = true;
        base.partition.partitionDramChannels = true;
        break;
      case DesignPoint::PwCache:
        base.design = TranslationDesign::PwCache;
        break;
      case DesignPoint::SharedTlb:
        break;
      case DesignPoint::MaskTlb:
        base.mask.tlbTokens = true;
        break;
      case DesignPoint::MaskCache:
        base.mask.l2Bypass = true;
        break;
      case DesignPoint::MaskDram:
        base.mask.dramSched = true;
        break;
      case DesignPoint::Mask:
        base.mask.tlbTokens = true;
        base.mask.l2Bypass = true;
        base.mask.dramSched = true;
        break;
      case DesignPoint::Ideal:
        base.design = TranslationDesign::Ideal;
        break;
    }
    return base;
}

GpuConfig
aloneConfig(const GpuConfig &arch, DesignPoint point, std::uint32_t cores)
{
    GpuConfig cfg = applyDesignPoint(arch, point);
    cfg.numCores = cores;
    cfg.coreShares.clear();
    cfg.partition = PartitionConfig{};
    return cfg;
}

GpuConfig
maxwellConfig()
{
    // Defaults in GpuConfig are the Maxwell-like Table 1 parameters.
    GpuConfig cfg;
    cfg.name = "maxwell";
    return cfg;
}

GpuConfig
fermiConfig()
{
    GpuConfig cfg;
    cfg.name = "fermi";
    // GTX 480: 15 SMs, smaller caches, narrower memory system.
    // 12 ways keeps the 768KB L2 at a power-of-two set count, and the
    // six physical memory controllers are modeled as four channels
    // (the address mapper interleaves with power-of-two masks).
    cfg.numCores = 15;
    cfg.warpsPerCore = 48;
    cfg.l1d = CacheConfig{16384, 128, 4, 1, 1, 1, 32};
    cfg.l2 = CacheConfig{768 * 1024, 128, 12, 10, 8, 2, 128};
    cfg.l2Tlb = TlbConfig{512, 16, 10, 2, 128};
    cfg.dram.channels = 4;
    return cfg;
}

GpuConfig
integratedGpuConfig()
{
    GpuConfig cfg;
    cfg.name = "integrated";
    // Power et al. style integrated GPU: few cores, a single shared
    // memory channel pair, small shared L2.
    cfg.numCores = 16;
    cfg.warpsPerCore = 48;
    cfg.l2 = CacheConfig{1024 * 1024, 128, 16, 10, 8, 2, 128};
    cfg.l2Tlb = TlbConfig{512, 16, 10, 2, 128};
    cfg.dram.channels = 2;
    cfg.dram.banksPerChannel = 8;
    // DDR3-like latencies are longer in core cycles.
    cfg.dram.tRcd = 28;
    cfg.dram.tRp = 28;
    cfg.dram.tCl = 28;
    cfg.dram.tBurst = 8;
    return cfg;
}

namespace {

/** FNV-1a style accumulation with a 64-bit avalanche finish per mix. */
void
mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

void
mixDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(h, bits);
}

void
mixCache(std::uint64_t &h, const CacheConfig &c)
{
    mix(h, c.sizeBytes);
    mix(h, c.lineBytes);
    mix(h, c.ways);
    mix(h, c.latency);
    mix(h, c.banks);
    mix(h, c.portsPerBank);
    mix(h, c.mshrs);
}

void
mixTlb(std::uint64_t &h, const TlbConfig &t)
{
    mix(h, t.entries);
    mix(h, t.ways);
    mix(h, t.latency);
    mix(h, t.ports);
    mix(h, t.mshrs);
}

} // namespace

std::uint64_t
configFingerprint(const GpuConfig &cfg)
{
    // Deliberately excludes cfg.name: benches reuse one name across
    // distinct parameter sets, and the sweep's run keys must never
    // treat those as interchangeable.
    std::uint64_t h = 0x6d61736b2d666e76ull; // "mask-fnv"

    mix(h, cfg.numCores);
    mix(h, cfg.warpsPerCore);
    mix(h, cfg.threadsPerWarp);
    mix(h, cfg.lsuWidth);
    mix(h, cfg.pageBits);
    mix(h, cfg.lineBits);
    mix(h, static_cast<std::uint64_t>(cfg.design));

    mixTlb(h, cfg.l1Tlb);
    mixTlb(h, cfg.l2Tlb);
    mixCache(h, cfg.pwCache);
    mixCache(h, cfg.l1d);
    mixCache(h, cfg.l2);

    mix(h, cfg.dram.channels);
    mix(h, cfg.dram.banksPerChannel);
    mix(h, cfg.dram.rowBytes);
    mix(h, cfg.dram.tRcd);
    mix(h, cfg.dram.tRp);
    mix(h, cfg.dram.tCl);
    mix(h, cfg.dram.tBurst);
    mix(h, cfg.dram.queueEntries);
    mix(h, cfg.dram.starvationCap);

    mix(h, cfg.walker.maxConcurrentWalks);
    mix(h, cfg.walker.levels);

    mix(h, cfg.mask.tlbTokens);
    mix(h, cfg.mask.l2Bypass);
    mix(h, cfg.mask.dramSched);
    mix(h, cfg.mask.epochCycles);
    mixDouble(h, cfg.mask.initialTokenFraction);
    mixDouble(h, cfg.mask.missRateDelta);
    mixDouble(h, cfg.mask.tokenStepFraction);
    mix(h, cfg.mask.bypassCacheEntries);
    mix(h, cfg.mask.minBypassSamples);
    mix(h, cfg.mask.sampleProbeInterval);
    mix(h, cfg.mask.goldenQueueEntries);
    mix(h, cfg.mask.silverQueueEntries);
    mix(h, cfg.mask.normalQueueEntries);
    mix(h, cfg.mask.threshMax);
    mix(h, cfg.mask.goldenMaxDelay);
    mix(h, cfg.mask.silverMaxDelay);

    mix(h, cfg.partition.partitionL2);
    mix(h, cfg.partition.partitionDramChannels);

    mix(h, cfg.harden.watchdog.enabled);
    mix(h, cfg.harden.watchdog.sweepInterval);
    mix(h, cfg.harden.watchdog.maxAge);
    mix(h, cfg.harden.fault.enabled);
    mix(h, cfg.harden.fault.seed);
    mixDouble(h, cfg.harden.fault.dramDelayProb);
    mix(h, cfg.harden.fault.dramDelayCycles);
    mixDouble(h, cfg.harden.fault.walkDropProb);
    mix(h, cfg.harden.fault.walkDropRetry);
    mix(h, cfg.harden.fault.walkRetryDelay);
    mix(h, cfg.harden.fault.shootdownInterval);
    mixDouble(h, cfg.harden.fault.portStallProb);
    mix(h, cfg.harden.fault.portStallCycles);
    mix(h, cfg.harden.poolHighWater);

    mix(h, cfg.coreShares.size());
    for (const std::uint32_t share : cfg.coreShares)
        mix(h, share);

    mix(h, cfg.seed);
    return h;
}

std::uint64_t
warmupFingerprint(const GpuConfig &cfg)
{
    // Every behavioural GpuConfig field affects cycles < warmup (see
    // the classification rules on the declaration), so the warmup
    // fingerprint covers exactly configFingerprint's fields. The
    // seed constant differs so the two hash families can never be
    // confused for one another (a warm snapshot header records THIS
    // fingerprint).
    std::uint64_t h = 0x6d61736b2d77726dull; // "mask-wrm"
    mix(h, configFingerprint(cfg));
    return h;
}

} // namespace mask

/**
 * @file
 * Full simulator configuration: the paper's Table 1 parameters, the
 * MASK mechanism parameters (Sections 5 and 6), and the evaluated
 * design points of Section 7.
 */

#ifndef MASK_COMMON_CONFIG_HH
#define MASK_COMMON_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mask {

/** A rejected configuration (validateConfig). */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what)
        : std::runtime_error("config error: " + what)
    {}
};

/** Parameters of one cache-like structure. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t lineBytes = 128;
    std::uint32_t ways = 4;
    std::uint32_t latency = 1;  //!< access latency in cycles
    std::uint32_t banks = 1;
    std::uint32_t portsPerBank = 1;
    std::uint32_t mshrs = 64;

    std::uint32_t numLines() const { return sizeBytes / lineBytes; }
    std::uint32_t numSets() const { return numLines() / ways; }
};

/** Parameters of one TLB structure. */
struct TlbConfig
{
    std::uint32_t entries = 64;
    std::uint32_t ways = 0;   //!< 0 means fully associative
    std::uint32_t latency = 1;
    std::uint32_t ports = 1;
    std::uint32_t mshrs = 64;
};

/** GDDR5-like DRAM timing, expressed in core clock cycles. */
struct DramConfig
{
    std::uint32_t channels = 8;
    std::uint32_t banksPerChannel = 8;
    std::uint32_t rowBytes = 2048;
    std::uint32_t tRcd = 15;      //!< activate -> column command
    std::uint32_t tRp = 15;       //!< precharge
    std::uint32_t tCl = 15;       //!< column command -> first data
    std::uint32_t tBurst = 2;     //!< data bus occupancy per request
    std::uint32_t queueEntries = 192; //!< per-channel request buffer
    /**
     * FR-FCFS starvation cap: a request older than this many scheduling
     * decisions is serviced regardless of row-hit status, matching the
     * cap conventional controllers use to bound unfairness.
     */
    std::uint32_t starvationCap = 16;
};

/** Page table walker parameters. */
struct WalkerConfig
{
    std::uint32_t maxConcurrentWalks = 64;
    std::uint32_t levels = 4;
};

/** Parameters of the three MASK mechanisms (Section 5). */
struct MaskConfig
{
    bool tlbTokens = false;   //!< TLB-Fill Tokens (Section 5.2)
    bool l2Bypass = false;    //!< Addr-Translation-Aware L2 Bypass (5.3)
    bool dramSched = false;   //!< Addr-Space-Aware DRAM Scheduler (5.4)

    /**
     * Adaptation epoch. The paper uses 100K cycles over runs of
     * hundreds of millions of cycles; our measured windows are
     * ~100-500K cycles, so the default epoch is scaled down
     * proportionally to keep several adaptation rounds per run.
     */
    Cycle epochCycles = 10000;
    double initialTokenFraction = 0.8; //!< InitialTokens (Section 6)
    double missRateDelta = 0.02;       //!< +/-2% token adjust trigger
    /** Tokens added/removed on an epoch adjustment, as a fraction of
     *  the application's total warp count. */
    double tokenStepFraction = 0.05;
    std::uint32_t bypassCacheEntries = 32;
    /** Minimum L2 accesses observed for a walk level before its hit
     *  rate is trusted for the bypass decision (Section 5.3). */
    std::uint32_t minBypassSamples = 32;
    /** A bypassed level still probes the L2 with probability
     *  1/sampleProbeInterval so its hit-rate estimate can recover when
     *  behaviour changes over time (Section 5.3). */
    std::uint32_t sampleProbeInterval = 64;
    std::uint32_t goldenQueueEntries = 16;
    std::uint32_t silverQueueEntries = 64;
    std::uint32_t normalQueueEntries = 192;
    std::uint32_t threshMax = 500;     //!< thresh_max of Equation 1
    /**
     * Bandwidth guard for the Golden Queue (Section 4.4: prioritize
     * translation "without sacrificing DRAM bandwidth utilization"):
     * a golden request that would close a row with data row-hits
     * still pending yields to them, for at most this many cycles.
     */
    Cycle goldenMaxDelay = 100;
    /** Same bandwidth guard for silver-over-normal priority. */
    Cycle silverMaxDelay = 200;
};

/**
 * Forward-progress watchdog (DESIGN.md §6 invariants, enforced at
 * runtime). The GPU top level sweeps every in-flight structure on a
 * fixed interval; any request, page walk, or TLB miss older than
 * maxAge — and any queue occupancy above its configured bound — trips
 * a SimInvariantError naming the stuck request chain.
 */
struct WatchdogConfig
{
    bool enabled = true;
    /** Cycles between sweeps; 0 disables sweeping entirely. */
    Cycle sweepInterval = 5000;
    /** Oldest age (cycles) any in-flight work item may reach. */
    Cycle maxAge = 200000;
};

/**
 * Deterministic fault injection. All injectors draw from one
 * RNG stream seeded by (seed, GpuConfig::seed), so a given
 * configuration produces a bit-identical fault schedule on every run —
 * the property the crash-replay flow depends on.
 */
struct FaultInjectConfig
{
    bool enabled = false;
    std::uint64_t seed = 1;

    /** Probability a DRAM response is held back dramDelayCycles. */
    double dramDelayProb = 0.0;
    Cycle dramDelayCycles = 500;

    /** Probability a returning page-walk PTE fetch is dropped. */
    double walkDropProb = 0.0;
    /** Dropped fetches are reissued after walkRetryDelay when true;
     *  when false the walk hangs and the watchdog must catch it. */
    bool walkDropRetry = true;
    Cycle walkRetryDelay = 200;

    /** Spurious full TLB shootdown every this many cycles (0 = off). */
    Cycle shootdownInterval = 0;

    /** Probability per cycle the shared L2 TLB input port stalls. */
    double portStallProb = 0.0;
    Cycle portStallCycles = 8;
};

/** Hardening knobs: runtime invariant watchdog + fault injection. */
struct HardenConfig
{
    WatchdogConfig watchdog;
    FaultInjectConfig fault;
    /**
     * Cap on concurrently-live entries in the request pool; exceeding
     * it trips a SimInvariantError so pool growth is observable
     * rather than a silent reallocation. 0 derives the bound from the
     * configuration (L1 MSHR entries + walker threads).
     */
    std::size_t poolHighWater = 0;
};

/**
 * Resource partitioning knobs for the Static baseline (Section 7):
 * NVIDIA GRID / AMD FirePro style fixed partitioning of the shared L2
 * cache and the memory channels across applications.
 */
struct PartitionConfig
{
    bool partitionL2 = false;
    bool partitionDramChannels = false;
};

/** Whole-GPU configuration. */
struct GpuConfig
{
    std::string name = "maxwell";

    // --- Core organization (Table 1) ---
    std::uint32_t numCores = 30;
    std::uint32_t warpsPerCore = 64;
    std::uint32_t threadsPerWarp = 64;
    /** Memory instructions a core may begin translating per cycle. */
    std::uint32_t lsuWidth = 1;

    // --- Virtual memory ---
    std::uint32_t pageBits = 12;  //!< 4KB pages; 21 for 2MB large pages
    std::uint32_t lineBits = 7;   //!< 128B lines

    TranslationDesign design = TranslationDesign::SharedTlb;

    TlbConfig l1Tlb{64, 0, 1, 1, 64};
    TlbConfig l2Tlb{512, 16, 10, 2, 128};
    CacheConfig pwCache{8192, 8, 16, 10, 1, 2, 16};

    CacheConfig l1d{16384, 128, 4, 1, 1, 1, 32};
    CacheConfig l2{2 * 1024 * 1024, 128, 16, 10, 16, 2, 256};

    DramConfig dram;
    WalkerConfig walker;
    MaskConfig mask;
    PartitionConfig partition;
    HardenConfig harden;

    /**
     * Explicit per-application core counts (must sum to numCores when
     * set). Empty means an even split. Used by the oracle partition
     * search (Section 6).
     */
    std::vector<std::uint32_t> coreShares;

    std::uint64_t seed = 1;

    std::uint64_t pageBytes() const { return 1ull << pageBits; }
    std::uint64_t lineBytes() const { return 1ull << lineBits; }
    bool ideal() const { return design == TranslationDesign::Ideal; }
};

/**
 * The design points evaluated in Section 7. Mask* presets layer the
 * named mechanism(s) on the SharedTlb baseline.
 */
enum class DesignPoint : std::uint8_t {
    Static,    //!< SharedTlb + statically partitioned L2/DRAM channels
    PwCache,   //!< Figure 2a baseline
    SharedTlb, //!< Figure 2b baseline
    MaskTlb,   //!< SharedTlb + TLB-Fill Tokens
    MaskCache, //!< SharedTlb + L2 bypass
    MaskDram,  //!< SharedTlb + DRAM scheduler
    Mask,      //!< all three mechanisms
    Ideal,     //!< all TLB accesses hit
};

/** Human-readable name of a design point ("MASK-TLB", ...). */
const char *designPointName(DesignPoint point);

/**
 * Cores assigned to application @p app when @p num_apps applications
 * share the GPU: an explicit coreShares entry if present, otherwise an
 * even split (earlier applications receive the remainder).
 */
inline std::uint32_t
coreShareOf(const GpuConfig &cfg, std::uint32_t num_apps,
            std::uint32_t app)
{
    if (!cfg.coreShares.empty() && app < cfg.coreShares.size())
        return cfg.coreShares[app];
    std::uint32_t share = cfg.numCores / num_apps;
    if (app < cfg.numCores % num_apps)
        ++share;
    return share;
}

/** All eight design points, in the paper's reporting order. */
inline constexpr DesignPoint kAllDesignPoints[] = {
    DesignPoint::Static,   DesignPoint::PwCache, DesignPoint::SharedTlb,
    DesignPoint::MaskTlb,  DesignPoint::MaskCache,
    DesignPoint::MaskDram, DesignPoint::Mask,    DesignPoint::Ideal,
};

/** Apply a design point to a base architecture configuration. */
GpuConfig applyDesignPoint(GpuConfig base, DesignPoint point);

/**
 * Reject malformed configurations before they become downstream UB:
 * zero-sized structures, non-power-of-two set counts, epoch = 0,
 * out-of-range probabilities. Throws ConfigError with a message naming
 * the offending field; the Gpu constructor calls this on every build.
 */
void validateConfig(const GpuConfig &cfg);

/** Design point from its reporting name ("MASK-TLB", ...). */
DesignPoint designPointByName(const std::string &name);

/**
 * Structural fingerprint of a configuration: a hash over every field
 * that affects simulation behaviour (and NOT over the free-form name,
 * which benches reuse across distinct parameter sets). Two configs
 * with equal fingerprints run identically; the alone-IPC memo keys on
 * this. Update alongside any new GpuConfig field.
 */
std::uint64_t configFingerprint(const GpuConfig &cfg);

/**
 * Warmup fingerprint: a hash over ONLY the fields that affect
 * behaviour during cycles < warmup (workload geometry, seed, design
 * selection, structure sizes, timing, hardening). Two configs with
 * equal warmup fingerprints simulate identical warmup prefixes, so a
 * snapshot taken at the warmup boundary of one forks into measure
 * phases of the others (DESIGN.md §14) — the warm-state cache keys on
 * this together with the bench list and the warmup length.
 *
 * Field classification rules (enforced by the exhaustiveness test in
 * tests/test_sweep_warm.cc, which fails whenever a GpuConfig field is
 * added without being classified here):
 *
 *  - warmup-affecting: any field the simulated machine reads before
 *    the measurement window starts. Today that is every behavioural
 *    field — the measurement length, checkpoint, observability and
 *    sweep knobs all live OUTSIDE GpuConfig (RunOptions / MASK_CKPT_*
 *    / MASK_TIMESERIES* / MASK_SWEEP_*).
 *  - measure-only / behaviour-neutral: excluded. Currently only
 *    `name` (free-form label).
 */
std::uint64_t warmupFingerprint(const GpuConfig &cfg);

/** Maxwell-like baseline architecture (paper Table 1). */
GpuConfig maxwellConfig();

/** Fermi-like (GTX 480) architecture used in Section 7.3. */
GpuConfig fermiConfig();

/** Integrated-GPU architecture (Power et al. style) of Section 7.3. */
GpuConfig integratedGpuConfig();

} // namespace mask

#endif // MASK_COMMON_CONFIG_HH

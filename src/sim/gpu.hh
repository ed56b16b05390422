/**
 * @file
 * The full GPU model: shader cores, private L1 TLBs/caches, the shared
 * L2 TLB or page walk cache (the two Section 3 baselines), the shared
 * page table walker, the shared L2 data cache, DRAM, and the three
 * MASK mechanisms — wired together and advanced cycle by cycle.
 */

#ifndef MASK_SIM_GPU_HH
#define MASK_SIM_GPU_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/bank_model.hh"
#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/config.hh"
#include "common/flat_table.hh"
#include "common/memreq.hh"
#include "common/state_codec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/shader_core.hh"
#include "dram/dram.hh"
#include "mask/bypass_cache.hh"
#include "mask/dram_sched.hh"
#include "mask/l2_bypass.hh"
#include "mask/tokens.hh"
#include "obs/registry.hh"
#include "sim/fault_inject.hh"
#include "sim/retry_queue.hh"
#include "sim/watchdog.hh"
#include "tlb/tlb.hh"
#include "tlb/tlb_mshr.hh"
#include "vm/page_table.hh"
#include "vm/walker.hh"
#include "workload/generator.hh"

namespace mask {

namespace obs {
class TimeseriesWriter;
class TraceWriter;
} // namespace obs

/** One application to run on the GPU. */
struct AppDesc
{
    const BenchmarkParams *bench = nullptr;
};

/** Snapshot of everything the evaluation section reports. */
struct GpuStats
{
    Cycle cycles = 0;

    std::vector<std::uint64_t> instructions; //!< per app
    std::vector<double> ipc;                 //!< per app

    HitMiss l1Tlb;                      //!< aggregated over cores
    HitMiss l2Tlb;
    std::vector<HitMiss> l2TlbPerApp;
    HitMiss bypassCache;
    HitMiss pwCache;
    HitMiss l1d;
    HitMiss l2Cache[2];                 //!< indexed by ReqType
    HitMiss l2CachePerLevel[5];         //!< 0 = data, 1..4 walk levels

    DramChannelStats dram;

    std::uint64_t walks = 0;
    RunningStat walkLatency;            //!< cycles per completed walk
    RunningStat tlbMissLatency;         //!< first miss -> fill
    RunningStat concurrentWalks;        //!< sampled every 10K cycles
    std::vector<RunningStat> concurrentWalksPerApp;
    RunningStat warpsPerMiss;           //!< Fig. 6
    std::vector<RunningStat> warpsPerMissPerApp;
    RunningStat readyWarpsPerCore;      //!< latency-hiding headroom

    std::vector<std::uint32_t> tokens;  //!< final per-app token counts
    std::uint64_t l2Bypasses = 0;

    std::uint64_t warpStallCycles = 0;

    // Hardening telemetry.
    std::uint64_t watchdogSweeps = 0;
    Cycle watchdogMaxAgeSeen = 0;  //!< oldest in-flight age observed
    std::uint64_t faultsInjected = 0;

    // Request pool occupancy (PR: pool growth must be observable).
    std::size_t poolPeakLive = 0;  //!< high-water mark of live requests
    std::size_t poolCapacity = 0;  //!< slots allocated in the pool

    // Host-side simulation throughput (wall-clock observability; NOT
    // part of the simulated machine and never printed by the
    // determinism-checked bench tables).
    double wallSeconds = 0.0;      //!< host time spent inside run()
    std::uint64_t requests = 0;    //!< pool allocations in the window

    // Checkpoint overhead (host-side, like wallSeconds): time spent
    // inside the periodic checkpoint callback, bytes written, and
    // checkpoints taken during the window.
    double ckptWriteSeconds = 0.0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t ckptWrites = 0;

    /** Always 0; the benchmark's loop.skip_fraction still reads it. */
    std::uint64_t skippedCycles = 0;

    // Scheduler/retry work counters (DESIGN.md §12): deterministic
    // functions of the simulated machine, so they double as
    // host-independent perf-regression gates. Host-side only — never
    // serialized and never printed by determinism-checked tables.
    std::uint64_t dramSchedPicks = 0;        //!< scheduler pick calls
    std::uint64_t dramSchedBanksScanned = 0; //!< units examined by picks
    std::uint64_t dataRetryProbes = 0;  //!< parked L1-MSHR-full probes
    std::uint64_t tlbRetryProbes = 0;   //!< parked TLB-MSHR-full probes

    // Per-stage wall-clock profile (MASK_PROFILE_STAGES=1): seconds
    // and invocation counts indexed by Gpu::StageId; empty when the
    // profiler is off. Observation-only, like wallSeconds.
    std::vector<double> stageSeconds;
    std::vector<std::uint64_t> stageCalls;

    /** Weighted fraction of peak DRAM bandwidth used, by type. */
    double dramBusUtil(ReqType type, std::uint32_t channels) const;

    /**
     * The simulated fields only: the host-side ones (wallSeconds,
     * ckpt*, skippedCycles, the work counters, the stage profile)
     * vary run to run or are never persisted, so they are not written
     * and a read leaves them zero.
     */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);
};

/** The GPU. */
class Gpu
{
  public:
    /** Pipeline stages, in tickOne() order; indexes the per-stage
     *  profiler arrays surfaced as GpuStats::stageSeconds/stageCalls. */
    enum StageId : std::size_t
    {
        kStageFaults,
        kStageDram,
        kStageL2Cache,
        kStagePwCache,
        kStageL2Tlb,
        kStageWalker,
        kStageCores,
        kStageSamplers,
        kStageEpoch,
        kStageSwitches,
        kStageWatchdog,
        kNumStages,
    };

    /** Label for stage @p id (bench/report output). */
    static const char *stageName(std::size_t id);

    /** @p obs names the run's telemetry files (DESIGN.md §13); the
     *  default writes none. */
    Gpu(const GpuConfig &cfg, const std::vector<AppDesc> &apps,
        const obs::ObsOptions &obs = {});
    ~Gpu();

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Advance the model by @p cycles. */
    void run(Cycle cycles);

    /** Advance one cycle. */
    void tickOne();

    Cycle now() const { return now_; }
    const GpuConfig &config() const { return cfg_; }
    std::uint32_t numApps() const
    {
        return static_cast<std::uint32_t>(apps_.size());
    }

    /** Zero all measurement state (start of the measured window). */
    void resetStats();

    /** Snapshot current statistics. */
    GpuStats collect();

    /** Instructions credited to @p app since resetStats. */
    std::uint64_t appInstructions(AppId app);

    /**
     * TLB shootdown for one address space (Section 5.1/5.2): flushes
     * the matching cores' L1 TLBs, every L2 TLB entry tagged with the
     * ASID, the TLB bypass cache, and (conservatively) the page walk
     * cache. Pending walks are unaffected — they re-read the current
     * page table.
     */
    void tlbShootdown(Asid asid);

    // --- Time multiplexing support (Fig. 1 experiment) ---

    /**
     * Begin switching every core to @p app: each core drains its
     * in-flight requests (Section 5.1), waits @p switch_penalty extra
     * cycles (driver/runtime cost), then restarts with fresh warps.
     */
    void switchAllCores(AppId app, Cycle switch_penalty);

    /** True while any core is still draining/switching. */
    bool switchesPending() const;

    // --- Introspection (tests, benches, examples) ---

    /** Core @p id, its lazily applied issue counters settled. */
    ShaderCore &
    core(CoreId id)
    {
        cores_[id]->settle(coresIssuedTo_);
        return *cores_[id];
    }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    Tlb &sharedTlb() { return l2Tlb_; }
    TlbBypassCache &bypassCache() { return bypassCache_; }
    TlbMshrTable &tlbMshr() { return tlbMshr_; }
    PageTableWalker &walker() { return walker_; }
    Dram &dram() { return dram_; }
    PageTable &pageTable(AppId app) { return *pageTables_[app]; }
    TokenManager &tokenManager() { return tokens_; }
    L2BypassPolicy &l2BypassPolicy() { return l2Policy_; }
    SilverQuotaController &quota() { return quota_; }
    const std::vector<CoreId> &coresOf(AppId app) const
    {
        return apps_[app].cores;
    }
    /** In-flight requests below the L1 structures. */
    std::size_t inFlightRequests() const { return pool_.liveCount(); }
    Watchdog &watchdog() { return watchdog_; }
    FaultInjector &faultInjector() { return faults_; }

    /**
     * Run a forward-progress sweep immediately (the per-interval sweep
     * calls this from tickOne). Throws SimInvariantError on any stuck
     * request, leaked MSHR, queue-bound or token-bound violation.
     */
    void watchdogSweepNow();

    // --- Checkpoint/restore (DESIGN.md §11) ---

    /**
     * Serialize the complete simulated machine: cores (warps,
     * scoreboards, parked retries), caches/TLBs with MSHR contents and
     * waiter lists, DRAM queues and FR-FCFS state, page tables and
     * walker slots, MASK controllers, RNG streams, and every stats
     * accumulator. Host-side accounting (wallSeconds) is excluded — a
     * restored Gpu continues bit-exactly, it does not replay wall time.
     */
    void serialize(StateWriter &w) const;

    /**
     * Restore a payload written by serialize() into a Gpu constructed
     * from an identical config and app list. Throws SnapshotError on
     * any geometry mismatch, truncation, or corrupted field; the Gpu
     * is left unusable on failure (restore into a fresh instance).
     */
    void deserialize(StateReader &r);

    /** Opaque runner cookie carried inside snapshots (resume phase). */
    std::uint64_t snapshotCookie() const { return snapshotCookie_; }
    void setSnapshotCookie(std::uint64_t v) { snapshotCookie_ = v; }

    /**
     * Install a periodic checkpoint callback: @p fn runs at the top of
     * the run() loop whenever now() reaches the next multiple-of-
     * @p interval boundary. interval == 0 uninstalls; the disabled
     * path costs one predictable branch per iteration.
     */
    void setCheckpointHook(Cycle interval,
                           std::function<void(Gpu &)> fn);

    /** Checkpoint callbacks report their file size here (host-side
     *  accounting surfaced as GpuStats::ckptBytes). */
    void noteCheckpointBytes(std::uint64_t bytes)
    {
        ckptBytes_ += bytes;
    }

  private:
    struct AppContext
    {
        Asid asid = 0;
        const BenchmarkParams *bench = nullptr;
        std::vector<CoreId> cores;
        /** Shared per-stream progress counters (SIMT lockstep). */
        std::unique_ptr<StreamTable> streams;
    };

    /** Parked translation work item flowing to the shared L2 TLB. */
    struct TransSlot
    {
        StalledAccess access;
        Asid asid = 0;
        Vpn vpn = 0;
        AppId app = 0;
        bool inUse = false;
    };

    struct PendingSwitch
    {
        bool pending = false;
        AppId app = 0;
        Cycle notBefore = 0;
    };

    /** Translated data access waiting for a free L1 MSHR (snapshot
     *  exchange format; live entries live in DataRetryQueue). */
    struct DataRetry
    {
        StalledAccess access;
        AppId app = 0;
        Pfn pfn = 0;
    };

    /** The one snapshot description behind serialize() and
     *  deserialize() (DESIGN.md §11). */
    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

    /** Per-woken-core retry-pass bookkeeping: how many entries were
     *  parked when the pass started, how many probes actually ran
     *  (both phases), and whether the core still has a free L1 MSHR
     *  slot (phase 1). The difference nStart - probes is charged to
     *  the miss/rejection counters in closed form. */
    struct RetryPassCore
    {
        CoreId core = 0;
        std::size_t nStart = 0;
        std::size_t probes = 0;
        bool inPhase1 = true;
    };

    // --- Pipeline stages (called from tickOne in order) ---
    void stageFaults();
    void stageDram();
    void stageL2Cache();
    void stagePwCache();
    void stageL2Tlb();
    void stageWalker();
    void stageCores();
    void stageEpoch();
    void stageSwitches();
    void stageSamplers();
    void stageWatchdog();

    // --- Request plumbing ---
    std::uint32_t allocTransSlot(const StalledAccess &access, Asid asid,
                                 Vpn vpn, AppId app);
    void freeTransSlot(std::uint32_t slot);

    void handleCoreAccess(ShaderCore &core, const IssuedAccess &issued);
    void onL1TlbMiss(ShaderCore &core, const StalledAccess &access,
                     Vpn vpn);
    /** Translation for (asid, vpn) arrived at @p core: fill its L1
     *  TLB and restart every access parked in the core's translation
     *  MSHR (per-core miss coalescing). */
    void completeCoreTranslation(CoreId core, Asid asid, Vpn vpn,
                                 AppId app, Pfn pfn);
    void resolveL2TlbLookup(std::uint32_t slot);
    void tlbMissToWalker(std::uint32_t slot);
    void startWalkFor(Asid asid, Vpn vpn, AppId app);
    void issueWalkFetch(WalkId walk);
    void dispatchTranslationRequest(ReqId id);
    void sendToL2(ReqId id);
    void sendToDram(ReqId id);
    void l2LookupDone(ReqId id);
    void onMemResponse(ReqId id);
    void respondUp(ReqId id);
    void walkFetchReturned(ReqId id);
    void finishWalk(WalkId walk);
    void startDataAccess(const StalledAccess &access, AppId app,
                         Pfn pfn);
    bool tryStartDataAccess(const StalledAccess &access, AppId app,
                            Pfn pfn);
    Addr
    dataPaddr(const StalledAccess &access, Pfn pfn) const
    {
        return (static_cast<Addr>(pfn) << cfg_.pageBits) |
               (access.vaddr & (cfg_.pageBytes() - 1));
    }
    void parkTransSlot(std::uint32_t slot);
    void unparkTransSlot(std::uint32_t slot);
    void fillL2TlbOnWalkDone(const TlbMshrTable::Entry &entry, Pfn pfn);
    /** Settle every core's lazy issue counters (ShaderCore::settle)
     *  through the last issue stage that ran. */
    void settleCores();
    void creditInstructions();

    std::uint64_t l2CacheKey(Addr paddr) const
    {
        return paddr >> cfg_.lineBits;
    }
    Vpn vpnOf(Addr vaddr) const { return vaddr >> cfg_.pageBits; }

    GpuConfig cfg_;
    Cycle now_ = 0;
    Cycle statsStart_ = 0;

    std::vector<AppContext> apps_;
    std::vector<std::unique_ptr<ShaderCore>> cores_;
    FrameAllocator frames_;
    std::vector<std::unique_ptr<PageTable>> pageTables_;

    RequestPool pool_;

    // Shared translation structures.
    Tlb l2Tlb_;
    LatencyPipe l2TlbPipe_;
    std::deque<std::uint32_t> l2TlbInput_;
    std::vector<TransSlot> transSlots_;
    std::vector<std::uint32_t> freeTransSlots_;
    std::deque<std::uint32_t> tlbMissRetry_;
    TlbMshrTable tlbMshr_;
    std::deque<std::uint64_t> walkStartQueue_; //!< tlbKey(asid, vpn)
    PageTableWalker walker_;

    // Page walk cache (PwCache baseline).
    SetAssocCache pwCache_;
    LatencyPipe pwCachePipe_;
    std::deque<ReqId> pwInput_;
    HitMiss pwStats_;

    // Shared L2 data cache.
    SetAssocCache l2Cache_;
    BankedPipe l2Pipe_;
    std::vector<std::deque<ReqId>> l2Input_;
    MshrTable l2Mshr_;
    HitMiss l2Stats_[2];
    HitMiss l2StatsPerLevel_[5];

    // DRAM.
    Dram dram_;
    std::deque<ReqId> dramRetry_;
    /** Per-cycle memo of (channel, type, app) keys whose target queue
     *  rejected an enqueue this cycle (stageDram retry loop). */
    std::vector<std::uint8_t> dramRetryFull_;
    std::size_t dramRetryKey(const MemRequest &req) const;

    // Hardening: watchdog + deterministic fault injection.
    Watchdog watchdog_;
    FaultInjector faults_;
    std::uint32_t tokenWarpsPerApp_ = 0;
    /** DRAM responses held back by the injector; FIFO, release cycle
     *  is monotonic because the injected delay is constant. */
    std::deque<std::pair<Cycle, ReqId>> delayedResponses_;
    /** Dropped-then-retried walk fetches awaiting reissue. */
    std::deque<std::pair<Cycle, WalkId>> fetchRetry_;

    // MASK mechanisms.
    TokenManager tokens_;
    TlbBypassCache bypassCache_;
    L2BypassPolicy l2Policy_;
    SilverQuotaController quota_;
    Cycle nextEpoch_;

    // Stats plumbing.
    /** Warp-accesses currently parked on translations, per app. */
    std::vector<std::uint32_t> stalledAccesses_;
    /** True warps-stalled-per-miss (Fig. 6), counting core-MSHR
     *  waiters across all cores at walk completion. */
    RunningStat warpsPerMiss_;
    std::vector<RunningStat> warpsPerMissPerApp_;
    std::vector<std::uint64_t> appInstr_;
    std::vector<std::uint64_t> coreInstrCredited_;
    RunningStat tlbMissLatency_;
    IntervalSampler walkSampler_;
    std::vector<IntervalSampler> walkSamplerPerApp_;
    IntervalSampler readySampler_;

    std::vector<PendingSwitch> pendingSwitch_;
    std::uint64_t switchSeed_ = 0;

    /**
     * Parked MSHR-full data accesses, sharded per core and indexed by
     * arrival order and L1 line key (DESIGN.md §12): a retry pass
     * touches only the woken cores' queues, and within a woken core
     * probes only the entries whose probe can succeed — the oldest
     * entries while an MSHR slot is free (phase 1), then the chains
     * whose key was filled this cycle or has an outstanding MSHR
     * entry (phase 2). Everything else is charged to the L1
     * miss/rejection counters in closed form. Global FIFO order is
     * preserved by the per-entry sequence numbers (a k-way merge
     * probes in arrival order); snapshots flatten back to the
     * original single-queue format, so dataRetrySeq_, the key chains
     * and dataMergeKeys_ are all derived state rebuilt on restore.
     */
    std::vector<DataRetryQueue> dataRetryByCore_;
    std::size_t dataRetryCount_ = 0;  //!< total parked, all cores
    std::uint64_t dataRetrySeq_ = 0;  //!< next arrival sequence
    /** L1 line keys filled this cycle, per core: the only keys a
     *  parked entry can newly hit on. Cleared with the wake flags. */
    std::vector<std::vector<std::uint64_t>> coreFilledKeys_;
    /** Keys with both an outstanding L1 MSHR entry and parked
     *  retries: the only keys a parked entry can merge into while the
     *  MSHR table is full. Maintained at allocate/complete/park/
     *  unpark; rebuilt on restore. */
    std::vector<FlatTable<std::uint8_t>> dataMergeKeys_;
    /**
     * Event-driven retry wakeups (DESIGN.md §9): a parked data access
     * can change outcome only when its core receives a memory response
     * (L1 fill + MSHR completion both happen in respondUp), and a
     * parked translation slot only when the shared TLB MSHR completes
     * an entry (finishWalk). On other cycles the legacy per-cycle
     * probes were provable no-ops apart from the L1 miss/rejection
     * counters, which the retry loop advances in closed form instead.
     */
    std::vector<std::uint8_t> coreDataWake_;
    /** The cores whose coreDataWake_ flag is set (derived; rebuilt on
     *  restore), so a pass visits only them. */
    std::vector<CoreId> wokenCores_;
    bool anyCoreDataWake_ = false;
    bool tlbRetryWake_ = false;
    /** Scratch for the retry pass (reused across cycles). */
    std::vector<RetryPassCore> dataRetryWoken_;
    std::vector<std::uint64_t> retryCandKeys_;
    std::vector<std::uint32_t> retryChainCursor_;

    /**
     * Index over the parked translation slots (DESIGN.md §12),
     * rebuilt on restore: how many parked slots wait on each
     * tlbKey(asid, vpn), and how many of those keys are currently
     * present in the shared TLB MSHR table (a parked slot whose key
     * is present would Merge on its next probe). Lets the wake pass
     * skip slots whose probe would provably return Full: when the
     * table is full, only merge-eligible slots can make progress.
     */
    FlatTable<std::uint32_t> parkedTransKeys_;
    std::uint32_t parkedMergeEligible_ = 0;
    /** Index of each core within its application's core list. */
    std::vector<std::uint16_t> coreAppIndex_;

    /**
     * Per-core translation MSHRs: accesses from one core waiting on
     * the same in-flight translation coalesce into one shared-TLB
     * probe (keyed by tlbKey(asid, vpn)). Flat tables: probed on
     * every L1 TLB miss and every translation completion.
     */
    std::vector<FlatTable<std::vector<StalledAccess>>>
        coreTransWaiters_;

    // --- Idle-skip bookkeeping (tickOne fast paths) ---
    /** First cycle whose issue stage has not run: now_ between
     *  cycles, now_ + 1 after stageCores. Cores settle up to it. */
    Cycle coresIssuedTo_ = 0;
    /** Requests in the L2 input queues or bank pipes. */
    std::size_t l2Work_ = 0;
    /** Cores with an unfinished app switch (skip stageSwitches). */
    std::uint32_t switchesInFlight_ = 0;

    // --- Checkpoint hook (DESIGN.md §11; host-side policy) ---
    /** Advance nextCkpt_ past now_ and invoke the callback. */
    void maybeCheckpoint();
    Cycle ckptInterval_ = 0;
    Cycle nextCkpt_ = kNeverCycle;
    std::function<void(Gpu &)> ckptFn_;
    double ckptWriteSeconds_ = 0.0;
    std::uint64_t ckptBytes_ = 0;
    std::uint64_t ckptWrites_ = 0;
    /** Runner phase cookie; serialized verbatim, never interpreted. */
    std::uint64_t snapshotCookie_ = 0;

    // --- Host-side throughput accounting ---
    double wallSeconds_ = 0.0;      //!< accumulated inside run()
    std::uint64_t allocsAtReset_ = 0;

    // --- Per-stage profiler (MASK_PROFILE_STAGES=1; DESIGN.md §12) ---
    /** Run @p fn as stage @p id, timing it when the profiler is on.
     *  Observation-only: the untimed path is a plain call. */
    template <typename Fn>
    void
    stageTimed(StageId id, Fn &&fn)
    {
        if (!profileStages_) {
            fn();
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        stageSeconds_[id] +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        ++stageCalls_[id];
    }

    /** Resolved from MASK_PROFILE_STAGES at construction. */
    bool profileStages_ = false;
    double stageSeconds_[kNumStages] = {};
    std::uint64_t stageCalls_[kNumStages] = {};

    // --- Observability (DESIGN.md §13; host-side, never serialized,
    // excluded from configFingerprint) ---

    /** Cumulative counters the interval-delta gauges diff. One slot
     *  per app unless noted. */
    struct ObsCounters
    {
        std::vector<std::uint64_t> l1Hits, l1Misses;
        std::vector<std::uint64_t> l2Hits, l2Misses;
        std::vector<std::uint64_t> instr;
        std::vector<std::uint64_t> rowHits, rowAcc;    //!< per channel
        std::vector<std::uint64_t> issued[3];          //!< per channel
        std::uint64_t bypasses = 0;
        std::uint64_t walkAcc = 0; //!< L2 lookups at walk levels 1..4
    };

    /** Build the series registry and open the writers @p opts names;
     *  called once at construction. */
    void obsInit(const obs::ObsOptions &opts);
    /** Gather every gauge and record one timeseries row stamped
     *  @p cycle (state as of the end of that cycle). */
    void obsSampleAt(Cycle cycle);
    /** Read the live counters behind the interval-delta gauges. */
    ObsCounters obsGather();
    /** Restart the interval at now(): gather the baseline counters
     *  (after resetStats / restore / construction). */
    void obsCaptureBaseline();
    /** Trace/sample bookkeeping for an epoch boundary; runs inside
     *  stageEpoch around the controller updates. */
    void obsEpochPre();
    void obsEpochPost();
    /** Publish the writers' files and export the stage profile
     *  (destructor). */
    void obsFinish();
    void obsWriteStageProfile();

    std::unique_ptr<obs::TimeseriesWriter> obsTs_;
    std::unique_ptr<obs::TraceWriter> obsTrace_;
    std::string obsStagesPath_; //!< "" = no stage-profile file
    std::vector<double> obsVals_;  //!< scratch row (registry order)
    Cycle obsLastSample_ = 0;      //!< previous sample/reset cycle
    ObsCounters obsPrev_; //!< at the previous sample / interval start
    /** Per-level L2 bypass decision at the last epoch boundary
     *  (levels 1..kMaxLevel; index 0 unused), for flip instants. */
    bool obsBypassOn_[5] = {};
    /** Pre-epoch token counts scratch (obsEpochPre/Post). */
    std::vector<std::uint32_t> obsEpochTokens_;
    // Deterministic work counters feeding GpuStats (host-side; never
    // serialized — a restored run re-counts only its own work).
    std::uint64_t dataRetryProbes_ = 0;
    std::uint64_t tlbRetryProbes_ = 0;
};

} // namespace mask

#endif // MASK_SIM_GPU_HH

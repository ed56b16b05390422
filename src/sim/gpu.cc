#include "sim/gpu.hh"

#include <algorithm>
#include <chrono>

#include "common/check.hh"
#include "common/env.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace mask {

namespace {

/** Validate before any member construction touches derived quantities
 *  (e.g. numSets() divides by lineBytes); cfg_ is the first member. */
const GpuConfig &
validatedRef(const GpuConfig &cfg)
{
    validateConfig(cfg);
    return cfg;
}

/** Warps per application used to size the token pool. */
std::uint32_t
warpsPerApp(const GpuConfig &cfg, std::size_t num_apps)
{
    const std::uint32_t apps =
        static_cast<std::uint32_t>(std::max<std::size_t>(1, num_apps));
    std::uint32_t max_share = 0;
    for (std::uint32_t a = 0; a < apps; ++a)
        max_share = std::max(max_share, coreShareOf(cfg, apps, a));
    return max_share * cfg.warpsPerCore;
}

} // namespace

const char *
Gpu::stageName(std::size_t id)
{
    static const char *const names[kNumStages] = {
        "faults",   "dram",  "l2cache",  "pwcache",
        "l2tlb",    "walker", "cores",   "samplers",
        "epoch",    "switches", "watchdog",
    };
    return id < kNumStages ? names[id] : "?";
}

double
GpuStats::dramBusUtil(ReqType type, std::uint32_t channels) const
{
    const double capacity =
        static_cast<double>(cycles) * channels;
    return safeDiv(
        static_cast<double>(dram.busBusy[static_cast<int>(type)]),
        capacity);
}

// A stats blob holds about 25 HitMiss/RunningStat values. Through
// their own state descriptions each would carry a 4-byte tag, and a
// journal entry would outgrow the v3 text it replaced; GpuStats
// describes their fields bare instead. The "stats" tag and
// StateReader's count and finish checks still catch a desynced
// payload.
template <typename Self, typename Io>
void
GpuStats::state(Self &self, Io &io)
{
    const auto bare = [&io](auto &v) {
        std::remove_cvref_t<decltype(v)>::fields(v, io);
    };
    if constexpr (Io::kReading)
        self = GpuStats{};
    io.tag("stats");
    io.u(self.cycles);
    io.uintSeq(self.instructions);
    io.seq(self.ipc, [&io](auto &v) { io.d(v); });
    bare(self.l1Tlb);
    bare(self.l2Tlb);
    io.seq(self.l2TlbPerApp, bare);
    bare(self.bypassCache);
    bare(self.pwCache);
    bare(self.l1d);
    for (auto &v : self.l2Cache)
        bare(v);
    for (auto &v : self.l2CachePerLevel)
        bare(v);
    io.obj(self.dram);
    io.u(self.walks);
    bare(self.walkLatency);
    bare(self.tlbMissLatency);
    bare(self.concurrentWalks);
    io.seq(self.concurrentWalksPerApp, bare);
    bare(self.warpsPerMiss);
    io.seq(self.warpsPerMissPerApp, bare);
    bare(self.readyWarpsPerCore);
    io.uintSeq(self.tokens);
    io.u(self.l2Bypasses);
    io.u(self.warpStallCycles);
    io.u(self.watchdogSweeps);
    io.u(self.watchdogMaxAgeSeen);
    io.u(self.faultsInjected);
    io.u(self.poolPeakLive);
    io.u(self.poolCapacity);
    io.u(self.requests);
}

MASK_STATE_INSTANTIATE(GpuStats);

Gpu::Gpu(const GpuConfig &cfg, const std::vector<AppDesc> &apps)
    : cfg_(validatedRef(cfg)),
      frames_(cfg.pageBits),
      l2Tlb_(cfg.l2Tlb),
      l2TlbPipe_(cfg.l2Tlb.ports, cfg.l2Tlb.latency),
      tlbMshr_(cfg.l2Tlb.mshrs),
      walker_(cfg.walker),
      pwCache_(cfg.pwCache.numSets(), cfg.pwCache.ways),
      pwCachePipe_(cfg.pwCache.portsPerBank, cfg.pwCache.latency),
      l2Cache_(cfg.l2.numSets(), cfg.l2.ways),
      l2Pipe_(cfg.l2.banks, cfg.l2.portsPerBank, cfg.l2.latency),
      l2Mshr_(cfg.l2.mshrs),
      dram_(cfg.dram, cfg.mask, cfg.lineBits,
            cfg.mask.dramSched ? DramSchedMode::MaskQueues
                               : DramSchedMode::FrFcfs,
            static_cast<std::uint32_t>(apps.size()),
            cfg.partition.partitionDramChannels),
      watchdog_(cfg.harden.watchdog),
      faults_(cfg.harden.fault, cfg.seed),
      tokenWarpsPerApp_(warpsPerApp(cfg, apps.size())),
      tokens_(cfg.mask, static_cast<std::uint32_t>(apps.size()),
              warpsPerApp(cfg, apps.size())),
      bypassCache_(cfg.mask),
      l2Policy_(cfg.mask),
      quota_(cfg.mask, static_cast<std::uint32_t>(apps.size())),
      nextEpoch_(cfg.mask.epochCycles),
      walkSampler_(10000),
      readySampler_(10000)
{
    SIM_CHECK(!apps.empty(), "sim.gpu", kUnknownCycle,
              "Gpu constructed with no applications");

    l2Input_.resize(cfg_.l2.banks);
    coreTransWaiters_.resize(cfg_.numCores);
    coreDataWake_.resize(cfg_.numCores, 0);
    dataRetryByCore_.resize(cfg_.numCores);
    coreFilledKeys_.resize(cfg_.numCores);
    dataMergeKeys_.resize(cfg_.numCores);
    profileStages_ = envFlag("MASK_PROFILE_STAGES");
    dramRetryFull_.resize(static_cast<std::size_t>(
        dram_.numChannels() * 2 * apps.size()));

    // Steady-state in-flight bound: one request per L1 MSHR entry
    // (primary data misses) plus one PTE fetch per walker thread.
    // Reserving up front means the pool never reallocates mid-run;
    // the high-water check makes any violation of the bound loud.
    const std::size_t pool_bound =
        static_cast<std::size_t>(cfg_.numCores) * cfg_.l1d.mshrs +
        cfg_.walker.maxConcurrentWalks;
    pool_.reserve(pool_bound);
    pool_.setHighWater(cfg_.harden.poolHighWater != 0
                           ? cfg_.harden.poolHighWater
                           : pool_bound);
    stalledAccesses_.assign(apps.size(), 0);
    warpsPerMissPerApp_.resize(apps.size());

    apps_.resize(apps.size());
    for (AppId a = 0; a < apps.size(); ++a) {
        apps_[a].asid = static_cast<Asid>(a + 1);
        apps_[a].bench = apps[a].bench;
        apps_[a].streams =
            std::make_unique<StreamTable>(apps[a].bench->streams);
        pageTables_.push_back(std::make_unique<PageTable>(
            apps_[a].asid, cfg_.pageBits, frames_));
        walkSamplerPerApp_.emplace_back(10000);
    }

    // Spatial partitioning: distribute cores as evenly as possible,
    // earlier apps receiving the remainder (the oracle partition
    // search of Section 6 is provided separately by the runner).
    const auto num_apps = static_cast<std::uint32_t>(apps.size());
    cores_.reserve(cfg_.numCores);
    coreAppIndex_.resize(cfg_.numCores, 0);
    pendingSwitch_.resize(cfg_.numCores);
    coreInstrCredited_.resize(cfg_.numCores, 0);
    appInstr_.assign(apps.size(), 0);

    std::uint32_t next_core = 0;
    for (AppId a = 0; a < num_apps; ++a) {
        std::uint32_t share = coreShareOf(cfg_, num_apps, a);
        if (static_cast<std::uint32_t>(a + 1) == num_apps)
            share = cfg_.numCores - next_core; // absorb rounding
        for (std::uint32_t i = 0; i < share; ++i) {
            const auto core_id = static_cast<CoreId>(next_core++);
            auto core = std::make_unique<ShaderCore>(core_id, cfg_);
            core->assign(a, apps_[a].asid, apps_[a].bench,
                         apps_[a].streams.get(),
                         i * cfg_.warpsPerCore,
                         cfg_.seed * 7919 + core_id);
            coreAppIndex_[core_id] = static_cast<std::uint16_t>(i);
            apps_[a].cores.push_back(core_id);
            cores_.push_back(std::move(core));
        }
    }

    if (cfg_.mask.dramSched)
        dram_.setQuotaProvider(&quota_);

    obsInit();
}

Gpu::~Gpu()
{
    obsFinish();
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
Gpu::run(Cycle cycles)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        if (now_ >= nextCkpt_)
            maybeCheckpoint();
        tickOne();
    }
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
}

void
Gpu::tickOne()
{
    // Quiescent components skip their stage entirely: the checks are
    // O(1) against explicit work counters, and the skipped stage would
    // have scanned banks/queues to discover the same emptiness. The
    // fault-injection stages are exempt (their RNG draws are part of
    // the deterministic fault schedule).
    stageTimed(kStageFaults, [this] { stageFaults(); });
    if (dram_.busy() || !dramRetry_.empty())
        stageTimed(kStageDram, [this] { stageDram(); });
    if (l2Work_ > 0)
        stageTimed(kStageL2Cache, [this] { stageL2Cache(); });
    if (cfg_.design == TranslationDesign::PwCache &&
        (!pwInput_.empty() || pwCachePipe_.inFlight() > 0)) {
        stageTimed(kStagePwCache, [this] { stagePwCache(); });
    }
    if (cfg_.design == TranslationDesign::SharedTlb &&
        (faults_.enabled() || !l2TlbInput_.empty() ||
         l2TlbPipe_.inFlight() > 0)) {
        stageTimed(kStageL2Tlb, [this] { stageL2Tlb(); });
    }
    if (!tlbMissRetry_.empty() || !walkStartQueue_.empty() ||
        walker_.hasPendingFetch()) {
        stageTimed(kStageWalker, [this] { stageWalker(); });
    }
    stageTimed(kStageCores, [this] { stageCores(); });
    stageTimed(kStageSamplers, [this] { stageSamplers(); });
    stageTimed(kStageEpoch, [this] { stageEpoch(); });
    if (switchesInFlight_ > 0)
        stageTimed(kStageSwitches, [this] { stageSwitches(); });
    stageTimed(kStageWatchdog, [this] { stageWatchdog(); });
    // End-of-cycle telemetry sample (DESIGN.md §13): one pointer test
    // when the timeseries is off.
    if (obsTs_ != nullptr && obsTs_->due(now_))
        obsSampleAt(now_);
    ++now_;
}

// ---------------------------------------------------------------------
// DRAM stage
// ---------------------------------------------------------------------

void
Gpu::stageDram()
{
    dram_.tick(now_);

    auto &done = dram_.completed();
    while (!done.empty()) {
        const ReqId id = done.front();
        done.pop_front();
        // Duration event at completion: the begin cycle is part of
        // the request (serialized), so spans crossing a snapshot
        // boundary appear exactly once, in the resumed trace.
        if (obsTrace_ != nullptr &&
            obsTrace_->wants(obs::TraceCat::kDram)) {
            const MemRequest &req = pool_[id];
            const DramCoord co =
                dram_.mapper().map(req.paddr, req.app);
            obsTrace_->complete(
                obs::TraceCat::kDram,
                req.type == ReqType::Translation ? "dram_walk"
                                                 : "dram_data",
                static_cast<std::uint32_t>(req.app) + 1,
                req.dramEnqueueCycle, now_ - req.dramEnqueueCycle,
                {{"channel", co.channel}, {"bank", co.bank}});
        }
        if (faults_.enabled()) {
            const Cycle delay = faults_.dramResponseDelay();
            if (delay > 0) {
                // Hold the response back; released by stageFaults.
                // FIFO stays cycle-sorted because the delay is fixed.
                pool_[id].where = ReqStage::FaultDelay;
                delayedResponses_.emplace_back(now_ + delay, id);
                continue;
            }
        }
        onMemResponse(id);
    }

    if (dramRetry_.empty())
        return;

    // Retry requests that found their channel queue full. Queue space
    // only shrinks while this loop runs (the channels already ticked;
    // retries only add), so a (channel, type, app) key that fails
    // canEnqueue once cannot succeed later in the same cycle: memoize
    // the failure and keep later same-key requests in place instead of
    // re-probing them. Compaction preserves FIFO order exactly.
    std::fill(dramRetryFull_.begin(), dramRetryFull_.end(),
              std::uint8_t{0});
    std::size_t kept = 0;
    for (std::size_t i = 0; i < dramRetry_.size(); ++i) {
        const ReqId id = dramRetry_[i];
        MemRequest &req = pool_[id];
        const std::size_t key = dramRetryKey(req);
        if (dramRetryFull_[key] == 0) {
            if (dram_.canEnqueue(req)) {
                req.where = ReqStage::DramQueue;
                dram_.enqueue(id, req, now_);
                continue;
            }
            dramRetryFull_[key] = 1;
        }
        dramRetry_[kept++] = id;
    }
    dramRetry_.resize(kept);
}

std::size_t
Gpu::dramRetryKey(const MemRequest &req) const
{
    const std::uint32_t channel =
        dram_.mapper().map(req.paddr, req.app).channel;
    const std::size_t is_translation =
        req.type == ReqType::Translation ? 1 : 0;
    return (channel * 2 + is_translation) * apps_.size() + req.app;
}

// ---------------------------------------------------------------------
// Hardening stages
// ---------------------------------------------------------------------

void
Gpu::stageFaults()
{
    if (!faults_.enabled())
        return;
    while (!delayedResponses_.empty() &&
           delayedResponses_.front().first <= now_) {
        const ReqId id = delayedResponses_.front().second;
        delayedResponses_.pop_front();
        onMemResponse(id);
    }
    while (!fetchRetry_.empty() && fetchRetry_.front().first <= now_) {
        const WalkId walk = fetchRetry_.front().second;
        fetchRetry_.pop_front();
        issueWalkFetch(walk);
    }
    if (faults_.shootdownDue(now_)) {
        const auto victim = faults_.pickApp(
            static_cast<std::uint32_t>(apps_.size()));
        tlbShootdown(apps_[victim].asid);
    }
}

void
Gpu::stageWatchdog()
{
    if (watchdog_.due(now_))
        watchdogSweepNow();
}

void
Gpu::watchdogSweepNow()
{
    WatchdogView view;
    view.pool = &pool_;
    view.tlbMshr = &tlbMshr_;
    view.walker = &walker_;
    view.dram = &dram_;
    view.tokens = &tokens_;
    view.numApps = static_cast<std::uint32_t>(apps_.size());
    view.warpsPerApp = tokenWarpsPerApp_;
    view.tokensEnabled = cfg_.mask.tlbTokens;
    watchdog_.sweep(now_, view);
}

void
Gpu::onMemResponse(ReqId id)
{
    MemRequest &req = pool_[id];
    const std::uint64_t key = l2CacheKey(req.paddr);

    // Completed walk reads feed the page walk cache (Fig. 2a design).
    if (cfg_.design == TranslationDesign::PwCache &&
        req.type == ReqType::Translation) {
        pwCache_.fill(key);
    }

    if (req.bypassL2) {
        // MASK L2 bypass: no L2 fill (Section 5.3), but merged
        // waiters (if this request owns an MSHR entry) complete now.
        if (req.mshrPrimary) {
            l2Mshr_.complete(key, [this](ReqId waiter) {
                respondUp(waiter);
            });
        } else {
            respondUp(id);
        }
        return;
    }

    // Fill the shared L2 (way-partitioned under the Static baseline).
    if (cfg_.partition.partitionL2 && apps_.size() > 1) {
        const std::uint32_t ways_per = std::max<std::uint32_t>(
            1, cfg_.l2.ways /
                   static_cast<std::uint32_t>(apps_.size()));
        const std::uint32_t lo = std::min(cfg_.l2.ways - ways_per,
                                          req.app * ways_per);
        l2Cache_.fillRange(key, 0, lo, lo + ways_per);
    } else {
        l2Cache_.fill(key);
    }

    l2Mshr_.complete(key, [this](ReqId waiter) { respondUp(waiter); });
}

void
Gpu::respondUp(ReqId id)
{
    MemRequest &req = pool_[id];
    if (req.origin == ReqOrigin::WarpData) {
        ShaderCore &core = *cores_[req.core];
        const std::uint64_t key = l2CacheKey(req.paddr);
        // This response is the only event that can change the outcome
        // of this core's parked MSHR-full accesses (L1 fill or MSHR
        // entry freed); wake them for this cycle's retry pass. The
        // filled key is the only line a parked entry can newly hit
        // on, and the completed MSHR entry can no longer be merged
        // into (the retry pass probes by key, DESIGN.md §12).
        if (coreDataWake_[req.core] == 0) {
            coreDataWake_[req.core] = 1;
            wokenCores_.push_back(req.core);
        }
        anyCoreDataWake_ = true;
        coreFilledKeys_[req.core].push_back(key);
        dataMergeKeys_[req.core].erase(key);
        core.l1d().fill(key);
        core.l1Mshr().complete(key, [this, &core](ReqId warp) {
            core.accessDone(static_cast<WarpId>(warp), now_);
        });
        pool_.release(id);
    } else {
        walkFetchReturned(id);
    }
}

// ---------------------------------------------------------------------
// Shared L2 data cache stage
// ---------------------------------------------------------------------

void
Gpu::stageL2Cache()
{
    for (std::uint32_t b = 0; b < l2Pipe_.numBanks(); ++b) {
        LatencyPipe &bank = l2Pipe_.bank(b);
        // Quiescent bank: nothing in flight to drain, nothing queued
        // to accept (l2Work_ > 0 only says *some* bank has work).
        if (bank.inFlight() == 0 && l2Input_[b].empty())
            continue;
        while (bank.hasReady(now_)) {
            --l2Work_;
            l2LookupDone(static_cast<ReqId>(bank.pop()));
        }
        auto &input = l2Input_[b];
        while (!input.empty() && bank.canAccept(now_)) {
            bank.push(input.front(), now_);
            input.pop_front();
        }
    }
}

void
Gpu::l2LookupDone(ReqId id)
{
    MemRequest &req = pool_[id];
    const std::uint64_t key = l2CacheKey(req.paddr);
    const bool hit = l2Cache_.lookup(key);

    // MSHR-full retries re-probe; count each logical access once.
    if (!req.l2StatsCounted) {
        req.l2StatsCounted = true;
        const auto type_idx = static_cast<int>(req.type);
        if (hit)
            ++l2Stats_[type_idx].hits;
        else
            ++l2Stats_[type_idx].misses;
        HitMiss &level_stats = l2StatsPerLevel_[req.pwLevel];
        if (hit)
            ++level_stats.hits;
        else
            ++level_stats.misses;
        l2Policy_.recordAccess(req.pwLevel, hit);
    }

    if (hit) {
        respondUp(id);
        return;
    }

    switch (l2Mshr_.allocate(key, id)) {
      case MshrTable::Outcome::Allocated:
        req.mshrPrimary = true;
        sendToDram(id);
        break;
      case MshrTable::Outcome::Merged:
        req.where = ReqStage::L2MshrMerged;
        break;
      case MshrTable::Outcome::Full:
        // Retry the lookup next cycle through the bank input queue;
        // the line may be present (or an MSHR free) by then.
        req.where = ReqStage::L2MshrFullRetry;
        ++l2Work_;
        l2Input_[l2Pipe_.bankFor(key)].push_back(id);
        break;
    }
}

void
Gpu::sendToL2(ReqId id)
{
    MemRequest &req = pool_[id];
    if (req.type == ReqType::Translation && cfg_.mask.l2Bypass &&
        l2Policy_.shouldBypass(req.pwLevel)) {
        // Bypass skips the L2 probe/fill, not the miss-merging: walks
        // to the same PTE line still coalesce in the MSHRs.
        req.bypassL2 = true;
        const std::uint64_t key = l2CacheKey(req.paddr);
        switch (l2Mshr_.allocate(key, id)) {
          case MshrTable::Outcome::Allocated:
            req.mshrPrimary = true;
            sendToDram(id);
            break;
          case MshrTable::Outcome::Merged:
            req.where = ReqStage::L2MshrMerged;
            break;
          case MshrTable::Outcome::Full:
            // Rare: forward unmerged rather than stall the walker.
            sendToDram(id);
            break;
        }
        return;
    }
    const std::uint64_t key = l2CacheKey(req.paddr);
    req.where = ReqStage::L2Input;
    ++l2Work_;
    l2Input_[l2Pipe_.bankFor(key)].push_back(id);
}

void
Gpu::sendToDram(ReqId id)
{
    MemRequest &req = pool_[id];
    if (dram_.canEnqueue(req)) {
        req.where = ReqStage::DramQueue;
        dram_.enqueue(id, req, now_);
    } else {
        dram_.noteReject(req);
        req.where = ReqStage::DramRetry;
        dramRetry_.push_back(id);
    }
}

// ---------------------------------------------------------------------
// Page walk cache stage (PwCache baseline, Fig. 2a)
// ---------------------------------------------------------------------

void
Gpu::stagePwCache()
{
    while (pwCachePipe_.hasReady(now_)) {
        const auto id = static_cast<ReqId>(pwCachePipe_.pop());
        MemRequest &req = pool_[id];
        const std::uint64_t key = l2CacheKey(req.paddr);
        if (pwCache_.lookup(key)) {
            ++pwStats_.hits;
            walkFetchReturned(id);
        } else {
            ++pwStats_.misses;
            sendToL2(id);
        }
    }
    while (!pwInput_.empty() && pwCachePipe_.canAccept(now_)) {
        pwCachePipe_.push(pwInput_.front(), now_);
        pwInput_.pop_front();
    }
}

// ---------------------------------------------------------------------
// Shared L2 TLB stage (SharedTlb baseline, Fig. 2b)
// ---------------------------------------------------------------------

void
Gpu::stageL2Tlb()
{
    while (l2TlbPipe_.hasReady(now_))
        resolveL2TlbLookup(
            static_cast<std::uint32_t>(l2TlbPipe_.pop()));
    // Injected transient port stall: lookups already in the pipe keep
    // draining, but no new probe enters this cycle.
    if (faults_.enabled() && faults_.portStalled(now_))
        return;
    while (!l2TlbInput_.empty() && l2TlbPipe_.canAccept(now_)) {
        l2TlbPipe_.push(l2TlbInput_.front(), now_);
        l2TlbInput_.pop_front();
    }
}

void
Gpu::resolveL2TlbLookup(std::uint32_t slot)
{
    TransSlot &s = transSlots_[slot];
    Pfn pfn = kInvalidPfn;

    // Probe the shared L2 TLB and (under MASK-TLB) the bypass cache in
    // parallel; a hit in either is a TLB hit (Section 5.2).
    bool hit = l2Tlb_.lookup(s.asid, s.vpn, &pfn);
    if (!hit && cfg_.mask.tlbTokens &&
        bypassCache_.lookup(s.asid, s.vpn, &pfn)) {
        hit = true;
    }

    if (hit) {
        const CoreId core = s.access.core;
        const Asid asid = s.asid;
        const Vpn vpn = s.vpn;
        const AppId app = s.app;
        freeTransSlot(slot);
        completeCoreTranslation(core, asid, vpn, app, pfn);
        return;
    }

    tlbMissToWalker(slot);
}

void
Gpu::tlbMissToWalker(std::uint32_t slot)
{
    TransSlot &s = transSlots_[slot];
    switch (tlbMshr_.allocate(s.asid, s.vpn, s.app, s.access, now_)) {
      case TlbMshrTable::Outcome::Allocated:
        // The key just became present: parked slots waiting on the
        // same translation can now merge.
        if (const std::uint32_t *parked =
                parkedTransKeys_.find(tlbKey(s.asid, s.vpn)))
            parkedMergeEligible_ += *parked;
        if (walker_.hasCapacity())
            startWalkFor(s.asid, s.vpn, s.app);
        else
            walkStartQueue_.push_back(tlbKey(s.asid, s.vpn));
        freeTransSlot(slot);
        break;
      case TlbMshrTable::Outcome::Merged:
        freeTransSlot(slot);
        break;
      case TlbMshrTable::Outcome::Full:
        parkTransSlot(slot);
        break;
    }
}

void
Gpu::parkTransSlot(std::uint32_t slot)
{
    const TransSlot &s = transSlots_[slot];
    const std::uint64_t key = tlbKey(s.asid, s.vpn);
    if (std::uint32_t *parked = parkedTransKeys_.find(key))
        ++*parked;
    else
        parkedTransKeys_.insert(key, 1);
    // A Full outcome implies the key is absent (present keys merge),
    // so a freshly parked slot is never merge-eligible.
    tlbMissRetry_.push_back(slot);
}

void
Gpu::unparkTransSlot(std::uint32_t slot)
{
    const TransSlot &s = transSlots_[slot];
    const std::uint64_t key = tlbKey(s.asid, s.vpn);
    std::uint32_t *parked = parkedTransKeys_.find(key);
    SIM_CHECK(parked != nullptr && *parked > 0, "sim.gpu", now_,
              "unparked a translation slot with no parked-key entry");
    if (--*parked == 0)
        parkedTransKeys_.erase(key);
    if (tlbMshr_.has(s.asid, s.vpn))
        --parkedMergeEligible_;
}

// ---------------------------------------------------------------------
// Page table walker stage
// ---------------------------------------------------------------------

void
Gpu::startWalkFor(Asid asid, Vpn vpn, AppId app)
{
    const auto addrs = pageTables_[app]->walkAddrs(vpn);
    const WalkId walk = walker_.startWalk(asid, vpn, app, addrs, now_);
    TlbMshrTable::Entry &entry = tlbMshr_.get(asid, vpn);
    entry.walkStarted = true;
    entry.walkId = walk;
}

void
Gpu::stageWalker()
{
    // Retry MSHR-full translation misses, but only on cycles where a
    // walk completion freed an entry: between completions the table
    // stays full and gains no keys (allocation needs space), so every
    // probe would return Full without touching any state. Within a
    // wake pass, probe only slots that can make progress: an allocate
    // needs free capacity and a merge needs the slot's key present in
    // the table, both O(1) tests against parkedTransKeys_ /
    // parkedMergeEligible_. A probe that runs always leaves the queue
    // (it allocates or merges); every other slot keeps its place. So
    // the pass is a stable removal of the probed slots, and once no
    // probe can succeed the unvisited tail is left untouched: the
    // work is O(slots visited), not O(parked).
    if (tlbRetryWake_) {
        tlbRetryWake_ = false;
        const std::size_t parked = tlbMissRetry_.size();
        std::size_t visited = 0;
        std::size_t kept = 0;
        for (; visited < parked; ++visited) {
            const bool full = tlbMshr_.size() >= tlbMshr_.capacity();
            if (full && parkedMergeEligible_ == 0)
                break; // no remaining probe can succeed
            const std::uint32_t slot = tlbMissRetry_[visited];
            const TransSlot &s = transSlots_[slot];
            if (full && !tlbMshr_.has(s.asid, s.vpn)) {
                tlbMissRetry_[kept++] = slot; // provably Full
                continue;
            }
            ++tlbRetryProbes_;
            unparkTransSlot(slot);
            tlbMissToWalker(slot);
            SIM_CHECK(tlbMissRetry_.size() == parked, "sim.gpu", now_,
                      "a translation retry probe parked again");
        }
        // Close the gap the probed slots left: the kept slots move up
        // against the unvisited ones and the freed front is dropped.
        const auto first = tlbMissRetry_.begin();
        std::move_backward(first, first + static_cast<std::ptrdiff_t>(kept),
                           first + static_cast<std::ptrdiff_t>(visited));
        tlbMissRetry_.erase(
            first, first + static_cast<std::ptrdiff_t>(visited - kept));
    }

    // Start queued walks as walker threads free up.
    while (!walkStartQueue_.empty() && walker_.hasCapacity()) {
        const std::uint64_t key = walkStartQueue_.front();
        walkStartQueue_.pop_front();
        const Asid asid = tlbKeyAsid(key);
        const Vpn vpn = tlbKeyVpn(key);
        startWalkFor(asid, vpn, tlbMshr_.get(asid, vpn).app);
    }

    // Issue the next PTE fetch of every walk that is ready for one.
    while (walker_.hasPendingFetch()) {
        const WalkId walk = walker_.popPendingFetch();
        issueWalkFetch(walk);
    }
}

void
Gpu::issueWalkFetch(WalkId walk)
{
    const PageTableWalker::WalkInfo &info = walker_.info(walk);
    const ReqId id = pool_.alloc();
    MemRequest &req = pool_[id];
    req.paddr = walker_.fetchAddr(walk) &
                ~((Addr{1} << cfg_.lineBits) - 1);
    req.asid = info.asid;
    req.app = info.app;
    req.type = ReqType::Translation;
    req.origin = ReqOrigin::PageWalk;
    req.pwLevel = walker_.fetchLevel(walk);
    req.walkId = walk;
    req.issueCycle = now_;
    req.where = ReqStage::WalkDispatch;
    dispatchTranslationRequest(id);
}

void
Gpu::dispatchTranslationRequest(ReqId id)
{
    if (cfg_.design == TranslationDesign::PwCache) {
        pool_[id].where = ReqStage::PwCacheInput;
        pwInput_.push_back(id);
    } else {
        sendToL2(id);
    }
}

void
Gpu::walkFetchReturned(ReqId id)
{
    const WalkId walk = pool_[id].walkId;
    pool_.release(id);
    if (faults_.enabled() && faults_.dropWalkFetch()) {
        // The PTE read is lost before reaching the walker. With retry
        // the fetch is reissued after a delay (the walk recovers);
        // without it the walk hangs until the watchdog trips.
        if (faults_.retryDroppedFetch()) {
            fetchRetry_.emplace_back(now_ + faults_.walkRetryDelay(),
                                     walk);
        }
        return;
    }
    if (walker_.fetchComplete(walk, now_))
        finishWalk(walk);
}

void
Gpu::finishWalk(WalkId walk)
{
    const PageTableWalker::WalkInfo info = walker_.info(walk);
    walker_.release(walk);

    if (obsTrace_ != nullptr &&
        obsTrace_->wants(obs::TraceCat::kWalk)) {
        obsTrace_->complete(
            obs::TraceCat::kWalk, "page_walk",
            static_cast<std::uint32_t>(info.app) + 1,
            info.startCycle, now_ - info.startCycle,
            {{"asid", static_cast<std::int64_t>(info.asid)},
             {"vpn", static_cast<std::int64_t>(info.vpn)}});
    }

    const Pfn pfn = pageTables_[info.app]->lookup(info.vpn);
    SIM_CHECK_CTX(pfn != kInvalidPfn, "sim.gpu", now_,
                  "walk finished for unmapped page",
                  (CheckContext{.asid = info.asid, .vpn = info.vpn,
                                .app = info.app, .walkId = walk}));

    TlbMshrTable::Entry entry = tlbMshr_.complete(info.asid, info.vpn);
    // Freeing a TLB MSHR entry is the only event that can unpark an
    // MSHR-full translation slot (allocate's Full path is mutation-
    // free, and no entry can be added while any slot is parked).
    tlbRetryWake_ = true;
    // The key left the table: parked slots waiting on it can no
    // longer merge (their next probe must allocate).
    if (const std::uint32_t *parked =
            parkedTransKeys_.find(tlbKey(info.asid, info.vpn)))
        parkedMergeEligible_ -= *parked;
    tlbMissLatency_.add(
        static_cast<double>(now_ - entry.firstMissCycle));

    // True Fig. 6 statistic: warp-accesses parked across all waiting
    // cores' translation MSHRs for this miss.
    std::size_t stalled = 0;
    const std::uint64_t key = tlbKey(info.asid, info.vpn);
    for (const StalledAccess &access : entry.waiters) {
        const auto *parked = coreTransWaiters_[access.core].find(key);
        if (parked != nullptr)
            stalled += parked->size();
    }
    warpsPerMiss_.add(static_cast<double>(stalled));
    warpsPerMissPerApp_[info.app].add(static_cast<double>(stalled));

    fillL2TlbOnWalkDone(entry, pfn);

    // One waiter per requesting core (per-core MSHRs coalesce the
    // rest); each drains its core's parked accesses.
    for (const StalledAccess &access : entry.waiters) {
        completeCoreTranslation(access.core, info.asid, info.vpn,
                                info.app, pfn);
    }
}

void
Gpu::fillL2TlbOnWalkDone(const TlbMshrTable::Entry &entry, Pfn pfn)
{
    if (cfg_.design != TranslationDesign::SharedTlb)
        return;

    if (cfg_.mask.tlbTokens) {
        // The warp that triggered the walk decides where the PTE
        // lands: shared L2 TLB if it holds a token, bypass cache
        // otherwise (Section 5.2).
        SIM_CHECK_CTX(!entry.waiters.empty(), "sim.gpu", now_,
                      "walk completed with no recorded waiters",
                      (CheckContext{.asid = entry.asid,
                                    .vpn = entry.vpn,
                                    .app = entry.app}));
        const StalledAccess &primary = entry.waiters.front();
        const std::uint32_t warp_index =
            coreAppIndex_[primary.core] * cfg_.warpsPerCore +
            primary.warp;
        if (tokens_.mayFill(entry.app, warp_index))
            l2Tlb_.fill(entry.asid, entry.vpn, pfn);
        else
            bypassCache_.fill(entry.asid, entry.vpn, pfn);
    } else {
        l2Tlb_.fill(entry.asid, entry.vpn, pfn);
    }
}

// ---------------------------------------------------------------------
// Core stage
// ---------------------------------------------------------------------

void
Gpu::stageCores()
{
    // Retry data accesses that found the L1 MSHRs full. A parked
    // access can only stop parking when its core receives a memory
    // response (L1 fill or MSHR completion, both in respondUp): while
    // none arrives the core's MSHR table stays full, its L1 cannot
    // newly hit, and no key can be added for a merge. Within a woken
    // core, the keyed index elides the probes that would provably
    // return Full again (DESIGN.md §12):
    //
    //   Phase 1 — while the core has a free MSHR slot, the oldest
    //   probe cannot Fail (merge is checked before capacity), so pop
    //   and probe in a k-way merge by sequence number across woken
    //   cores; request-pool allocation order matches the single-queue
    //   pass exactly. MSHR completions never happen mid-pass, so a
    //   core that fills up stays full and leaves the phase for good.
    //
    //   Phase 2 — with the MSHR full, a probe can only succeed as an
    //   L1 hit (its key was filled this cycle) or a merge (its key
    //   has an outstanding MSHR entry). Probe exactly those key
    //   chains in sequence order — full-table probes never allocate,
    //   so cross-core order no longer matters — and charge every
    //   other parked entry its miss + rejection in closed form, the
    //   same counters its Full probe would have bumped.
    //
    // Non-woken cores are charged entirely in closed form.
    if (dataRetryCount_ > 0 && anyCoreDataWake_) {
        dataRetryWoken_.clear();
        std::sort(wokenCores_.begin(), wokenCores_.end());
        for (const CoreId c : wokenCores_) {
            if (!dataRetryByCore_[c].empty())
                dataRetryWoken_.push_back(RetryPassCore{
                    c, dataRetryByCore_[c].size(), 0, true});
        }
        while (true) {
            std::size_t best = dataRetryWoken_.size();
            std::uint64_t best_seq = ~std::uint64_t{0};
            for (std::size_t i = 0; i < dataRetryWoken_.size(); ++i) {
                RetryPassCore &wc = dataRetryWoken_[i];
                if (!wc.inPhase1)
                    continue;
                const DataRetryQueue &q = dataRetryByCore_[wc.core];
                const MshrTable &mshr = cores_[wc.core]->l1Mshr();
                if (q.empty() || mshr.size() >= mshr.capacity()) {
                    wc.inPhase1 = false;
                    continue;
                }
                const std::uint64_t seq = q.at(q.head()).seq;
                if (seq < best_seq) {
                    best = i;
                    best_seq = seq;
                }
            }
            if (best == dataRetryWoken_.size())
                break;
            RetryPassCore &wc = dataRetryWoken_[best];
            DataRetryQueue &q = dataRetryByCore_[wc.core];
            const std::uint32_t n = q.head();
            const DataRetryQueue::Entry e = q.at(n);
            if (q.remove(n))
                dataMergeKeys_[wc.core].erase(e.key);
            --dataRetryCount_;
            ++wc.probes;
            ++dataRetryProbes_;
            const bool ok =
                tryStartDataAccess(e.access, e.app, e.pfn);
            SIM_CHECK_CTX(ok, "sim.gpu", now_,
                          "retry probe returned Full with a free L1 "
                          "MSHR slot",
                          (CheckContext{.app = e.app,
                                        .paddr = e.key}));
        }
        for (RetryPassCore &wc : dataRetryWoken_) {
            DataRetryQueue &q = dataRetryByCore_[wc.core];
            if (!q.empty()) {
                retryCandKeys_.clear();
                for (const std::uint64_t k :
                     coreFilledKeys_[wc.core]) {
                    if (q.hasKey(k))
                        retryCandKeys_.push_back(k);
                }
                dataMergeKeys_[wc.core].forEach(
                    [this](std::uint64_t k, std::uint8_t) {
                        retryCandKeys_.push_back(k);
                    });
                std::sort(retryCandKeys_.begin(),
                          retryCandKeys_.end());
                retryCandKeys_.erase(
                    std::unique(retryCandKeys_.begin(),
                                retryCandKeys_.end()),
                    retryCandKeys_.end());
                retryChainCursor_.clear();
                for (const std::uint64_t k : retryCandKeys_)
                    retryChainCursor_.push_back(q.chainHead(k));
                while (true) {
                    std::size_t best = retryChainCursor_.size();
                    std::uint64_t best_seq = ~std::uint64_t{0};
                    for (std::size_t i = 0;
                         i < retryChainCursor_.size(); ++i) {
                        const std::uint32_t cur =
                            retryChainCursor_[i];
                        if (cur == DataRetryQueue::kNil)
                            continue;
                        if (q.at(cur).seq < best_seq) {
                            best = i;
                            best_seq = q.at(cur).seq;
                        }
                    }
                    if (best == retryChainCursor_.size())
                        break;
                    const std::uint32_t cur =
                        retryChainCursor_[best];
                    const DataRetryQueue::Entry e = q.at(cur);
                    retryChainCursor_[best] = q.chainNext(cur);
                    ++wc.probes;
                    ++dataRetryProbes_;
                    if (tryStartDataAccess(e.access, e.app, e.pfn)) {
                        if (q.remove(cur))
                            dataMergeKeys_[wc.core].erase(e.key);
                        --dataRetryCount_;
                    }
                    // On Full the entry stays parked in place; the
                    // probe itself bumped the miss/rejection counters
                    // exactly as the rescanning pass would have.
                }
            }
            const std::size_t elided = wc.nStart - wc.probes;
            if (elided > 0) {
                ShaderCore &core = *cores_[wc.core];
                core.l1dStats().misses += elided;
                core.l1Mshr().addRejections(elided);
            }
        }
    }
    if (dataRetryCount_ > 0) {
        for (CoreId c = 0; c < cores_.size(); ++c) {
            if (coreDataWake_[c] != 0)
                continue; // probed or charged above
            const std::size_t n = dataRetryByCore_[c].size();
            if (n == 0)
                continue;
            ShaderCore &core = *cores_[c];
            core.l1dStats().misses += n;
            core.l1Mshr().addRejections(n);
        }
    }
    if (anyCoreDataWake_) {
        for (const CoreId c : wokenCores_) {
            coreDataWake_[c] = 0;
            coreFilledKeys_[c].clear();
        }
        wokenCores_.clear();
        anyCoreDataWake_ = false;
    }

    // Lazy issue (DESIGN.md §9): a core whose warps all wait, or
    // whose greedy warp is mid compute run, only counts until
    // nextIssue(); those cycles are settled when read.
    for (auto &core : cores_) {
        if (core->nextIssue() > now_)
            continue;
        const std::optional<IssuedAccess> issued = core->issue(now_);
        if (issued.has_value())
            handleCoreAccess(*core, *issued);
    }
    coresIssuedTo_ = now_ + 1;
}

void
Gpu::handleCoreAccess(ShaderCore &core, const IssuedAccess &issued)
{
    const AppId app = core.app();
    for (std::uint32_t part = 0; part < issued.count; ++part) {
        core.noteAccessInFlight();
        const Addr vaddr = issued.vaddrs[part];
        const Vpn vpn = vpnOf(vaddr);

        // Demand-map on first touch; page faults are future work in
        // the paper (Section 5.5) and cost nothing here.
        const Pfn pfn = pageTables_[app]->mapPage(vpn);

        StalledAccess access;
        access.vaddr = vaddr;
        access.core = core.id();
        access.warp = issued.warp;
        access.issueCycle = now_;

        if (cfg_.ideal()) {
            // Ideal TLB: translation is free and always correct.
            startDataAccess(access, app, pfn);
            continue;
        }

        Pfn cached = kInvalidPfn;
        if (core.l1Tlb().lookup(core.asid(), vpn, &cached)) {
            startDataAccess(access, app, cached);
            continue;
        }
        onL1TlbMiss(core, access, vpn);
    }
}

void
Gpu::onL1TlbMiss(ShaderCore &core, const StalledAccess &access, Vpn vpn)
{
    // Per-core translation MSHR: coalesce concurrent misses from this
    // core to the same page into one shared-structure probe.
    auto &waiters = coreTransWaiters_[core.id()];
    const std::uint64_t key = tlbKey(core.asid(), vpn);
    ++stalledAccesses_[core.app()];
    if (std::vector<StalledAccess> *parked = waiters.find(key)) {
        parked->push_back(access);
        return;
    }
    waiters.insert(key, std::vector<StalledAccess>{access});

    const std::uint32_t slot =
        allocTransSlot(access, core.asid(), vpn, core.app());
    if (cfg_.design == TranslationDesign::SharedTlb)
        l2TlbInput_.push_back(slot);
    else
        tlbMissToWalker(slot); // PwCache: miss goes straight to a walk
}

void
Gpu::completeCoreTranslation(CoreId core, Asid asid, Vpn vpn, AppId app,
                             Pfn pfn)
{
    cores_[core]->l1Tlb().fill(asid, vpn, pfn);

    auto &waiters = coreTransWaiters_[core];
    const std::uint64_t key = tlbKey(asid, vpn);
    std::vector<StalledAccess> parked;
    SIM_CHECK_CTX(waiters.take(key, parked), "sim.gpu", now_,
                  "translation completed with no core waiters",
                  (CheckContext{.asid = asid, .vpn = vpn, .app = app}));
    SIM_CHECK_CTX(stalledAccesses_[app] >= parked.size(), "sim.gpu",
                  now_, "stalled-access counter underflow on wakeup",
                  (CheckContext{.asid = asid, .vpn = vpn, .app = app}));
    stalledAccesses_[app] -= static_cast<std::uint32_t>(parked.size());
    for (const StalledAccess &access : parked)
        startDataAccess(access, app, pfn);
}

/**
 * Issue a translated data access into the L1/L2 hierarchy. Returns
 * false when every L1 MSHR entry is busy (Full) without parking the
 * access: the caller either parks it (startDataAccess) or, on the
 * retry path, leaves the already-parked entry in place.
 */
bool
Gpu::tryStartDataAccess(const StalledAccess &access, AppId app,
                        Pfn pfn)
{
    ShaderCore &core = *cores_[access.core];
    const Addr paddr = dataPaddr(access, pfn);
    const std::uint64_t key = l2CacheKey(paddr);

    if (core.l1d().lookup(key)) {
        ++core.l1dStats().hits;
        core.accessDone(access.warp, now_);
        return true;
    }
    ++core.l1dStats().misses;

    switch (core.l1Mshr().allocate(key, access.warp)) {
      case MshrTable::Outcome::Allocated: {
        // The key just became outstanding: parked retries on the same
        // line would now Merge, so mark it merge-eligible for the
        // retry pass (DESIGN.md §12).
        const DataRetryQueue &parked = dataRetryByCore_[access.core];
        if (!parked.empty() && parked.hasKey(key) &&
            !dataMergeKeys_[access.core].contains(key)) {
            dataMergeKeys_[access.core].insert(key, 1);
        }
        const ReqId id = pool_.alloc();
        MemRequest &req = pool_[id];
        req.paddr = paddr;
        req.asid = core.asid();
        req.app = app;
        req.core = access.core;
        req.warp = access.warp;
        req.type = ReqType::Data;
        req.origin = ReqOrigin::WarpData;
        req.pwLevel = 0;
        req.issueCycle = access.issueCycle;
        sendToL2(id);
        return true;
      }
      case MshrTable::Outcome::Merged:
        return true;
      case MshrTable::Outcome::Full:
        return false;
    }
    return false; // unreachable
}

void
Gpu::startDataAccess(const StalledAccess &access, AppId app, Pfn pfn)
{
    if (tryStartDataAccess(access, app, pfn))
        return;
    // All L1 MSHR entries busy: park keyed by L1 line. Full implies
    // the key has no outstanding MSHR entry (merge is checked before
    // capacity), so the new entry is never merge-eligible at park
    // time.
    dataRetryByCore_[access.core].park(
        access, app, pfn, dataRetrySeq_++,
        l2CacheKey(dataPaddr(access, pfn)));
    ++dataRetryCount_;
}

// ---------------------------------------------------------------------
// Samplers, epochs, switches
// ---------------------------------------------------------------------

void
Gpu::stageSamplers()
{
    // The interval samplers record once per 10K cycles; only gather
    // their (core-scanning) inputs on cycles where a sample lands.
    // The quota controller accumulates every cycle by design (its
    // Equation 1 weights are per-cycle sums), so it is not gated.
    if (walkSampler_.due(now_)) {
        walkSampler_.tick(now_,
                          static_cast<double>(walker_.activeWalks()));
        for (AppId a = 0; a < apps_.size(); ++a) {
            walkSamplerPerApp_[a].tick(
                now_, static_cast<double>(walker_.activeWalksFor(a)));
        }
    }

    if (readySampler_.due(now_)) {
        double ready = 0.0;
        for (const auto &core : cores_)
            ready += core->readyWarps();
        readySampler_.tick(now_, ready / static_cast<double>(
                                             cores_.size()));
    }

    if (cfg_.mask.dramSched) {
        for (AppId a = 0; a < apps_.size(); ++a) {
            quota_.sample(a, walker_.activeWalksFor(a),
                          stalledAccesses_[a]);
        }
    }
}

void
Gpu::stageEpoch()
{
    if (now_ < nextEpoch_)
        return;
    nextEpoch_ += cfg_.mask.epochCycles;

    if (obsTrace_ != nullptr)
        obsEpochPre();

    for (AppId a = 0; a < apps_.size(); ++a) {
        tokens_.onEpoch(
            a, l2Tlb_.epochStatsFor(apps_[a].asid).missRate());
    }
    tokens_.epochComplete();
    l2Tlb_.resetEpochStats();
    l2Policy_.onEpoch();
    quota_.onEpoch();
    dram_.onEpoch();

    if (obsTrace_ != nullptr)
        obsEpochPost();
}

void
Gpu::tlbShootdown(Asid asid)
{
    if (obsTrace_ != nullptr &&
        obsTrace_->wants(obs::TraceCat::kShootdown)) {
        obsTrace_->instant(
            obs::TraceCat::kShootdown, "tlb_shootdown", 0, now_,
            {{"asid", static_cast<std::int64_t>(asid)}});
    }
    for (auto &core : cores_) {
        if (core->asid() == asid)
            core->l1Tlb().flushAsid(asid);
    }
    l2Tlb_.flushAsid(asid);
    // Section 5.2: the bypass cache is flushed whenever PTEs change.
    bypassCache_.flush();
    // The page walk cache holds raw PTE lines without ASID tags;
    // flush it conservatively.
    pwCache_.flush();
}

void
Gpu::switchAllCores(AppId app, Cycle switch_penalty)
{
    creditInstructions();
    ++switchSeed_;
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!pendingSwitch_[c].pending)
            ++switchesInFlight_;
        pendingSwitch_[c] =
            PendingSwitch{true, app, now_ + switch_penalty};
        cores_[c]->startDrain();
    }
}

bool
Gpu::switchesPending() const
{
    for (const auto &sw : pendingSwitch_) {
        if (sw.pending)
            return true;
    }
    return false;
}

void
Gpu::stageSwitches()
{
    for (CoreId c = 0; c < cores_.size(); ++c) {
        PendingSwitch &sw = pendingSwitch_[c];
        if (!sw.pending || !cores_[c]->drained() ||
            now_ < sw.notBefore) {
            continue;
        }
        ShaderCore &core = *cores_[c];
        core.settle(coresIssuedTo_);
        // A drained core must have no residual miss state: leaked L1
        // MSHR entries or parked translations would silently corrupt
        // the incoming app (drained() means outstanding == 0).
        SIM_CHECK_CTX(core.l1Mshr().size() == 0, "sim.gpu", now_,
                      "core switched apps with live L1 MSHR entries",
                      (CheckContext{.app = core.app()}));
        SIM_CHECK_CTX(coreTransWaiters_[c].empty(), "sim.gpu", now_,
                      "core switched apps with parked translation "
                      "waiters",
                      (CheckContext{.app = core.app()}));
        // Credit what the outgoing app executed on this core.
        appInstr_[core.app()] +=
            core.instructions() - coreInstrCredited_[c];
        coreInstrCredited_[c] = core.instructions();

        // Address-space change: flush this core's L1 TLB (Section
        // 5.1); assign() also cold-starts the L1 data cache.
        core.assign(sw.app, apps_[sw.app].asid, apps_[sw.app].bench,
                    apps_[sw.app].streams.get(),
                    c * cfg_.warpsPerCore,
                    cfg_.seed * 31 + c + switchSeed_ * 131071);
        coreAppIndex_[c] = static_cast<std::uint16_t>(c);
        sw.pending = false;
        --switchesInFlight_;
    }
}

// ---------------------------------------------------------------------
// Slots, stats
// ---------------------------------------------------------------------

std::uint32_t
Gpu::allocTransSlot(const StalledAccess &access, Asid asid, Vpn vpn,
                    AppId app)
{
    std::uint32_t slot;
    if (!freeTransSlots_.empty()) {
        slot = freeTransSlots_.back();
        freeTransSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(transSlots_.size());
        transSlots_.emplace_back();
    }
    transSlots_[slot] = TransSlot{access, asid, vpn, app, true};
    return slot;
}

void
Gpu::freeTransSlot(std::uint32_t slot)
{
    SIM_CHECK(transSlots_[slot].inUse, "sim.gpu", now_,
              "freed a translation slot not in use");
    transSlots_[slot].inUse = false;
    freeTransSlots_.push_back(slot);
}

void
Gpu::settleCores()
{
    for (auto &core : cores_)
        core->settle(coresIssuedTo_);
}

void
Gpu::creditInstructions()
{
    settleCores();
    for (CoreId c = 0; c < cores_.size(); ++c) {
        appInstr_[cores_[c]->app()] +=
            cores_[c]->instructions() - coreInstrCredited_[c];
        coreInstrCredited_[c] = cores_[c]->instructions();
    }
}

std::uint64_t
Gpu::appInstructions(AppId app)
{
    creditInstructions();
    return appInstr_[app];
}

void
Gpu::resetStats()
{
    statsStart_ = now_;
    settleCores();
    std::fill(appInstr_.begin(), appInstr_.end(), 0);
    for (CoreId c = 0; c < cores_.size(); ++c) {
        cores_[c]->resetStats();
        coreInstrCredited_[c] = 0;
    }
    l2Tlb_.resetStats();
    bypassCache_.resetStats();
    pwStats_.reset();
    for (auto &hm : l2Stats_)
        hm.reset();
    for (auto &hm : l2StatsPerLevel_)
        hm.reset();
    dram_.resetStats();
    walker_.resetStats();
    tlbMshr_.resetStats();
    tlbMissLatency_.reset();
    warpsPerMiss_.reset();
    for (auto &stat : warpsPerMissPerApp_)
        stat.reset();
    walkSampler_.reset();
    for (auto &sampler : walkSamplerPerApp_)
        sampler.reset();
    readySampler_.reset();
    watchdog_.resetStats();
    wallSeconds_ = 0.0;
    ckptWriteSeconds_ = 0.0;
    ckptBytes_ = 0;
    ckptWrites_ = 0;
    allocsAtReset_ = pool_.totalAllocated();
    dataRetryProbes_ = 0;
    tlbRetryProbes_ = 0;
    std::fill(std::begin(stageSeconds_), std::end(stageSeconds_), 0.0);
    std::fill(std::begin(stageCalls_), std::end(stageCalls_),
              std::uint64_t{0});
    // The reset zeroed most cumulative counters the gauges take
    // deltas of; re-capture the baselines from the post-reset values.
    obsCaptureBaseline();
}

GpuStats
Gpu::collect()
{
    creditInstructions();

    GpuStats out;
    out.cycles = now_ - statsStart_;
    out.instructions = appInstr_;
    out.ipc.resize(apps_.size());
    for (AppId a = 0; a < apps_.size(); ++a) {
        out.ipc[a] = safeDiv(static_cast<double>(appInstr_[a]),
                             static_cast<double>(out.cycles));
    }

    for (auto &core : cores_) {
        out.l1Tlb += core->l1Tlb().stats();
        out.l1d += core->l1dStats();
        out.warpStallCycles += core->stallCycles();
    }
    out.l2Tlb = l2Tlb_.stats();
    for (AppId a = 0; a < apps_.size(); ++a)
        out.l2TlbPerApp.push_back(l2Tlb_.statsFor(apps_[a].asid));
    out.bypassCache = bypassCache_.stats();
    out.pwCache = pwStats_;
    out.l2Cache[0] = l2Stats_[0];
    out.l2Cache[1] = l2Stats_[1];
    for (int lvl = 0; lvl < 5; ++lvl)
        out.l2CachePerLevel[lvl] = l2StatsPerLevel_[lvl];

    out.dram = dram_.aggregateStats();
    out.walks = walker_.walksStarted();
    out.walkLatency = walker_.walkLatency();
    out.tlbMissLatency = tlbMissLatency_;
    out.concurrentWalks = walkSampler_.stat();
    for (auto &sampler : walkSamplerPerApp_)
        out.concurrentWalksPerApp.push_back(sampler.stat());
    out.warpsPerMiss = warpsPerMiss_;
    out.warpsPerMissPerApp = warpsPerMissPerApp_;
    out.readyWarpsPerCore = readySampler_.stat();

    for (AppId a = 0; a < apps_.size(); ++a)
        out.tokens.push_back(tokens_.tokens(a));
    out.l2Bypasses = l2Policy_.bypasses();
    out.poolPeakLive = pool_.peakLive();
    out.poolCapacity = pool_.capacity();
    out.wallSeconds = wallSeconds_;
    out.ckptWriteSeconds = ckptWriteSeconds_;
    out.ckptBytes = ckptBytes_;
    out.ckptWrites = ckptWrites_;
    out.requests = pool_.totalAllocated() - allocsAtReset_;
    out.dramSchedPicks = dram_.schedPicks();
    out.dramSchedBanksScanned = dram_.schedUnitsScanned();
    out.dataRetryProbes = dataRetryProbes_;
    out.tlbRetryProbes = tlbRetryProbes_;
    if (profileStages_) {
        out.stageSeconds.assign(std::begin(stageSeconds_),
                                std::end(stageSeconds_));
        out.stageCalls.assign(std::begin(stageCalls_),
                              std::end(stageCalls_));
    }
    out.watchdogSweeps = watchdog_.sweeps();
    out.watchdogMaxAgeSeen = watchdog_.maxAgeSeen();
    out.faultsInjected =
        faults_.delaysInjected() + faults_.dropsInjected() +
        faults_.shootdownsInjected() + faults_.portStallsInjected();
    return out;
}

// ---------------------------------------------------------------------
// Observability (DESIGN.md §13)
// ---------------------------------------------------------------------
//
// Everything below is observation-only: it reads the simulated
// machine, never feeds back into it, is never serialized, and its
// knobs (resolved from the environment, or from the sweep runner's
// per-job thread-local override, at construction) take no part in
// configFingerprint. Rows are sampled at the end of tickOne(), after
// every stage of the cycle has run.

void
Gpu::obsInit()
{
    const obs::ObsOptions opts = obs::resolveObsOptions();
    obsStageProfilePath_ = opts.stageProfilePath;

    if (opts.traceOn()) {
        obsTrace_ = std::make_unique<obs::TraceWriter>(
            opts.tracePath, opts.traceCats, obs::kTraceRingEvents);
    }

    if (!opts.timeseriesOn())
        return;

    // Column registry. obsSampleAt() fills obsVals_ in EXACTLY this
    // order — keep the two in sync.
    obs::SeriesRegistry reg;
    for (AppId a = 0; a < apps_.size(); ++a) {
        const int app = static_cast<int>(a);
        const std::string sfx = ".app" + std::to_string(app);
        reg.add({"l1_tlb_hit_rate" + sfx, "ratio", app, "gauge",
                 "per-interval L1 TLB hit rate over the app's cores"});
        reg.add({"l2_tlb_hit_rate" + sfx, "ratio", app, "gauge",
                 "per-interval shared L2 TLB hit rate"});
        reg.add({"tokens" + sfx, "count", app, "gauge",
                 "TLB-Fill Tokens held (Section 5.2)"});
        reg.add({"active_walks" + sfx, "count", app, "gauge",
                 "page walks in flight in the shared walker"});
        reg.add({"silver_quota" + sfx, "count", app, "gauge",
                 "Equation 1 thresh_i Silver-queue quota"});
        reg.add({"quota_pressure" + sfx, "ratio", app, "gauge",
                 "app share of the Equation 1 weight sum"});
        reg.add({"ipc" + sfx, "ipc", app, "gauge",
                 "instructions per cycle over the interval"});
    }
    reg.add({"walk_start_queue", "count", -1, "gauge",
             "walks waiting for a free walker thread"});
    reg.add({"l2_bypass_rate", "ratio", -1, "gauge",
             "bypassed fraction of walk-level L2 lookups (interval)"});
    for (std::uint32_t lvl = 1; lvl <= L2BypassPolicy::kMaxLevel;
         ++lvl) {
        reg.add({"l2_bypass_on_l" + std::to_string(lvl), "bool", -1,
                 "gauge",
                 "walk level currently bypasses the shared L2"});
    }
    for (std::uint32_t c = 0; c < dram_.numChannels(); ++c) {
        const std::string sfx = ".ch" + std::to_string(c);
        reg.add({"dram_queue_depth" + sfx, "count", -1, "gauge",
                 "requests queued in the channel's buffers"});
        reg.add({"dram_row_hit_rate" + sfx, "ratio", -1, "gauge",
                 "row-buffer hit fraction over the interval"});
        reg.add({"dram_issue_golden" + sfx, "count", -1, "delta",
                 "requests issued from the Golden queue (interval)"});
        reg.add({"dram_issue_silver" + sfx, "count", -1, "delta",
                 "requests issued from the Silver queue (interval)"});
        reg.add({"dram_issue_normal" + sfx, "count", -1, "delta",
                 "requests issued from the Normal queue (interval)"});
    }

    obsVals_.assign(reg.size(), 0.0);
    obsTs_ = std::make_unique<obs::TimeseriesWriter>(
        opts.timeseriesPath, std::move(reg), opts.timeseriesInterval,
        obs::kTimeseriesRingRows);
    obsCaptureBaseline();
}

namespace {

/** Counter delta clamped at zero: epoch decay (L2 bypass stats) can
 *  shrink a cumulative counter between samples. */
double
obsDelta(std::uint64_t cur, std::uint64_t prev)
{
    return cur >= prev ? static_cast<double>(cur - prev) : 0.0;
}

} // namespace

Gpu::ObsCounters
Gpu::obsGather()
{
    creditInstructions();
    const std::size_t num_apps = apps_.size();
    ObsCounters out;
    out.l1Hits.resize(num_apps);
    out.l1Misses.resize(num_apps);
    out.l2Hits.resize(num_apps);
    out.l2Misses.resize(num_apps);
    out.instr.resize(num_apps);
    for (AppId a = 0; a < num_apps; ++a) {
        for (const CoreId c : apps_[a].cores) {
            const HitMiss &hm = cores_[c]->l1Tlb().stats();
            out.l1Hits[a] += hm.hits;
            out.l1Misses[a] += hm.misses;
        }
        const HitMiss &l2 = l2Tlb_.statsFor(apps_[a].asid);
        out.l2Hits[a] = l2.hits;
        out.l2Misses[a] = l2.misses;
        out.instr[a] = appInstr_[a];
    }
    const std::uint32_t channels = dram_.numChannels();
    out.rowHits.resize(channels);
    out.rowAcc.resize(channels);
    for (auto &q : out.issued)
        q.resize(channels);
    for (std::uint32_t c = 0; c < channels; ++c) {
        const DramChannel &ch = dram_.channel(c);
        const DramChannelStats &s = ch.stats();
        out.rowHits[c] = s.rowHits;
        out.rowAcc[c] = s.rowHits + s.rowMisses + s.rowConflicts;
        for (std::size_t q = 0; q < 3; ++q)
            out.issued[q][c] = ch.servicedFromQueue(q);
    }
    out.bypasses = l2Policy_.bypasses();
    for (std::uint32_t lvl = 1; lvl <= L2BypassPolicy::kMaxLevel;
         ++lvl) {
        out.walkAcc += l2Policy_
                           .stats(static_cast<std::uint8_t>(lvl))
                           .accesses();
    }
    return out;
}

void
Gpu::obsCaptureBaseline()
{
    if (obsTs_ == nullptr)
        return;
    obsLastSample_ = now_;
    obsPrev_ = obsGather();
}

void
Gpu::obsSampleAt(Cycle cycle)
{
    ObsCounters n = obsGather();
    const ObsCounters &p = obsPrev_;
    const Cycle dt = cycle - obsLastSample_;
    std::size_t i = 0;

    for (AppId a = 0; a < apps_.size(); ++a) {
        const double dl1h = obsDelta(n.l1Hits[a], p.l1Hits[a]);
        const double dl1m = obsDelta(n.l1Misses[a], p.l1Misses[a]);
        obsVals_[i++] = safeDiv(dl1h, dl1h + dl1m);
        const double dl2h = obsDelta(n.l2Hits[a], p.l2Hits[a]);
        const double dl2m = obsDelta(n.l2Misses[a], p.l2Misses[a]);
        obsVals_[i++] = safeDiv(dl2h, dl2h + dl2m);

        obsVals_[i++] = static_cast<double>(tokens_.tokens(a));
        obsVals_[i++] =
            static_cast<double>(walker_.activeWalksFor(a));
        obsVals_[i++] = static_cast<double>(quota_.silverQuota(a));
        obsVals_[i++] = quota_.pressure(a);

        obsVals_[i++] = safeDiv(obsDelta(n.instr[a], p.instr[a]),
                                static_cast<double>(dt));
    }

    obsVals_[i++] = static_cast<double>(walkStartQueue_.size());

    // Bypassed lookups never probe the L2, so the stats denominators
    // exclude them; the fraction is bypasses / (lookups + bypasses).
    const double dbyp = obsDelta(n.bypasses, p.bypasses);
    const double dwalk = obsDelta(n.walkAcc, p.walkAcc);
    obsVals_[i++] = safeDiv(dbyp, dwalk + dbyp);

    // The live bypass decision is hitRate(level) < hitRate(0),
    // computed WITHOUT shouldBypass(): that call advances the
    // sampling-probe countdown, which is serialized machine state.
    const double data_rate = l2Policy_.hitRate(0);
    for (std::uint32_t lvl = 1; lvl <= L2BypassPolicy::kMaxLevel;
         ++lvl) {
        obsVals_[i++] =
            l2Policy_.hitRate(static_cast<std::uint8_t>(lvl)) <
                    data_rate
                ? 1.0
                : 0.0;
    }

    for (std::uint32_t c = 0; c < dram_.numChannels(); ++c) {
        obsVals_[i++] =
            static_cast<double>(dram_.channel(c).queuedRequests());
        obsVals_[i++] = safeDiv(obsDelta(n.rowHits[c], p.rowHits[c]),
                                obsDelta(n.rowAcc[c], p.rowAcc[c]));
        for (std::size_t q = 0; q < 3; ++q)
            obsVals_[i++] = obsDelta(n.issued[q][c], p.issued[q][c]);
    }

    obsPrev_ = std::move(n);
    obsLastSample_ = cycle;
    obsTs_->record(cycle, obsVals_);
}

void
Gpu::obsEpochPre()
{
    obsEpochTokens_.resize(apps_.size());
    for (AppId a = 0; a < apps_.size(); ++a)
        obsEpochTokens_[a] = tokens_.tokens(a);
}

void
Gpu::obsEpochPost()
{
    if (obsTrace_->wants(obs::TraceCat::kQuota)) {
        obsTrace_->instant(
            obs::TraceCat::kQuota, "epoch", 0, now_,
            {{"epoch",
              static_cast<std::int64_t>(tokens_.epochsDone())}});
    }
    if (obsTrace_->wants(obs::TraceCat::kTlb)) {
        for (AppId a = 0; a < apps_.size(); ++a) {
            const std::uint32_t cur = tokens_.tokens(a);
            if (cur == obsEpochTokens_[a])
                continue;
            obsTrace_->instant(
                obs::TraceCat::kTlb, "tokens",
                static_cast<std::uint32_t>(a) + 1, now_,
                {{"tokens", static_cast<std::int64_t>(cur)},
                 {"dir", tokens_.lastDirection(a)}});
        }
    }
    if (obsTrace_->wants(obs::TraceCat::kWalk)) {
        // Same countdown-free decision readout as obsSampleAt().
        const double data_rate = l2Policy_.hitRate(0);
        for (std::uint32_t lvl = 1; lvl <= L2BypassPolicy::kMaxLevel;
             ++lvl) {
            const bool on =
                l2Policy_.hitRate(static_cast<std::uint8_t>(lvl)) <
                data_rate;
            if (on == obsBypassOn_[lvl])
                continue;
            obsBypassOn_[lvl] = on;
            obsTrace_->instant(
                obs::TraceCat::kWalk, "bypass_flip", 0, now_,
                {{"level", static_cast<std::int64_t>(lvl)},
                 {"on", on ? 1 : 0}});
        }
    }
}

void
Gpu::obsFlush()
{
    if (obsTs_ != nullptr)
        obsTs_->flush();
    if (obsTrace_ != nullptr)
        obsTrace_->flush();
}

void
Gpu::obsFinish()
{
    if (obsTs_ != nullptr)
        obsTs_->flush();
    if (obsTrace_ != nullptr)
        obsTrace_->close();
    if (profileStages_ && !obsStageProfilePath_.empty())
        obsWriteStageProfile();
}

void
Gpu::obsWriteStageProfile()
{
    // Stage times are host wall-clock: they share the registry
    // schema (DESIGN.md §13) but never a file with the deterministic
    // timeseries. Interval 0 = aperiodic; one row at shutdown.
    obs::SeriesRegistry reg;
    for (std::size_t s = 0; s < kNumStages; ++s) {
        reg.add({std::string("stage_seconds.") + stageName(s),
                 "seconds", -1, "counter",
                 "wall-clock spent in the tickOne stage"});
    }
    for (std::size_t s = 0; s < kNumStages; ++s) {
        reg.add({std::string("stage_calls.") + stageName(s), "count",
                 -1, "counter", "invocations of the tickOne stage"});
    }
    obs::TimeseriesWriter w(obsStageProfilePath_, std::move(reg), 0,
                            4, "mask-stage-profile");
    std::vector<double> vals;
    vals.reserve(2 * kNumStages);
    for (std::size_t s = 0; s < kNumStages; ++s)
        vals.push_back(stageSeconds_[s]);
    for (std::size_t s = 0; s < kNumStages; ++s)
        vals.push_back(static_cast<double>(stageCalls_[s]));
    w.record(now_, vals);
}

// ---------------------------------------------------------------------
// Checkpoint/restore (DESIGN.md §11)
// ---------------------------------------------------------------------

namespace {

/** Fail @p r unless @p id names a live pool request: every queue of
 *  ReqIds points into the pool, and a corrupted id must fail the
 *  restore, never dereference garbage later. */
void
checkLiveReq(StateReader &r, const RequestPool &pool, ReqId id)
{
    if (id >= pool.capacity() || !pool[id].live)
        r.fail("queued request id " + std::to_string(id) +
               " out of range or dead");
}

template <typename C>
void
checkLiveReqs(StateReader &r, const RequestPool &pool, const C &ids)
{
    for (const ReqId id : ids)
        checkLiveReq(r, pool, id);
}

} // namespace

void
Gpu::setCheckpointHook(Cycle interval, std::function<void(Gpu &)> fn)
{
    ckptInterval_ = interval;
    ckptFn_ = std::move(fn);
    nextCkpt_ = (interval == 0 || !ckptFn_) ? kNeverCycle
                                            : now_ + interval;
}

void
Gpu::maybeCheckpoint()
{
    // Fire once per boundary reached, never retroactively.
    while (nextCkpt_ <= now_)
        nextCkpt_ += ckptInterval_;
    if (!ckptFn_)
        return;
    const auto t0 = std::chrono::steady_clock::now();
    ckptFn_(*this);
    ckptWriteSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    ++ckptWrites_;
}

template <typename Self, typename Io>
void
Gpu::state(Self &self, Io &io)
{
    io.tag("gpu");
    io.u(self.now_);
    io.u(self.statsStart_);
    io.u(self.snapshotCookie_);
    io.u(self.nextEpoch_);
    io.u(self.switchSeed_);
    io.u(self.allocsAtReset_);

    // Per-app stream progress; benchmark params and core lists are
    // reconstructed from the (fingerprint-checked) config.
    io.tag("apps");
    io.fixed(self.apps_.size(), "snapshot app count");
    for (auto &app : self.apps_) {
        io.fixed(app.asid, "snapshot ASID");
        io.obj(*app.streams);
    }

    io.obj(self.frames_);
    io.tag("pts");
    for (auto &pt : self.pageTables_)
        io.obj(*pt);

    io.obj(self.pool_);

    io.tag("cores");
    io.fixed(self.cores_.size(), "snapshot core count");
    for (auto &core : self.cores_)
        io.obj(*core);
    io.uintSeq(self.coreAppIndex_);
    io.uintSeq(self.coreInstrCredited_);
    io.uintSeq(self.appInstr_);
    if constexpr (Io::kReading) {
        if (self.coreAppIndex_.size() != self.cores_.size() ||
            self.coreInstrCredited_.size() != self.cores_.size() ||
            self.appInstr_.size() != self.apps_.size())
            io.fail("per-core/per-app accounting vector size mismatch");
        // Re-attach the benchmark/stream pointers the codec cannot
        // carry.
        for (auto &core : self.cores_) {
            if (!core->needsRebind())
                continue;
            const AppId app = core->app();
            if (app >= self.apps_.size())
                io.fail("restored core references an unknown app");
            core->rebindAfterRestore(self.apps_[app].bench,
                                     self.apps_[app].streams.get());
        }
    }

    // Shared translation structures.
    io.obj(self.l2Tlb_);
    io.obj(self.l2TlbPipe_);
    io.uintSeq(self.l2TlbInput_);
    io.tag("slots");
    io.seq(self.transSlots_, [&io](auto &s) {
        io.obj(s.access);
        io.u(s.asid);
        io.u(s.vpn);
        io.u(s.app);
        io.b(s.inUse);
    });
    io.uintSeq(self.freeTransSlots_);
    io.uintSeq(self.tlbMissRetry_);
    if constexpr (Io::kReading) {
        std::size_t slots_in_use = 0;
        for (const TransSlot &s : self.transSlots_)
            slots_in_use += s.inUse ? 1 : 0;
        if (slots_in_use + self.freeTransSlots_.size() !=
            self.transSlots_.size())
            io.fail("translation-slot free list disagrees with live "
                    "flags");
        const auto slot_ok = [&](std::uint32_t slot, bool in_use) {
            return slot < self.transSlots_.size() &&
                   self.transSlots_[slot].inUse == in_use;
        };
        for (const std::uint32_t slot : self.freeTransSlots_) {
            if (!slot_ok(slot, false))
                io.fail("free translation slot out of range or in use");
        }
        for (const std::uint32_t slot : self.tlbMissRetry_) {
            if (!slot_ok(slot, true))
                io.fail("parked translation slot out of range or free");
        }
        for (const std::uint32_t slot : self.l2TlbInput_) {
            if (!slot_ok(slot, true))
                io.fail("L2 TLB input slot out of range or free");
        }
    }
    io.obj(self.tlbMshr_);
    io.uintSeq(self.walkStartQueue_);
    io.obj(self.walker_);
    if constexpr (Io::kReading) {
        // Rebuild the parked-translation index (derived state, never
        // serialized) from the restored retry deque and MSHR table.
        self.parkedTransKeys_.clear();
        self.parkedMergeEligible_ = 0;
        for (const std::uint32_t slot : self.tlbMissRetry_) {
            const TransSlot &s = self.transSlots_[slot];
            const std::uint64_t key = tlbKey(s.asid, s.vpn);
            if (std::uint32_t *parked = self.parkedTransKeys_.find(key))
                ++*parked;
            else
                self.parkedTransKeys_.insert(key, 1);
            if (self.tlbMshr_.has(s.asid, s.vpn))
                ++self.parkedMergeEligible_;
        }
    }

    // Page walk cache path (PwCache baseline).
    io.obj(self.pwCache_);
    io.obj(self.pwCachePipe_);
    io.uintSeq(self.pwInput_);
    io.obj(self.pwStats_);
    if constexpr (Io::kReading)
        checkLiveReqs(io, self.pool_, self.pwInput_);

    // Shared L2 data cache.
    io.obj(self.l2Cache_);
    io.obj(self.l2Pipe_);
    io.tag("l2in");
    io.fixed(self.l2Input_.size(), "snapshot L2 bank count");
    for (auto &q : self.l2Input_) {
        io.uintSeq(q);
        if constexpr (Io::kReading)
            checkLiveReqs(io, self.pool_, q);
    }
    io.u(self.l2Work_);
    io.obj(self.l2Mshr_);
    for (auto &hm : self.l2Stats_)
        io.obj(hm);
    for (auto &hm : self.l2StatsPerLevel_)
        io.obj(hm);

    // DRAM.
    io.obj(self.dram_);
    io.uintSeq(self.dramRetry_);
    if constexpr (Io::kReading)
        checkLiveReqs(io, self.pool_, self.dramRetry_);

    // Hardening state.
    io.obj(self.watchdog_);
    io.obj(self.faults_);
    io.tag("delayed");
    const auto timed = [&io](auto &e) {
        io.u(e.first);
        io.u(e.second);
    };
    io.seq(self.delayedResponses_, timed);
    if constexpr (Io::kReading) {
        for (const auto &e : self.delayedResponses_)
            checkLiveReq(io, self.pool_, e.second);
    }
    io.seq(self.fetchRetry_, timed);

    // MASK mechanisms.
    io.obj(self.tokens_);
    io.obj(self.bypassCache_);
    io.obj(self.l2Policy_);
    io.obj(self.quota_);

    // Stats plumbing.
    io.uintSeq(self.stalledAccesses_);
    if constexpr (Io::kReading) {
        if (self.stalledAccesses_.size() != self.apps_.size())
            io.fail("stalled-access vector size differs from app count");
    }
    io.obj(self.warpsPerMiss_);
    io.tag("wpmapp");
    io.fixed(self.warpsPerMissPerApp_.size(), "per-app stat count");
    for (auto &st : self.warpsPerMissPerApp_)
        io.obj(st);
    io.obj(self.tlbMissLatency_);
    io.obj(self.walkSampler_);
    io.tag("wsapp");
    io.fixed(self.walkSamplerPerApp_.size(), "per-app sampler count");
    for (auto &sm : self.walkSamplerPerApp_)
        io.obj(sm);
    io.obj(self.readySampler_);

    // Time-multiplex switch machinery.
    io.tag("switch");
    io.seq(self.pendingSwitch_, [&io](auto &s) {
        io.b(s.pending);
        io.u(s.app);
        io.u(s.notBefore);
    });
    if constexpr (Io::kReading) {
        if (self.pendingSwitch_.size() != self.cores_.size())
            io.fail("pending-switch vector size differs from core "
                    "count");
        self.switchesInFlight_ = 0;
        for (const PendingSwitch &s : self.pendingSwitch_) {
            if (!s.pending)
                continue;
            if (s.app >= self.apps_.size())
                io.fail("pending switch targets an unknown app");
            ++self.switchesInFlight_;
        }
    }

    // Retry parking and event-driven wake flags. The per-core indexed
    // queues flatten back to global arrival order, byte-identical to
    // the single-queue format they replaced; sequence numbers, key
    // chains and the merge-eligibility sets are derived state and are
    // not written (DESIGN.md §12).
    io.tag("retry");
    const auto retry = [&io](auto &d) {
        io.obj(d.access);
        io.u(d.app);
        io.u(d.pfn);
    };
    if constexpr (Io::kReading) {
        std::deque<DataRetry> flat_retries;
        io.seq(flat_retries, [&](DataRetry &d) {
            retry(d);
            if (d.access.core >= self.cores_.size() ||
                d.app >= self.apps_.size())
                io.fail("parked data retry references unknown "
                        "core/app");
        });
        // Re-shard per core; fresh 0..n-1 sequence numbers reproduce
        // the flattened arrival order exactly (only relative order
        // matters), and re-parking rebuilds the key chains. The
        // merge-eligibility sets are derived from the restored L1
        // MSHR tables below.
        for (auto &q : self.dataRetryByCore_)
            q.clear();
        for (auto &t : self.dataMergeKeys_)
            t.clear();
        for (auto &v : self.coreFilledKeys_)
            v.clear();
        self.dataRetrySeq_ = 0;
        self.dataRetryCount_ = flat_retries.size();
        for (const DataRetry &d : flat_retries)
            self.dataRetryByCore_[d.access.core].park(
                d.access, d.app, d.pfn, self.dataRetrySeq_++,
                self.l2CacheKey(self.dataPaddr(d.access, d.pfn)));
        for (CoreId c = 0; c < self.cores_.size(); ++c) {
            const MshrTable &mshr = self.cores_[c]->l1Mshr();
            self.dataRetryByCore_[c].forEachSeq(
                [&](const DataRetryQueue::Entry &e) {
                    if (mshr.has(e.key) &&
                        !self.dataMergeKeys_[c].contains(e.key))
                        self.dataMergeKeys_[c].insert(e.key, 1);
                });
        }
    } else {
        std::vector<const DataRetryQueue::Entry *> flat_retries;
        flat_retries.reserve(self.dataRetryCount_);
        for (const DataRetryQueue &q : self.dataRetryByCore_)
            q.forEachSeq(
                [&flat_retries](const DataRetryQueue::Entry &e) {
                    flat_retries.push_back(&e);
                });
        std::sort(flat_retries.begin(), flat_retries.end(),
                  [](const DataRetryQueue::Entry *a,
                     const DataRetryQueue::Entry *b) {
                      return a->seq < b->seq;
                  });
        io.seq(flat_retries,
               [&](const DataRetryQueue::Entry *e) { retry(*e); });
    }
    io.uintSeq(self.coreDataWake_);
    if constexpr (Io::kReading) {
        if (self.coreDataWake_.size() != self.cores_.size())
            io.fail("core wake vector size differs from core count");
        self.wokenCores_.clear();
        for (CoreId c = 0; c < self.cores_.size(); ++c) {
            if (self.coreDataWake_[c] != 0)
                self.wokenCores_.push_back(c);
        }
    }
    io.b(self.anyCoreDataWake_);
    io.b(self.tlbRetryWake_);

    // Per-core translation MSHRs (probe layout is history-dependent,
    // so the flat tables snapshot their raw slot arrays).
    io.tag("waiters");
    io.fixed(self.coreTransWaiters_.size(), "waiter table count");
    for (auto &table : self.coreTransWaiters_)
        table.slots(io, [&io](auto &v) { io.seq(v); });
}

void
Gpu::serialize(StateWriter &w) const
{
    // Settling applies counts the cores already owe; it changes no
    // value an observer of the Gpu can tell apart (logically const).
    const_cast<Gpu *>(this)->settleCores();
    state(*this, w);
}

void
Gpu::deserialize(StateReader &r)
{
    state(*this, r);
    r.finish();
    coresIssuedTo_ = now_;

    // Host-side checkpoint cadence restarts relative to the restored
    // cycle (policy state is deliberately not part of the snapshot).
    if (ckptInterval_ != 0 && ckptFn_)
        nextCkpt_ = now_ + ckptInterval_;

    // Observability state is host-side and never serialized: re-arm
    // the sampler at the smallest interval multiple >= the restored
    // cycle (the saving run stops before ticking it, so a save/resume
    // pair emits each boundary row exactly once) and re-capture the
    // delta baselines from the restored counters.
    if (obsTs_ != nullptr) {
        obsTs_->rearm(now_);
        obsCaptureBaseline();
    }
}

} // namespace mask

#include "dram/dram.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/env.hh"

namespace mask {

namespace {

std::uint32_t
log2u(std::uint32_t x)
{
    std::uint32_t bits = 0;
    while ((1u << bits) < x)
        ++bits;
    return bits;
}

} // namespace

// ---------------------------------------------------------------------
// AddressMapper
// ---------------------------------------------------------------------

AddressMapper::AddressMapper(const DramConfig &cfg,
                             std::uint32_t line_bits,
                             bool partition_channels,
                             std::uint32_t num_apps)
    : lineBits_(line_bits),
      channels_(cfg.channels),
      channelBits_(log2u(cfg.channels)),
      banks_(cfg.banksPerChannel),
      bankBits_(log2u(cfg.banksPerChannel)),
      rowBits_(log2u(std::max<std::uint32_t>(1, cfg.rowBytes))),
      partition_(partition_channels),
      numApps_(num_apps == 0 ? 1 : num_apps)
{
}

DramCoord
AddressMapper::map(Addr paddr, AppId app) const
{
    // Row-granular interleaving (row : bank : channel : row offset):
    // each DRAM row holds rowBytes of contiguous physical addresses,
    // so streaming accesses produce the high row-buffer locality the
    // paper observes for GPGPU data (Section 4.3), while consecutive
    // rows rotate across channels and then banks for parallelism.
    const std::uint64_t row_global = paddr >> rowBits_;
    DramCoord coord;

    std::uint64_t rest;
    if (partition_ && numApps_ > 1 && channels_ >= numApps_) {
        // Static baseline: application app owns a contiguous slice of
        // channels; its rows interleave across that slice only.
        const std::uint32_t per_app = channels_ / numApps_;
        const std::uint32_t base = (app % numApps_) * per_app;
        coord.channel =
            base + static_cast<std::uint32_t>(row_global % per_app);
        rest = row_global / per_app;
    } else if ((channels_ & (channels_ - 1)) == 0) {
        coord.channel =
            static_cast<std::uint32_t>(row_global) & (channels_ - 1);
        rest = row_global >> channelBits_;
    } else {
        // Non-power-of-two channel counts interleave by modulo.
        coord.channel =
            static_cast<std::uint32_t>(row_global % channels_);
        rest = row_global / channels_;
    }

    if ((banks_ & (banks_ - 1)) == 0) {
        coord.bank = static_cast<std::uint32_t>(rest) & (banks_ - 1);
        coord.row = rest >> bankBits_;
    } else {
        coord.bank = static_cast<std::uint32_t>(rest % banks_);
        coord.row = rest / banks_;
    }
    return coord;
}

// ---------------------------------------------------------------------
// DramChannel
// ---------------------------------------------------------------------

DramChannel::DramChannel(const DramConfig &cfg,
                         const MaskConfig &mask_cfg, DramSchedMode mode,
                         std::uint32_t num_apps)
    : cfg_(cfg),
      maskCfg_(mask_cfg),
      mode_(mode),
      numApps_(num_apps == 0 ? 1 : num_apps),
      reference_(envFlag("MASK_SCHED_REFERENCE")),
      banks_(cfg.banksPerChannel),
      silver_(cfg.banksPerChannel),
      normal_(cfg.banksPerChannel)
{
    silverCredits_ = maskCfg_.threshMax / numApps_;
}

bool
DramChannel::canEnqueue(const MemRequest &req) const
{
    if (mode_ == DramSchedMode::FrFcfs)
        return normal_.size() < cfg_.queueEntries;

    if (req.type == ReqType::Translation)
        return golden_.size() < maskCfg_.goldenQueueEntries;

    // A data request goes to silver when it is the silver app's turn,
    // credits remain, and the silver queue has room; otherwise it
    // falls back to the normal queue.
    if (req.app == silverApp_ && silverCredits_ > 0 &&
        silver_.size() < maskCfg_.silverQueueEntries) {
        return true;
    }
    return normal_.size() < maskCfg_.normalQueueEntries;
}

void
DramChannel::enqueue(ReqId id, MemRequest &req, const DramCoord &coord,
                     Cycle now)
{
    SIM_CHECK_CTX(canEnqueue(req), "dram.channel", now,
                  "enqueue into a full request buffer",
                  (CheckContext{.reqId = id, .app = req.app,
                                .paddr = req.paddr}));

    DramQueueEntry entry;
    entry.id = id;
    entry.bank = coord.bank;
    entry.row = coord.row;
    entry.app = req.app;
    entry.type = req.type;
    entry.enqueueCycle = now;
    req.dramEnqueueCycle = now;

    if (mode_ == DramSchedMode::MaskQueues &&
        req.type == ReqType::Translation) {
        golden_.push_back(entry);
    } else if (mode_ == DramSchedMode::MaskQueues &&
               req.app == silverApp_ && silverCredits_ > 0 &&
               silver_.size() < maskCfg_.silverQueueEntries) {
        // Section 5.4 routing: the silver app spends a credit per
        // enqueued request until its quota is gone.
        --silverCredits_;
        silver_.push(entry, banks_);
    } else {
        normal_.push(entry, banks_);
    }
}

void
DramChannel::rotateSilverTurn()
{
    silverApp_ = static_cast<AppId>((silverApp_ + 1) % numApps_);
    if (quotaProvider_ != nullptr) {
        silverCredits_ = quotaProvider_->silverQuota(silverApp_);
    } else {
        silverCredits_ = maskCfg_.threshMax / numApps_;
    }
    if (silverCredits_ == 0)
        silverCredits_ = 1;
}

bool
DramChannel::hasPendingRowHit(std::uint32_t bank_idx) const
{
    if (reference_) {
        return silver_.hasRowHitReference(bank_idx, banks_) ||
               normal_.hasRowHitReference(bank_idx, banks_);
    }
    return silver_.hasRowHit(bank_idx) || normal_.hasRowHit(bank_idx);
}

void
DramChannel::checkQueueBounds(Cycle now, std::uint32_t channel_idx) const
{
    const std::string where =
        "channel " + std::to_string(channel_idx);
    if (mode_ == DramSchedMode::FrFcfs) {
        SIM_CHECK(normal_.size() <= cfg_.queueEntries, "dram.queue",
                  now, where + ": request buffer above queueEntries");
        return;
    }
    SIM_CHECK(golden_.size() <= maskCfg_.goldenQueueEntries,
              "dram.queue", now,
              where + ": Golden Queue above its bound");
    SIM_CHECK(silver_.size() <= maskCfg_.silverQueueEntries,
              "dram.queue", now,
              where + ": Silver Queue above its bound");
    SIM_CHECK(normal_.size() <= maskCfg_.normalQueueEntries,
              "dram.queue", now,
              where + ": Normal Queue above its bound");
}

void
DramChannel::onEpoch()
{
    if (mode_ == DramSchedMode::MaskQueues)
        rotateSilverTurn();
}

void
DramChannel::serviceEntry(const DramQueueEntry &entry, Cycle now,
                          RequestPool &pool)
{
    DramBank &bank = banks_[entry.bank];
    const bool was_valid = bank.rowValid;
    const std::uint64_t old_row = bank.openRow;
    std::uint32_t latency;
    std::uint32_t bank_busy;
    if (bank.rowValid && bank.openRow == entry.row) {
        // Row hit: reads to the open row pipeline at the burst rate.
        latency = cfg_.tCl;
        bank_busy = cfg_.tBurst;
        ++stats_.rowHits;
    } else if (!bank.rowValid) {
        latency = cfg_.tRcd + cfg_.tCl;
        bank_busy = cfg_.tRcd + cfg_.tBurst;
        ++stats_.rowMisses;
    } else {
        latency = cfg_.tRp + cfg_.tRcd + cfg_.tCl;
        bank_busy = cfg_.tRp + cfg_.tRcd + cfg_.tBurst;
        ++stats_.rowConflicts;
    }

    const Cycle done = now + latency + cfg_.tBurst;
    bank.openRow = entry.row;
    bank.rowValid = true;
    bank.readyAt = now + bank_busy;
    busFreeAt_ = now + cfg_.tBurst;

    const auto type_idx = static_cast<std::size_t>(entry.type);
    stats_.busBusy[type_idx] += cfg_.tBurst;
    ++stats_.serviced[type_idx];
    stats_.latency[type_idx].add(
        static_cast<double>(done - entry.enqueueCycle));
    (void)pool;

    inService_.push(Completion{done, entry.id});

    // An activate invalidated the bank's row-hit chains; rebuild them
    // from its FIFO lists (amortized against the row change itself).
    if (!was_valid || old_row != entry.row) {
        silver_.onRowChange(entry.bank, banks_);
        normal_.onRowChange(entry.bank, banks_);
    }
}

void
DramChannel::serviceNode(BankedRequestQueue &queue, std::uint32_t node,
                         Cycle now, RequestPool &pool)
{
    const DramQueueEntry entry = queue.take(node);
    serviceEntry(entry, now, pool);
}

std::uint32_t
DramChannel::pickFrom(BankedRequestQueue &queue, Cycle now)
{
    ++schedPicks_;
    if (reference_) {
        return queue.pickReference(banks_, now, cfg_.starvationCap,
                                   &stats_.capEscalations,
                                   &schedScanned_);
    }
    return queue.pick(banks_, now, cfg_.starvationCap,
                      &stats_.capEscalations, &schedScanned_);
}

void
DramChannel::tick(Cycle now, RequestPool &pool)
{
    // Retire finished requests.
    while (!inService_.empty() && inService_.top().at <= now) {
        completed_.push_back(inService_.top().id);
        inService_.pop();
    }

    if (busFreeAt_ > now)
        return;

    // Strict priority: Golden (FIFO) > Silver > Normal (both FR-FCFS).
    if (!golden_.empty()) {
        // FIFO among serviceable golden requests: the paper notes that
        // row-buffer reordering does not help translation requests.
        for (std::size_t i = 0; i < golden_.size(); ++i) {
            DramQueueEntry &entry = golden_[i];
            const DramBank &bank = banks_[entry.bank];
            if (bank.readyAt > now)
                continue;
            // Bandwidth guard (Section 4.4): don't close a row that
            // still has data row-hits pending unless this request has
            // already been delayed long enough.
            const bool row_conflict =
                bank.rowValid && bank.openRow != entry.row;
            if (row_conflict &&
                now < entry.enqueueCycle + maskCfg_.goldenMaxDelay &&
                hasPendingRowHit(entry.bank)) {
                continue;
            }
            const DramQueueEntry picked = entry;
            golden_.erase(golden_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            ++servicedFromQueue_[0];
            serviceEntry(picked, now, pool);
            return;
        }
    }

    if (mode_ == DramSchedMode::MaskQueues) {
        // Advance the silver turn when the current app used its quota
        // and its queued silver requests drained.
        if (silverCredits_ == 0 && silver_.empty())
            rotateSilverTurn();

        const std::uint32_t pick = pickFrom(silver_, now);
        if (pick != BankedRequestQueue::kNil) {
            // Bandwidth guard: a silver row-conflict defers briefly
            // to pending data row hits (same rationale as golden).
            const DramQueueEntry &entry = silver_.entry(pick);
            const DramBank &bank = banks_[entry.bank];
            const bool row_conflict =
                bank.rowValid && bank.openRow != entry.row;
            if (!row_conflict ||
                now >= entry.enqueueCycle + maskCfg_.silverMaxDelay ||
                !hasPendingRowHit(entry.bank)) {
                ++servicedFromQueue_[1];
                serviceNode(silver_, pick, now, pool);
                return;
            }
        }
    }

    const std::uint32_t pick = pickFrom(normal_, now);
    if (pick != BankedRequestQueue::kNil) {
        ++servicedFromQueue_[2];
        serviceNode(normal_, pick, now, pool);
    }
}

void
DramChannel::resetStats()
{
    stats_.reset();
    schedPicks_ = 0;
    schedScanned_ = 0;
}

// ---------------------------------------------------------------------
// Dram
// ---------------------------------------------------------------------

Dram::Dram(const DramConfig &cfg, const MaskConfig &mask_cfg,
           std::uint32_t line_bits, DramSchedMode mode,
           std::uint32_t num_apps, bool partition_channels)
    : mapper_(cfg, line_bits, partition_channels, num_apps)
{
    channels_.reserve(cfg.channels);
    for (std::uint32_t c = 0; c < cfg.channels; ++c)
        channels_.emplace_back(cfg, mask_cfg, mode, num_apps);
}

void
Dram::setQuotaProvider(const SilverQuotaProvider *provider)
{
    for (auto &channel : channels_)
        channel.setQuotaProvider(provider);
}

bool
Dram::canEnqueue(const MemRequest &req) const
{
    const DramCoord coord = mapper_.map(req.paddr, req.app);
    return channels_[coord.channel].canEnqueue(req);
}

void
Dram::enqueue(ReqId id, MemRequest &req, Cycle now)
{
    const DramCoord coord = mapper_.map(req.paddr, req.app);
    channels_[coord.channel].enqueue(id, req, coord, now);
}

void
Dram::tick(Cycle now, RequestPool &pool)
{
    for (auto &channel : channels_) {
        // Idle channels with no pending silver rotation have nothing
        // to retire, schedule, or drain: their tick is a no-op.
        if (!channel.busy() && !channel.rotationPending())
            continue;
        channel.tick(now, pool);
        auto &done = channel.completed();
        while (!done.empty()) {
            completed_.push_back(done.front());
            done.pop_front();
        }
    }
}

void
Dram::noteReject(const MemRequest &req)
{
    const DramCoord coord = mapper_.map(req.paddr, req.app);
    channels_[coord.channel].noteReject();
}

void
Dram::onEpoch()
{
    for (auto &channel : channels_)
        channel.onEpoch();
}

DramChannelStats
Dram::aggregateStats() const
{
    DramChannelStats agg;
    for (const auto &channel : channels_) {
        const DramChannelStats &s = channel.stats();
        for (int t = 0; t < 2; ++t) {
            agg.busBusy[t] += s.busBusy[t];
            agg.serviced[t] += s.serviced[t];
            agg.latency[t].count += s.latency[t].count;
            agg.latency[t].sum += s.latency[t].sum;
        }
        agg.rowHits += s.rowHits;
        agg.rowMisses += s.rowMisses;
        agg.rowConflicts += s.rowConflicts;
        agg.enqueueRejects += s.enqueueRejects;
        agg.capEscalations += s.capEscalations;
    }
    return agg;
}

void
Dram::resetStats()
{
    for (auto &channel : channels_)
        channel.resetStats();
}

std::uint64_t
Dram::schedPicks() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel.schedPicks();
    return total;
}

std::uint64_t
Dram::schedUnitsScanned() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel.schedUnitsScanned();
    return total;
}

namespace {

/**
 * Expose std::priority_queue's protected underlying container. The
 * heap array must round-trip verbatim: completions that tie on `at`
 * pop in heap-layout order, so rebuilding the heap by re-pushing would
 * not reproduce the service order bit-exactly.
 */
struct CompletionHeapAccess
    : std::priority_queue<DramChannel::Completion,
                          std::vector<DramChannel::Completion>,
                          std::greater<>>
{
    using priority_queue::c;
};

template <typename PQ>
const std::vector<DramChannel::Completion> &
heapArray(const PQ &pq)
{
    return static_cast<const CompletionHeapAccess &>(pq).c;
}

template <typename PQ>
std::vector<DramChannel::Completion> &
heapArray(PQ &pq)
{
    return static_cast<CompletionHeapAccess &>(pq).c;
}

void
putQueue(StateWriter &w, const std::vector<DramQueueEntry> &queue)
{
    putSeq(w, queue, [](StateWriter &sw, const DramQueueEntry &e) {
        e.serialize(sw);
    });
}

void
getQueue(StateReader &r, std::vector<DramQueueEntry> &queue)
{
    getSeq(r, queue,
           [](StateReader &sr, DramQueueEntry &e) { e.deserialize(sr); });
}

} // namespace

void
DramChannel::serialize(StateWriter &w) const
{
    w.tag("chan");
    w.u(banks_.size());
    for (const DramBank &bank : banks_)
        bank.serialize(w);
    putQueue(w, golden_);
    // Age-ordered entries only: byte-identical to the flat vectors
    // these queues replaced. Index links are rebuilt on restore.
    silver_.serialize(w);
    normal_.serialize(w);
    w.u(silverApp_);
    w.u(silverCredits_);
    w.u(busFreeAt_);
    const std::vector<Completion> &heap = heapArray(inService_);
    putSeq(w, heap, [](StateWriter &sw, const Completion &c) {
        sw.u(c.at);
        sw.u(c.id);
    });
    putUintSeq(w, completed_);
    stats_.serialize(w);
}

void
DramChannel::deserialize(StateReader &r)
{
    r.tag("chan");
    const std::uint64_t banks = r.u();
    if (banks != banks_.size())
        r.fail("DRAM bank count mismatch (" + std::to_string(banks) +
               " vs configured " + std::to_string(banks_.size()) + ")");
    for (DramBank &bank : banks_)
        bank.deserialize(r);
    getQueue(r, golden_);
    // Banks are restored above, so replaying pushes rebuilds the
    // row-hit chains exactly as the live run had them.
    silver_.deserialize(r, banks_);
    normal_.deserialize(r, banks_);
    silverApp_ = static_cast<AppId>(r.u());
    silverCredits_ = static_cast<std::uint32_t>(r.u());
    busFreeAt_ = r.u();
    std::vector<Completion> &heap = heapArray(inService_);
    getSeq(r, heap, [](StateReader &sr, Completion &c) {
        c.at = sr.u();
        c.id = static_cast<ReqId>(sr.u());
    });
    if (!std::is_heap(heap.begin(), heap.end(), std::greater<>{}))
        r.fail("in-service completion array is not a min-heap");
    getUintSeq(r, completed_);
    stats_.deserialize(r);
}

void
Dram::serialize(StateWriter &w) const
{
    w.tag("dram");
    w.u(channels_.size());
    for (const DramChannel &channel : channels_)
        channel.serialize(w);
    putUintSeq(w, completed_);
}

void
Dram::deserialize(StateReader &r)
{
    r.tag("dram");
    const std::uint64_t n = r.u();
    if (n != channels_.size())
        r.fail("DRAM channel count mismatch (" + std::to_string(n) +
               " vs configured " + std::to_string(channels_.size()) +
               ")");
    for (DramChannel &channel : channels_)
        channel.deserialize(r);
    getUintSeq(r, completed_);
}

} // namespace mask

/**
 * @file
 * GDDR5-like DRAM model: per-channel request buffers, per-bank row
 * buffer state and timing, an FR-FCFS scheduler, and the three-queue
 * (Golden/Silver/Normal) organization used by MASK's Address-Space-
 * Aware DRAM Scheduler (paper Section 5.4).
 *
 * Silver and Normal queues are BankedRequestQueue instances
 * (DESIGN.md §12): per-bank FIFO and open-row hit chains maintained
 * incrementally, so each per-cycle pick costs O(banks) instead of
 * O(queued requests). MASK_SCHED_REFERENCE=1 switches every pick back
 * to the original age-list rescan over the same storage, which the
 * determinism gate uses to prove the indices observationally inert.
 */

#ifndef MASK_DRAM_DRAM_HH
#define MASK_DRAM_DRAM_HH

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/config.hh"
#include "common/memreq.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/banked_queue.hh"

namespace mask {

/** Decoded DRAM coordinates of a physical address. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
};

/**
 * Physical address -> (channel, bank, row) mapping with line-granular
 * channel interleaving. When the Static baseline partitions channels,
 * each application's traffic is folded onto its private channel slice.
 */
class AddressMapper
{
  public:
    AddressMapper(const DramConfig &cfg, std::uint32_t line_bits,
                  bool partition_channels = false,
                  std::uint32_t num_apps = 1);

    DramCoord map(Addr paddr, AppId app) const;

    std::uint32_t channels() const { return channels_; }

  private:
    std::uint32_t lineBits_;
    std::uint32_t channels_;
    std::uint32_t channelBits_;
    std::uint32_t banks_;
    std::uint32_t bankBits_;
    std::uint32_t rowBits_;
    bool partition_;
    std::uint32_t numApps_;
};

/**
 * Quota source for the Silver Queue (Equation 1). Implemented by the
 * MASK layer; the DRAM channel calls it when rotating the silver turn
 * to a new application.
 */
class SilverQuotaProvider
{
  public:
    virtual ~SilverQuotaProvider() = default;

    /** thresh_i: silver-queue request quota for application @p app. */
    virtual std::uint32_t silverQuota(AppId app) const = 0;
};

/** Which scheduling organization a channel runs. */
enum class DramSchedMode : std::uint8_t {
    FrFcfs,     //!< single request buffer, FR-FCFS (baselines)
    MaskQueues, //!< Golden/Silver/Normal queues (MASK, Section 5.4)
};

/** Statistics kept per channel, split by request type where relevant. */
struct DramChannelStats
{
    std::uint64_t busBusy[2] = {0, 0};   //!< indexed by ReqType
    std::uint64_t serviced[2] = {0, 0};
    RunningStat latency[2];              //!< enqueue -> data returned
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;   //!< closed-row activates
    std::uint64_t rowConflicts = 0;
    std::uint64_t enqueueRejects = 0;
    /** Starvation-cap escalations: requests serviced FCFS after being
     *  bypassed starvationCap times by younger row hits. */
    std::uint64_t capEscalations = 0;

    void
    reset()
    {
        *this = DramChannelStats{};
    }

    void
    serialize(StateWriter &w) const
    {
        w.tag("dstats");
        for (const std::uint64_t v : busBusy)
            w.u(v);
        for (const std::uint64_t v : serviced)
            w.u(v);
        for (const RunningStat &s : latency)
            s.serialize(w);
        w.u(rowHits);
        w.u(rowMisses);
        w.u(rowConflicts);
        w.u(enqueueRejects);
        w.u(capEscalations);
    }

    void
    deserialize(StateReader &r)
    {
        r.tag("dstats");
        for (std::uint64_t &v : busBusy)
            v = r.u();
        for (std::uint64_t &v : serviced)
            v = r.u();
        for (RunningStat &s : latency)
            s.deserialize(r);
        rowHits = r.u();
        rowMisses = r.u();
        rowConflicts = r.u();
        enqueueRejects = r.u();
        capEscalations = r.u();
    }
};

/** One DRAM channel: banks + request buffers + scheduler. */
class DramChannel
{
  public:
    DramChannel(const DramConfig &cfg, const MaskConfig &mask_cfg,
                DramSchedMode mode, std::uint32_t num_apps);

    /** Attach the Equation 1 quota source (MaskQueues mode only). */
    void setQuotaProvider(const SilverQuotaProvider *provider)
    {
        quotaProvider_ = provider;
    }

    /** True if the appropriate queue can take this request. */
    bool canEnqueue(const MemRequest &req) const;

    /** Insert a request (caller checked canEnqueue). */
    void enqueue(ReqId id, MemRequest &req, const DramCoord &coord,
                 Cycle now);

    /** Advance one cycle: schedule and retire. */
    void tick(Cycle now, RequestPool &pool);

    /**
     * Epoch boundary (Section 5.2/5.4): force the silver turn to
     * rotate so an idle quota holder cannot pin the Silver Queue.
     */
    void onEpoch();

    /** Requests whose data has returned; caller drains. */
    std::deque<ReqId> &completed() { return completed_; }

    const DramChannelStats &stats() const { return stats_; }
    void resetStats();
    void noteReject() { ++stats_.enqueueRejects; }

    std::size_t queuedRequests() const
    {
        return golden_.size() + silver_.size() + normal_.size();
    }

    /** Any request queued, in service, or awaiting drain. */
    bool busy() const
    {
        return queuedRequests() > 0 || !inService_.empty() ||
               !completed_.empty();
    }

    /**
     * True when the next bus-free tick() would rotate the silver turn
     * even with nothing queued (quota exhausted, Silver Queue
     * drained). Lets Dram::tick skip otherwise-idle channels.
     */
    bool rotationPending() const
    {
        return mode_ == DramSchedMode::MaskQueues &&
               silverCredits_ == 0 && silver_.empty();
    }

    /** Queue introspection for tests. */
    std::size_t goldenSize() const { return golden_.size(); }
    std::size_t silverSize() const { return silver_.size(); }
    std::size_t normalSize() const { return normal_.size(); }
    AppId silverApp() const { return silverApp_; }

    /** Host-side scheduler work counters (never serialized): picks
     *  attempted and index units examined across them. In indexed mode
     *  a unit is an occupied bank; under MASK_SCHED_REFERENCE=1 it is
     *  a queue entry, so the ratio exposes exactly what the indices
     *  save. */
    std::uint64_t schedPicks() const { return schedPicks_; }
    std::uint64_t schedUnitsScanned() const { return schedScanned_; }

    /** Host-side issue-mix counter (never serialized): requests
     *  serviced from each scheduling queue — 0 = Golden, 1 = Silver,
     *  2 = Normal (the FR-FCFS baselines issue everything from the
     *  Normal slot). Feeds the obs timeseries (DESIGN.md §13). */
    std::uint64_t servicedFromQueue(std::size_t queue) const
    {
        return servicedFromQueue_[queue];
    }

    /**
     * Watchdog hook: throw SimInvariantError if any queue exceeds its
     * configured bound (Golden/Silver/Normal under MaskQueues, the
     * single request buffer under FR-FCFS).
     */
    void checkQueueBounds(Cycle now, std::uint32_t channel_idx) const;

    /**
     * Snapshot queues, banks, and in-flight completions. The
     * completion heap's physical array is serialized verbatim:
     * completions that tie on `at` pop in heap-layout order, so the
     * layout itself is semantic state. Silver/Normal index links are
     * derived state: only the age-ordered entries are written (the
     * same bytes as the flat vectors they replaced), and restore
     * rebuilds the links against the already-restored bank state.
     */
    void serialize(StateWriter &w) const;
    void deserialize(StateReader &r);

    /** A request in service; public so the snapshot code can name the
     *  completion heap's element type. */
    struct Completion
    {
        Cycle at;
        ReqId id;
        bool operator>(const Completion &o) const { return at > o.at; }
    };

  private:
    /** Any queued data request that hits @p bank_idx's open row? */
    bool hasPendingRowHit(std::uint32_t bank_idx) const;

    /** FR-FCFS pick on @p queue honoring MASK_SCHED_REFERENCE. */
    std::uint32_t pickFrom(BankedRequestQueue &queue, Cycle now);

    void serviceEntry(const DramQueueEntry &entry, Cycle now,
                      RequestPool &pool);
    void serviceNode(BankedRequestQueue &queue, std::uint32_t node,
                     Cycle now, RequestPool &pool);
    void rotateSilverTurn();

    DramConfig cfg_;
    MaskConfig maskCfg_;
    DramSchedMode mode_;
    std::uint32_t numApps_;
    bool reference_; //!< MASK_SCHED_REFERENCE=1: rescan picks

    std::vector<DramBank> banks_;
    std::vector<DramQueueEntry> golden_; //!< FIFO, translation only
    BankedRequestQueue silver_;
    BankedRequestQueue normal_;

    const SilverQuotaProvider *quotaProvider_ = nullptr;
    AppId silverApp_ = 0;
    std::uint32_t silverCredits_ = 0;

    Cycle busFreeAt_ = 0;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>>
        inService_;
    std::deque<ReqId> completed_;
    DramChannelStats stats_;

    std::uint64_t schedPicks_ = 0;   //!< host observability only
    std::uint64_t schedScanned_ = 0; //!< host observability only
    /** Serviced per queue (Golden/Silver/Normal); host only. */
    std::uint64_t servicedFromQueue_[3] = {0, 0, 0};
};

/** The full DRAM subsystem: mapper + channels. */
class Dram
{
  public:
    Dram(const DramConfig &cfg, const MaskConfig &mask_cfg,
         std::uint32_t line_bits, DramSchedMode mode,
         std::uint32_t num_apps, bool partition_channels);

    void setQuotaProvider(const SilverQuotaProvider *provider);

    bool canEnqueue(const MemRequest &req) const;
    void enqueue(ReqId id, MemRequest &req, Cycle now);
    void tick(Cycle now, RequestPool &pool);
    void onEpoch();

    /** Record that @p req found its channel queue full (stats). */
    void noteReject(const MemRequest &req);

    /** Completed requests across all channels; caller drains. */
    std::deque<ReqId> &completed() { return completed_; }

    /** True if any channel holds work or completions await drain. */
    bool busy() const
    {
        if (!completed_.empty())
            return true;
        for (const DramChannel &ch : channels_) {
            if (ch.busy())
                return true;
        }
        return false;
    }

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }
    DramChannel &channel(std::uint32_t idx) { return channels_[idx]; }
    const DramChannel &channel(std::uint32_t idx) const
    {
        return channels_[idx];
    }
    const AddressMapper &mapper() const { return mapper_; }

    /** Aggregate stats over all channels. */
    DramChannelStats aggregateStats() const;
    void resetStats();

    /** Scheduler work counters summed over channels (host-side). */
    std::uint64_t schedPicks() const;
    std::uint64_t schedUnitsScanned() const;

    void serialize(StateWriter &w) const;
    void deserialize(StateReader &r);

  private:
    AddressMapper mapper_;
    std::vector<DramChannel> channels_;
    std::deque<ReqId> completed_;
};

/**
 * FR-FCFS pick: index of the entry to service from @p queue, or -1 if
 * none is serviceable (bank ready) this cycle. Prefers the oldest
 * row-buffer hit, falling back to the oldest serviceable request, and
 * forces the queue head once it has been bypassed more than
 * @p starvation_cap times (Section 6 baseline policy). Each forced
 * pick increments @p cap_escalations when the caller provides it, so
 * the cap's effect is observable in stats.
 *
 * This is the reference rescan over a flat vector; the channel hot
 * path uses BankedRequestQueue::pick, which must agree with it (see
 * tests/test_sched_index.cc).
 */
int frFcfsPick(std::vector<DramQueueEntry> &queue,
               const std::vector<DramBank> &banks, Cycle now,
               std::uint32_t starvation_cap,
               std::uint64_t *cap_escalations = nullptr);

} // namespace mask

#endif // MASK_DRAM_DRAM_HH

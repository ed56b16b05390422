/**
 * @file
 * The in-flight memory request record and its pool.
 *
 * Every access that travels below the L1 structures (L1D misses and
 * page table walk reads) is represented by one MemRequest owned by a
 * RequestPool. Components pass ReqId handles; the pool guarantees
 * stable storage and O(1) allocate/free.
 */

#ifndef MASK_COMMON_MEMREQ_HH
#define MASK_COMMON_MEMREQ_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/** Last pipeline location of a request, for watchdog/crash diagnostics. */
enum class ReqStage : std::uint8_t {
    Alloc,
    DramQueue,
    DramRetry,
    FaultDelay,
    L2Input,
    L2MshrFullRetry,
    L2MshrMerged,
    PwCacheInput,
    WalkDispatch,
};

/**
 * The label of each ReqStage, indexed by its value. Snapshots carry
 * the label; a restore resolves it against this table and rejects any
 * other string.
 */
inline constexpr std::array<const char *, 9> kReqStageNames = {
    "alloc",          "dram-queue",         "dram-retry",
    "fault-delay",    "l2-input",           "l2-mshr-full-retry",
    "l2-mshr-merged", "pwcache-input",      "walk-dispatch",
};

inline const char *
reqStageName(ReqStage stage)
{
    return kReqStageNames[static_cast<std::size_t>(stage)];
}

/** One in-flight memory request below the private L1 structures. */
struct MemRequest
{
    Addr paddr = 0;             //!< physical byte address
    Asid asid = 0;
    AppId app = 0;
    CoreId core = 0;
    WarpId warp = 0;
    ReqType type = ReqType::Data;
    ReqOrigin origin = ReqOrigin::WarpData;
    /**
     * Page walk depth tag (Section 5.3): 0 for data demand requests,
     * 1..4 for the page table level a walk read targets (1 = root).
     */
    std::uint8_t pwLevel = 0;
    /** Index of the owning walk when origin == PageWalk. */
    std::uint32_t walkId = 0;
    /** MASK L2 bypass decision, latched when dispatched toward L2. */
    bool bypassL2 = false;
    /** True when this request owns an L2 MSHR entry (primary miss). */
    bool mshrPrimary = false;
    /** True once the L2 probe counted toward hit/miss statistics, so
     *  MSHR-full retries do not double-count. */
    bool l2StatsCounted = false;
    /** True while the request occupies a slot in some queue. */
    bool live = false;
    ReqStage where = ReqStage::Alloc;

    Cycle issueCycle = 0;       //!< creation time
    Cycle dramEnqueueCycle = 0; //!< entry into a DRAM request buffer

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("req");
        io.u(self.paddr);
        io.u(self.asid);
        io.u(self.app);
        io.u(self.core);
        io.u(self.warp);
        io.u(self.type);
        io.u(self.origin);
        io.u(self.pwLevel);
        io.u(self.walkId);
        io.b(self.bypassL2);
        io.b(self.mshrPrimary);
        io.b(self.l2StatsCounted);
        io.b(self.live);
        if constexpr (Io::kReading) {
            const std::string label = io.s();
            const auto it = std::find(kReqStageNames.begin(),
                                      kReqStageNames.end(), label);
            if (it == kReqStageNames.end())
                io.fail("unknown request stage label '" + label + "'");
            self.where = static_cast<ReqStage>(it - kReqStageNames.begin());
        } else {
            io.s(reqStageName(self.where));
        }
        io.u(self.issueCycle);
        io.u(self.dramEnqueueCycle);
    }
};

/** Free-list pool of MemRequest records addressed by ReqId. */
class RequestPool
{
  public:
    /**
     * Pre-size the pool so steady-state allocation never reallocates
     * the backing vector (the GPU derives the bound from its config:
     * one request per L1 MSHR entry plus one per walker thread).
     */
    void
    reserve(std::size_t slots)
    {
        reqs_.reserve(slots);
        free_.reserve(slots);
    }

    /**
     * Cap on concurrently-live requests. Exceeding it trips a
     * SimInvariantError: unplanned pool growth means some component
     * holds more in-flight state than the configuration admits, and
     * must be visible instead of silently absorbed. 0 disables.
     */
    void setHighWater(std::size_t limit) { highWater_ = limit; }

    ReqId
    alloc()
    {
        ReqId id;
        if (!free_.empty()) {
            id = free_.back();
            free_.pop_back();
            reqs_[id] = MemRequest{};
        } else {
            id = static_cast<ReqId>(reqs_.size());
            reqs_.emplace_back();
        }
        reqs_[id].live = true;
        ++liveCount_;
        ++totalAllocated_;
        if (liveCount_ > peakLive_) {
            peakLive_ = liveCount_;
            SIM_CHECK_CTX(highWater_ == 0 || liveCount_ <= highWater_,
                          "common.memreq", kUnknownCycle,
                          "live requests exceeded the configured "
                          "high-water mark (" +
                              std::to_string(highWater_) + ")",
                          CheckContext{.reqId = id});
        }
        return id;
    }

    void
    release(ReqId id)
    {
        SIM_CHECK_CTX(id < reqs_.size() && reqs_[id].live,
                      "common.memreq", kUnknownCycle,
                      "released request not live (double free?)",
                      CheckContext{.reqId = id});
        reqs_[id].live = false;
        free_.push_back(id);
        --liveCount_;
    }

    MemRequest &operator[](ReqId id) { return reqs_[id]; }
    const MemRequest &operator[](ReqId id) const { return reqs_[id]; }

    std::size_t liveCount() const { return liveCount_; }
    std::size_t capacity() const { return reqs_.size(); }
    /** Most requests ever live at once. */
    std::size_t peakLive() const { return peakLive_; }
    /** Cumulative alloc() calls (requests/sec observability). */
    std::uint64_t totalAllocated() const { return totalAllocated_; }

    /**
     * Snapshot the pool. ReqIds allocate LIFO off the free list, so
     * the exact free-list order is semantic state: a restored run must
     * hand out the same ids in the same order. Dead slots are elided
     * (alloc() resets them before reuse).
     */
    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("pool");
        io.seq(self.reqs_, [&io](auto &req) {
            io.b(req.live);
            if (req.live)
                io.obj(req);
        });
        io.uintSeq(self.free_, self.reqs_.size());
        io.u(self.peakLive_);
        io.u(self.highWater_);
        io.u(self.totalAllocated_);
        if constexpr (Io::kReading) {
            self.liveCount_ = 0;
            for (const MemRequest &req : self.reqs_)
                self.liveCount_ += req.live ? 1 : 0;
            if (self.liveCount_ + self.free_.size() != self.reqs_.size())
                io.fail("request pool free list inconsistent with live "
                        "slots");
            for (const ReqId id : self.free_) {
                if (id >= self.reqs_.size() || self.reqs_[id].live)
                    io.fail("free-list entry " + std::to_string(id) +
                            " refers to a live slot");
            }
        }
    }

  private:
    std::vector<MemRequest> reqs_;
    std::vector<ReqId> free_;
    std::size_t liveCount_ = 0;
    std::size_t peakLive_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t totalAllocated_ = 0;
};

} // namespace mask

#endif // MASK_COMMON_MEMREQ_HH

#include "core/shader_core.hh"

#include <algorithm>
#include <cassert>

#include "common/check.hh"

namespace mask {

ShaderCore::ShaderCore(CoreId id, const GpuConfig &cfg)
    : id_(id),
      cfg_(cfg),
      l1Tlb_(cfg.l1Tlb),
      l1d_(cfg.l1d.numSets(), cfg.l1d.ways),
      l1Mshr_(cfg.l1d.mshrs),
      rng_(cfg.seed)
{
    warps_.resize(cfg.warpsPerCore);
}

void
ShaderCore::assign(AppId app, Asid asid, const BenchmarkParams *program,
                   StreamTable *stream_table,
                   std::uint32_t warp_index_base, std::uint64_t seed)
{
    assert(outstanding_ == 0 && "assigning a core that is not drained");
    app_ = app;
    asid_ = asid;
    program_ = program;
    streamTable_ = stream_table;
    warpIndexBase_ = warp_index_base;
    rng_.seed(seed ^ (0x9e37u + id_));
    draining_ = false;

    // Fresh kernel launch: new warps, cold private structures.
    l1Tlb_.flushAll();
    l1d_.flush();

    readyQueue_.clear();
    readyCount_ = 0;
    greedyWarp_ = -1;
    nextIssue_ = 0;
    for (WarpId w = 0; w < warps_.size(); ++w) {
        warps_[w].reset();
        warps_[w].computeRemaining =
            program_ ? nextComputeInterval(*program_, rng_) : 0;
        readyQueue_.push_back(w);
        ++readyCount_;
    }
}

void
ShaderCore::makeReady(WarpId w)
{
    warps_[w].status = WarpState::Ready;
    readyQueue_.push_back(w);
    ++readyCount_;
}

void
ShaderCore::settle(Cycle upto)
{
    const Cycle end = std::min(upto, nextIssue_);
    if (end <= accounted_)
        return;
    const Cycle n = end - accounted_;
    accounted_ = end;
    if (program_ == nullptr || draining_) {
        stallCycles_ += draining_ ? n : 0;
        return;
    }
    if (readyCount_ == 0) {
        stallCycles_ += n;
        return;
    }
    // Otherwise the core slept through the greedy warp's compute run.
    SIM_CHECK(greedyWarp_ >= 0 &&
                  warps_[greedyWarp_].status == WarpState::Ready &&
                  warps_[greedyWarp_].computeRemaining >= n,
              "core.issue", end, "settled past a compute run");
    Warp &w = warps_[greedyWarp_];
    w.instructions += n;
    w.computeRemaining -= static_cast<std::uint32_t>(n);
    instructions_ += n;
}

std::optional<IssuedAccess>
ShaderCore::issue(Cycle now)
{
    settle(now);
    accounted_ = now + 1;
    std::optional<IssuedAccess> issued = issueOne(now);
    // Plan the next cycle that can do more than count (see settle).
    if (program_ == nullptr || draining_ || readyCount_ == 0) {
        nextIssue_ = kNeverCycle; // accessDone or assign wakes it
    } else if (greedyWarp_ >= 0 &&
               warps_[greedyWarp_].status == WarpState::Ready) {
        nextIssue_ = now + 1 + warps_[greedyWarp_].computeRemaining;
    } else {
        nextIssue_ = now + 1;
    }
    return issued;
}

std::optional<IssuedAccess>
ShaderCore::issueOne(Cycle now)
{
    if (program_ == nullptr || draining_) {
        stallCycles_ += draining_ ? 1 : 0;
        return std::nullopt;
    }

    // All warps waiting on memory: skip the scheduler entirely (the
    // ready queue holds no Ready entries when readyCount_ is 0).
    if (readyCount_ == 0) {
        ++stallCycles_;
        return std::nullopt;
    }

    // GTO: stick with the greedy warp while it can issue; otherwise
    // take the oldest ready warp (FIFO order of stall completion).
    WarpId selected;
    if (greedyWarp_ >= 0 &&
        warps_[greedyWarp_].status == WarpState::Ready) {
        selected = static_cast<WarpId>(greedyWarp_);
    } else {
        // Drop stale queue entries of warps that went Waiting.
        while (!readyQueue_.empty() &&
               warps_[readyQueue_.front()].status != WarpState::Ready) {
            readyQueue_.pop_front();
        }
        if (readyQueue_.empty()) {
            ++stallCycles_;
            return std::nullopt;
        }
        selected = readyQueue_.front();
        readyQueue_.pop_front();
        greedyWarp_ = selected;
    }

    Warp &w = warps_[selected];
    ++w.instructions;
    ++instructions_;

    if (w.computeRemaining > 0) {
        --w.computeRemaining;
        // Greedy warp stays selected; ensure it is findable next
        // cycle without a queue entry.
        return std::nullopt;
    }

    // Memory instruction: generate the (possibly divergent) accesses
    // and block the warp until all of them complete. Accesses that
    // reuse the warp's previous line are serviced locally and create
    // no memory traffic.
    IssuedAccess issued;
    issued.warp = selected;
    issued.count = 0;
    const std::uint32_t parts = std::min<std::uint32_t>(
        std::max<std::uint32_t>(1, program_->memDivergence),
        IssuedAccess::kMaxParts);
    for (std::uint32_t i = 0; i < parts; ++i) {
        bool reused = false;
        const Addr vaddr = nextVaddr(
            *program_, w.mem, rng_, warpIndexBase_ + selected,
            *streamTable_, cfg_.pageBits, cfg_.lineBits, &reused);
        if (!reused)
            issued.vaddrs[issued.count++] = vaddr;
    }
    ++w.memAccesses;

    if (issued.count == 0) {
        // Entirely warp-local: the instruction completes immediately.
        w.computeRemaining = nextComputeInterval(*program_, rng_);
        return std::nullopt;
    }

    w.status = WarpState::Waiting;
    w.stallStart = now;
    w.partsOutstanding = issued.count;
    --readyCount_;
    greedyWarp_ = -1;
    return issued;
}

void
ShaderCore::accessDone(WarpId warp_id, Cycle now)
{
    Warp &w = warps_[warp_id];
    assert(w.status == WarpState::Waiting);
    assert(w.partsOutstanding > 0);
    assert(outstanding_ > 0);
    --outstanding_;
    if (--w.partsOutstanding > 0)
        return;
    settle(now);
    stallCycles_ += now - w.stallStart;
    w.computeRemaining = nextComputeInterval(*program_, rng_);
    makeReady(warp_id);
    // The first ready warp ends an all-waiting sleep; a compute run
    // in progress is unaffected (the greedy warp stays selected).
    if (readyCount_ == 1)
        nextIssue_ = std::min(nextIssue_, now);
}

template <typename Self, typename Io>
void
ShaderCore::state(Self &self, Io &io)
{
    io.tag("core");
    io.u(self.app_);
    io.u(self.asid_);
    // Whether a program was bound; the Gpu re-attaches the actual
    // pointer via rebindAfterRestore (nullptr when this is false).
    bool bound = self.program_ != nullptr;
    io.b(bound);
    if constexpr (Io::kReading) {
        self.hadProgram_ = bound;
        self.program_ = nullptr;
        self.streamTable_ = nullptr;
    }
    io.u(self.warpIndexBase_);
    io.fixed(self.warps_.size(), "warp count");
    for (auto &warp : self.warps_)
        io.obj(warp);
    io.uintSeq(self.readyQueue_);
    io.u(self.readyCount_);
    io.i(self.greedyWarp_);
    if constexpr (Io::kReading) {
        for (const WarpId w : self.readyQueue_) {
            if (w >= self.warps_.size())
                io.fail("ready-queue warp id out of range");
        }
        if (self.greedyWarp_ < -1 ||
            self.greedyWarp_ >= static_cast<int>(self.warps_.size()))
            io.fail("greedy warp index out of range");
    }
    io.obj(self.l1Tlb_);
    io.obj(self.l1d_);
    io.obj(self.l1Mshr_);
    io.obj(self.l1dStats_);
    io.obj(self.rng_);
    io.u(self.instructions_);
    io.u(self.stallCycles_);
    io.u(self.outstanding_);
    io.b(self.draining_);
    if constexpr (Io::kReading)
        self.nextIssue_ = 0; // the writer settled; issue next cycle
}

MASK_STATE_INSTANTIATE(ShaderCore);

void
ShaderCore::rebindAfterRestore(const BenchmarkParams *program,
                               StreamTable *stream_table)
{
    program_ = program;
    streamTable_ = stream_table;
}

void
ShaderCore::resetStats()
{
    instructions_ = 0;
    stallCycles_ = 0;
    l1Tlb_.resetStats();
    l1dStats_.reset();
}

} // namespace mask

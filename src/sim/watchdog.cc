#include "sim/watchdog.hh"

#include <algorithm>
#include <string>

#include "common/check.hh"

namespace mask {

namespace {

const char *
reqTypeName(ReqType type)
{
    return type == ReqType::Translation ? "translation" : "data";
}

const char *
originName(ReqOrigin origin)
{
    return origin == ReqOrigin::PageWalk ? "page-walk" : "warp-data";
}

} // namespace

void
Watchdog::sweep(Cycle now, const WatchdogView &view)
{
    nextSweep_ = now + cfg_.sweepInterval;
    ++sweepsDone_;

    sweepDram(now, view);
    sweepTokens(now, view);
    sweepPool(now, view);
    sweepTlbMshr(now, view);
    sweepWalker(now, view);
}

void
Watchdog::sweepPool(Cycle now, const WatchdogView &view)
{
    const RequestPool &pool = *view.pool;
    for (ReqId id = 0; id < pool.capacity(); ++id) {
        const MemRequest &req = pool[id];
        if (!req.live)
            continue;
        const Cycle age = now - req.issueCycle;
        noteAge(age);
        if (age <= cfg_.maxAge)
            continue;
        std::string detail = "stuck ";
        detail += reqTypeName(req.type);
        detail += " request (origin ";
        detail += originName(req.origin);
        detail += ") last seen at '";
        detail += reqStageName(req.where);
        detail += "'";
        if (req.origin == ReqOrigin::PageWalk) {
            detail += ", level " + std::to_string(req.pwLevel);
        }
        throw SimInvariantError(
            "watchdog", now, detail,
            CheckContext{.reqId = id, .asid = req.asid, .app = req.app,
                         .walkId = req.origin == ReqOrigin::PageWalk
                                       ? req.walkId
                                       : CheckContext::kUnset,
                         .paddr = req.paddr, .age = age});
    }
}

void
Watchdog::sweepTlbMshr(Cycle now, const WatchdogView &view)
{
    // Find the oldest outstanding translation so the diagnostic names
    // the most-stuck miss (slot order is arbitrary, so scan fully).
    const TlbMshrTable::Entry *oldest = nullptr;
    view.tlbMshr->forEachEntry([&](const TlbMshrTable::Entry &entry) {
        noteAge(now - entry.firstMissCycle);
        if (oldest == nullptr ||
            entry.firstMissCycle < oldest->firstMissCycle) {
            oldest = &entry;
        }
    });
    if (oldest == nullptr)
        return;
    const Cycle age = now - oldest->firstMissCycle;
    if (age <= cfg_.maxAge)
        return;

    std::string detail = "stuck TLB miss with " +
                         std::to_string(oldest->waiters.size()) +
                         " waiting core(s)";
    if (oldest->walkStarted) {
        detail += "; walk " + std::to_string(oldest->walkId);
        // Chase the chain one level further: the walk's current state.
        const auto active = view.walker->activeWalkIds();
        bool walk_live = false;
        for (const WalkId id : active)
            walk_live |= (id == oldest->walkId);
        if (walk_live) {
            detail += " at level " +
                      std::to_string(
                          view.walker->fetchLevel(oldest->walkId));
            // Is the PTE fetch itself still in flight somewhere?
            const RequestPool &pool = *view.pool;
            bool fetch_in_flight = false;
            for (ReqId id = 0; id < pool.capacity(); ++id) {
                const MemRequest &req = pool[id];
                if (req.live && req.origin == ReqOrigin::PageWalk &&
                    req.walkId == oldest->walkId) {
                    detail += "; PTE fetch req " + std::to_string(id) +
                              " at '" + reqStageName(req.where) + "'";
                    fetch_in_flight = true;
                    break;
                }
            }
            if (!fetch_in_flight)
                detail += "; no PTE fetch in flight (lost completion)";
        } else {
            detail += " already released (lost wakeup)";
        }
    } else {
        detail += "; walk never started";
    }
    throw SimInvariantError(
        "watchdog", now, detail,
        CheckContext{.asid = oldest->asid, .vpn = oldest->vpn,
                     .app = oldest->app,
                     .walkId = oldest->walkStarted
                                   ? oldest->walkId
                                   : CheckContext::kUnset,
                     .age = age});
}

void
Watchdog::sweepWalker(Cycle now, const WatchdogView &view)
{
    for (const WalkId id : view.walker->activeWalkIds()) {
        const PageTableWalker::WalkInfo &info = view.walker->info(id);
        const Cycle age = now - info.startCycle;
        noteAge(age);
        SIM_CHECK_CTX(age <= cfg_.maxAge, "watchdog", now,
                      "stuck page walk at level " +
                          std::to_string(view.walker->fetchLevel(id)),
                      (CheckContext{.asid = info.asid, .vpn = info.vpn,
                                    .app = info.app, .walkId = id,
                                    .age = age}));
    }
}

void
Watchdog::sweepDram(Cycle now, const WatchdogView &view)
{
    for (std::uint32_t c = 0; c < view.dram->numChannels(); ++c)
        view.dram->channel(c).checkQueueBounds(now, c);
}

void
Watchdog::sweepTokens(Cycle now, const WatchdogView &view)
{
    if (!view.tokensEnabled || view.tokens == nullptr)
        return;
    for (AppId a = 0; a < view.numApps; ++a) {
        const std::uint32_t count = view.tokens->tokens(a);
        SIM_CHECK_CTX(count >= 1 && count <= view.warpsPerApp,
                      "watchdog", now,
                      "token count outside [1, warps/app] (" +
                          std::to_string(count) + " of " +
                          std::to_string(view.warpsPerApp) + ")",
                      CheckContext{.app = a});
    }
}

// ---------------------------------------------------------------------
// Wall-clock deadline monitor
// ---------------------------------------------------------------------

DeadlineMonitor::DeadlineMonitor()
    : thread_([this]() { loop(); })
{}

DeadlineMonitor::~DeadlineMonitor()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

std::uint64_t
DeadlineMonitor::watch(CancelToken *token, std::uint64_t timeout_ms)
{
    Entry entry;
    entry.token = token;
    entry.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
    entry.timeoutMs = timeout_ms;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        entry.id = nextId_++;
        entries_.push_back(entry);
    }
    cv_.notify_all();
    return entry.id;
}

void
DeadlineMonitor::unwatch(std::uint64_t handle)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry &e) {
                                      return e.id == handle;
                                  }),
                   entries_.end());
}

std::uint64_t
DeadlineMonitor::expired() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return expired_;
}

void
DeadlineMonitor::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        const auto now = std::chrono::steady_clock::now();
        auto wake = now + std::chrono::seconds(60);
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->deadline <= now) {
                // The message stays wall-clock-free beyond the
                // configured budget so bench output keeps its
                // determinism guarantee.
                it->token->cancel(
                    "deadline exceeded (MASK_SWEEP_TIMEOUT_MS=" +
                    std::to_string(it->timeoutMs) + ")");
                ++expired_;
                it = entries_.erase(it);
            } else {
                wake = std::min(wake, it->deadline);
                ++it;
            }
        }
        cv_.wait_until(lock, wake);
    }
}

} // namespace mask

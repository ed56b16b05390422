#include "tlb/tlb_mshr.hh"

#include "common/check.hh"

namespace mask {

TlbMshrTable::TlbMshrTable(std::uint32_t entries)
    : entries_(entries), table_(entries)
{}

TlbMshrTable::Outcome
TlbMshrTable::allocate(Asid asid, Vpn vpn, AppId app,
                       const StalledAccess &access, Cycle now)
{
    const std::uint64_t key = tlbKey(asid, vpn);
    if (app >= stalledPerApp_.size())
        stalledPerApp_.resize(app + 1, 0);

    if (Entry *entry = table_.find(key)) {
        entry->waiters.push_back(access);
        entry->maxWarpsStalled = std::max(
            entry->maxWarpsStalled,
            static_cast<std::uint32_t>(entry->waiters.size()));
        ++stalledWarps_;
        ++stalledPerApp_[app];
        return Outcome::Merged;
    }

    if (table_.size() >= entries_)
        return Outcome::Full;

    Entry entry;
    entry.asid = asid;
    entry.vpn = vpn;
    entry.app = app;
    entry.waiters.push_back(access);
    entry.maxWarpsStalled = 1;
    entry.firstMissCycle = now;
    table_.insert(key, std::move(entry));
    ++stalledWarps_;
    ++stalledPerApp_[app];
    return Outcome::Allocated;
}

bool
TlbMshrTable::has(Asid asid, Vpn vpn) const
{
    return table_.contains(tlbKey(asid, vpn));
}

TlbMshrTable::Entry &
TlbMshrTable::get(Asid asid, Vpn vpn)
{
    Entry *entry = table_.find(tlbKey(asid, vpn));
    SIM_CHECK_CTX(entry != nullptr, "tlb.mshr", kUnknownCycle,
                  "get() on a translation with no MSHR entry",
                  (CheckContext{.asid = asid, .vpn = vpn}));
    return *entry;
}

TlbMshrTable::Entry
TlbMshrTable::complete(Asid asid, Vpn vpn)
{
    const std::uint64_t key = tlbKey(asid, vpn);
    Entry entry;
    SIM_CHECK_CTX(table_.take(key, entry), "tlb.mshr", kUnknownCycle,
                  "completing a TLB miss with no MSHR entry",
                  (CheckContext{.asid = asid, .vpn = vpn}));

    const auto waiters = static_cast<std::uint32_t>(entry.waiters.size());
    SIM_CHECK_CTX(stalledWarps_ >= waiters, "tlb.mshr", kUnknownCycle,
                  "stalled-warp count underflow on completion",
                  (CheckContext{.asid = asid, .vpn = vpn,
                                .app = entry.app}));
    stalledWarps_ -= waiters;
    SIM_CHECK_CTX(entry.app < stalledPerApp_.size() &&
                      stalledPerApp_[entry.app] >= waiters,
                  "tlb.mshr", kUnknownCycle,
                  "per-app stalled-warp count underflow",
                  (CheckContext{.asid = asid, .vpn = vpn,
                                .app = entry.app}));
    stalledPerApp_[entry.app] -= waiters;

    warpsPerMiss_.add(static_cast<double>(entry.maxWarpsStalled));
    if (entry.app >= warpsPerMissPerApp_.size())
        warpsPerMissPerApp_.resize(entry.app + 1);
    warpsPerMissPerApp_[entry.app].add(
        static_cast<double>(entry.maxWarpsStalled));
    return entry;
}

const RunningStat &
TlbMshrTable::warpsPerMissFor(AppId app)
{
    if (app >= warpsPerMissPerApp_.size())
        warpsPerMissPerApp_.resize(app + 1);
    return warpsPerMissPerApp_[app];
}

void
TlbMshrTable::resetStats()
{
    warpsPerMiss_.reset();
    for (auto &stat : warpsPerMissPerApp_)
        stat.reset();
}

std::uint32_t
TlbMshrTable::stalledWarpsFor(AppId app) const
{
    return app < stalledPerApp_.size() ? stalledPerApp_[app] : 0;
}

template <typename Self, typename Io>
void
TlbMshrTable::state(Self &self, Io &io)
{
    io.tag("tlbmshr");
    io.fixed(self.entries_, "TLB MSHR entry count");
    self.table_.slots(io, [&io](auto &e) {
        io.u(e.asid);
        io.u(e.vpn);
        io.u(e.app);
        io.seq(e.waiters);
        io.u(e.maxWarpsStalled);
        io.u(e.firstMissCycle);
        io.b(e.walkStarted);
        io.u(e.walkId);
    });
    io.uintSeq(self.stalledPerApp_);
    io.u(self.stalledWarps_);
    io.obj(self.warpsPerMiss_);
    io.seq(self.warpsPerMissPerApp_);
}

MASK_STATE_INSTANTIATE(TlbMshrTable);

} // namespace mask

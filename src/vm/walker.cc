#include "vm/walker.hh"

#include "common/check.hh"

namespace mask {

PageTableWalker::PageTableWalker(const WalkerConfig &cfg) : cfg_(cfg)
{
    slots_.resize(cfg_.maxConcurrentWalks);
    freeSlots_.reserve(cfg_.maxConcurrentWalks);
    for (std::uint32_t i = 0; i < cfg_.maxConcurrentWalks; ++i)
        freeSlots_.push_back(cfg_.maxConcurrentWalks - 1 - i);
}

WalkId
PageTableWalker::startWalk(Asid asid, Vpn vpn, AppId app,
                           const std::array<Addr, kPtLevels> &pte_addrs,
                           Cycle now)
{
    SIM_CHECK_CTX(hasCapacity(), "vm.walker", now,
                  "startWalk with no free walker thread",
                  (CheckContext{.asid = asid, .vpn = vpn, .app = app}));
    const WalkId id = freeSlots_.back();
    freeSlots_.pop_back();

    Slot &slot = slots_[id];
    slot.info = WalkInfo{asid, vpn, app, now};
    slot.pteAddrs = pte_addrs;
    slot.level = 1;
    slot.inUse = true;

    if (app >= activePerApp_.size())
        activePerApp_.resize(app + 1, 0);
    ++activePerApp_[app];
    ++active_;
    ++started_;

    fetchQueue_.push_back(id);
    return id;
}

WalkId
PageTableWalker::popPendingFetch()
{
    SIM_CHECK(!fetchQueue_.empty(), "vm.walker", kUnknownCycle,
              "popPendingFetch with no pending fetch");
    const WalkId id = fetchQueue_.front();
    fetchQueue_.pop_front();
    return id;
}

Addr
PageTableWalker::fetchAddr(WalkId walk) const
{
    const Slot &slot = slots_[walk];
    SIM_CHECK_CTX(slot.inUse, "vm.walker", kUnknownCycle,
                  "fetchAddr on a released walk",
                  CheckContext{.walkId = walk});
    return slot.pteAddrs[slot.level - 1];
}

std::uint8_t
PageTableWalker::fetchLevel(WalkId walk) const
{
    SIM_CHECK_CTX(slots_[walk].inUse, "vm.walker", kUnknownCycle,
                  "fetchLevel on a released walk",
                  CheckContext{.walkId = walk});
    return slots_[walk].level;
}

bool
PageTableWalker::fetchComplete(WalkId walk, Cycle now)
{
    Slot &slot = slots_[walk];
    SIM_CHECK_CTX(slot.inUse, "vm.walker", now,
                  "fetch completion for a released walk",
                  CheckContext{.walkId = walk});
    if (slot.level == cfg_.levels) {
        walkLatency_.add(
            static_cast<double>(now - slot.info.startCycle));
        return true;
    }
    ++slot.level;
    fetchQueue_.push_back(walk);
    return false;
}

const PageTableWalker::WalkInfo &
PageTableWalker::info(WalkId walk) const
{
    SIM_CHECK_CTX(slots_[walk].inUse, "vm.walker", kUnknownCycle,
                  "info on a released walk",
                  CheckContext{.walkId = walk});
    return slots_[walk].info;
}

void
PageTableWalker::release(WalkId walk)
{
    Slot &slot = slots_[walk];
    SIM_CHECK_CTX(slot.inUse, "vm.walker", kUnknownCycle,
                  "double release of a walker slot",
                  CheckContext{.walkId = walk});
    slot.inUse = false;
    SIM_CHECK_CTX(activePerApp_[slot.info.app] > 0 && active_ > 0,
                  "vm.walker", kUnknownCycle,
                  "active-walk count underflow on release",
                  (CheckContext{.app = slot.info.app,
                                .walkId = walk}));
    --activePerApp_[slot.info.app];
    --active_;
    freeSlots_.push_back(walk);
}

std::vector<WalkId>
PageTableWalker::activeWalkIds() const
{
    std::vector<WalkId> ids;
    ids.reserve(active_);
    for (WalkId id = 0; id < slots_.size(); ++id) {
        if (slots_[id].inUse)
            ids.push_back(id);
    }
    return ids;
}

std::uint32_t
PageTableWalker::activeWalksFor(AppId app) const
{
    return app < activePerApp_.size() ? activePerApp_[app] : 0;
}

template <typename Self, typename Io>
void
PageTableWalker::state(Self &self, Io &io)
{
    io.tag("walker");
    io.fixed(self.slots_.size(), "walker slot count");
    for (auto &slot : self.slots_) {
        if constexpr (Io::kReading)
            slot = Slot{};
        io.b(slot.inUse);
        if (!slot.inUse)
            continue;
        io.u(slot.info.asid);
        io.u(slot.info.vpn);
        io.u(slot.info.app);
        io.u(slot.info.startCycle);
        for (auto &addr : slot.pteAddrs)
            io.u(addr);
        io.u(slot.level);
        if constexpr (Io::kReading) {
            if (slot.level < 1 || slot.level > kPtLevels)
                io.fail("walk level " + std::to_string(slot.level) +
                        " out of range");
        }
    }
    io.uintSeq(self.freeSlots_, self.slots_.size());
    io.uintSeq(self.fetchQueue_, self.slots_.size());
    if constexpr (Io::kReading) {
        for (const WalkId id : self.freeSlots_) {
            if (id >= self.slots_.size() || self.slots_[id].inUse)
                io.fail("walker free list names an in-use slot");
        }
        for (const WalkId id : self.fetchQueue_) {
            if (id >= self.slots_.size() || !self.slots_[id].inUse)
                io.fail("walker fetch queue names a free slot");
        }
    }
    io.uintSeq(self.activePerApp_);
    io.u(self.active_);
    io.u(self.started_);
    io.obj(self.walkLatency_);
}

MASK_STATE_INSTANTIATE(PageTableWalker);

} // namespace mask

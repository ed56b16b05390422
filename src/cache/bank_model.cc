#include "cache/bank_model.hh"

#include <cassert>

namespace mask {

LatencyPipe::LatencyPipe(std::uint32_t ports, std::uint32_t latency)
    : ports_(ports), latency_(latency)
{
    assert(ports_ > 0);
}

bool
LatencyPipe::canAccept(Cycle now) const
{
    if (portCycle_ != now) {
        portCycle_ = now;
        usedThisCycle_ = 0;
    }
    return usedThisCycle_ < ports_;
}

void
LatencyPipe::push(std::uint64_t payload, Cycle now)
{
    assert(canAccept(now));
    // Maintain the per-cycle port count here as well: push must not
    // depend on the caller having invoked canAccept first.
    if (portCycle_ != now) {
        portCycle_ = now;
        usedThisCycle_ = 0;
    }
    ++usedThisCycle_;
    pipe_.push_back(Entry{payload, now + latency_});
}

bool
LatencyPipe::hasReady(Cycle now) const
{
    return !pipe_.empty() && pipe_.front().readyAt <= now;
}

std::uint64_t
LatencyPipe::pop()
{
    assert(!pipe_.empty());
    const std::uint64_t payload = pipe_.front().payload;
    pipe_.pop_front();
    return payload;
}

BankedPipe::BankedPipe(std::uint32_t banks, std::uint32_t ports,
                       std::uint32_t latency)
{
    assert(banks > 0 && (banks & (banks - 1)) == 0);
    banks_.reserve(banks);
    for (std::uint32_t i = 0; i < banks; ++i)
        banks_.emplace_back(ports, latency);
    bankMask_ = banks - 1;
}

template <typename Self, typename Io>
void
LatencyPipe::state(Self &self, Io &io)
{
    io.tag("pipe");
    // The mutable per-cycle port counter is included so that a restore
    // taken mid-cycle (emergency snapshots) replays identically; for
    // boundary checkpoints it round-trips harmlessly.
    io.u(self.portCycle_);
    io.u(self.usedThisCycle_);
    io.seq(self.pipe_, [&io](auto &e) {
        io.u(e.payload);
        io.u(e.readyAt);
    });
}

template <typename Self, typename Io>
void
BankedPipe::state(Self &self, Io &io)
{
    io.tag("banks");
    io.fixed(self.banks_.size(), "bank count");
    for (auto &bank : self.banks_)
        io.obj(bank);
}

MASK_STATE_INSTANTIATE(LatencyPipe);
MASK_STATE_INSTANTIATE(BankedPipe);

} // namespace mask

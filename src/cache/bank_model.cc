#include "cache/bank_model.hh"

#include <cassert>

namespace mask {

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
    // Every snapshot is taken between cycles, where the per-cycle port
    // counter is stale by the next use; it stays because the pinned
    // wire format carries it, and it round-trips harmlessly.
    io.u(self.portCycle_);
    io.u(self.usedThisCycle_);
    // The entries, oldest first (the sequence format of a queue).
    if constexpr (Io::kReading) {
        const std::uint64_t n = io.count(kMaxSeqItems);
        self.head_ = 0;
        self.size_ = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e{};
            io.u(e.payload);
            io.u(e.readyAt);
            self.append(e);
        }
    } else {
        io.u(self.size_);
        for (std::size_t i = 0; i < self.size_; ++i) {
            io.u(self.at(i).payload);
            io.u(self.at(i).readyAt);
        }
    }
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

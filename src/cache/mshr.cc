#include "cache/mshr.hh"

#include "common/check.hh"

namespace mask {

MshrTable::MshrTable(std::uint32_t entries)
    : entries_(entries), table_(entries)
{}

void
MshrTable::append(Chain &chain, ReqId waiter)
{
    std::uint32_t node = freeNode_;
    if (node != kNil) {
        freeNode_ = nodes_[node].next;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[node] = Node{waiter, kNil};
    if (chain.tail != kNil)
        nodes_[chain.tail].next = node;
    else
        chain.head = node;
    chain.tail = node;
    ++chain.count;
}

MshrTable::Outcome
MshrTable::allocate(std::uint64_t key, ReqId waiter)
{
    if (Chain *chain = table_.find(key)) {
        append(*chain, waiter);
        ++merges_;
        return Outcome::Merged;
    }
    if (table_.size() >= entries_) {
        ++rejections_;
        return Outcome::Full;
    }
    Chain chain;
    append(chain, waiter);
    table_.insert(key, chain);
    return Outcome::Allocated;
}

MshrTable::Chain
MshrTable::take(std::uint64_t key)
{
    Chain chain;
    SIM_CHECK_CTX(table_.take(key, chain), "cache.mshr", kUnknownCycle,
                  "fill completed for a key with no MSHR entry",
                  CheckContext{.paddr = key});
    return chain;
}

std::vector<ReqId>
MshrTable::complete(std::uint64_t key)
{
    std::vector<ReqId> waiters;
    complete(key, [&waiters](ReqId waiter) { waiters.push_back(waiter); });
    return waiters;
}

template <typename Self, typename Io>
void
MshrTable::state(Self &self, Io &io)
{
    io.tag("mshr");
    io.fixed(self.entries_, "MSHR entry count");
    if constexpr (Io::kReading) {
        self.nodes_.clear();
        self.freeNode_ = kNil;
    }
    // Each entry travels as the sequence of its waiters, oldest first.
    self.table_.slots(io, [&self, &io](auto &chain) {
        if constexpr (Io::kReading) {
            chain = Chain{};
            const std::uint64_t n = io.count(kMaxSeqItems);
            for (std::uint64_t i = 0; i < n; ++i) {
                ReqId waiter = 0;
                io.u(waiter);
                self.append(chain, waiter);
            }
        } else {
            io.u(chain.count);
            for (std::uint32_t n = chain.head; n != kNil;
                 n = self.nodes_[n].next)
                io.u(self.nodes_[n].waiter);
        }
    });
    io.u(self.merges_);
    io.u(self.rejections_);
}

MASK_STATE_INSTANTIATE(MshrTable);

} // namespace mask

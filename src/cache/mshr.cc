#include "cache/mshr.hh"

#include "common/check.hh"

namespace mask {

MshrTable::MshrTable(std::uint32_t entries)
    : entries_(entries), table_(entries)
{}

MshrTable::Outcome
MshrTable::allocate(std::uint64_t key, ReqId waiter)
{
    if (std::vector<ReqId> *waiters = table_.find(key)) {
        waiters->push_back(waiter);
        ++merges_;
        return Outcome::Merged;
    }
    if (table_.size() >= entries_) {
        ++rejections_;
        return Outcome::Full;
    }
    std::vector<ReqId> waiters;
    if (!pool_.empty()) {
        waiters = std::move(pool_.back());
        pool_.pop_back();
    }
    waiters.push_back(waiter);
    table_.insert(key, std::move(waiters));
    return Outcome::Allocated;
}

std::vector<ReqId>
MshrTable::complete(std::uint64_t key)
{
    SIM_CHECK_CTX(table_.contains(key), "cache.mshr", kUnknownCycle,
                  "fill completed for a key with no MSHR entry",
                  CheckContext{.paddr = key});
    return table_.take(key);
}

void
MshrTable::recycle(std::vector<ReqId> &&waiters)
{
    waiters.clear();
    if (pool_.size() < entries_)
        pool_.push_back(std::move(waiters));
}

template <typename Self, typename Io>
void
MshrTable::state(Self &self, Io &io)
{
    io.tag("mshr");
    io.fixed(self.entries_, "MSHR entry count");
    self.table_.slots(io, [&io](auto &waiters) { io.uintSeq(waiters); });
    io.u(self.merges_);
    io.u(self.rejections_);
}

MASK_STATE_INSTANTIATE(MshrTable);

} // namespace mask

#include "cache/cache.hh"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace mask {

SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways), indexed_(ways >= kIndexedWays)
{
    // Misconfiguration, not a transient condition: fail loudly even in
    // release builds (sets must be a power of two for index masking).
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0 || ways_ == 0)
        std::abort();
    const std::size_t lines = static_cast<std::size_t>(sets_) * ways_;
    keys_.resize(lines);
    stamp_.resize(lines);
    payload_.resize(lines);
    if (indexed_) {
        index_ = FlatTable<std::uint32_t>(lines);
        prev_.assign(lines, kNil);
        next_.assign(lines, kNil);
        head_.assign(sets_, kNil);
        tail_.assign(sets_, kNil);
        setValid_.assign(sets_, 0);
    }
}

std::uint32_t
SetAssocCache::findLine(std::uint64_t key) const
{
    if (indexed_) {
        const std::uint32_t *line = index_.find(key);
        return line == nullptr ? kNil : *line;
    }
    const std::uint32_t base = setIndex(key) * ways_;
    for (std::uint32_t line = base; line < base + ways_; ++line) {
        if (keys_[line] == key && valid(line))
            return line;
    }
    return kNil;
}

void
SetAssocCache::listAppend(std::uint32_t set, std::uint32_t line)
{
    prev_[line] = tail_[set];
    next_[line] = kNil;
    if (tail_[set] != kNil)
        next_[tail_[set]] = line;
    else
        head_[set] = line;
    tail_[set] = line;
}

void
SetAssocCache::listUnlink(std::uint32_t set, std::uint32_t line)
{
    if (prev_[line] != kNil)
        next_[prev_[line]] = next_[line];
    else
        head_[set] = next_[line];
    if (next_[line] != kNil)
        prev_[next_[line]] = prev_[line];
    else
        tail_[set] = prev_[line];
}

void
SetAssocCache::touch(std::uint32_t line)
{
    stamp_[line] = ++useClock_;
    const std::uint32_t set = line / ways_;
    if (indexed_ && tail_[set] != line) {
        listUnlink(set, line);
        listAppend(set, line);
    }
}

bool
SetAssocCache::lookup(std::uint64_t key, std::uint64_t *payload)
{
    const std::uint32_t line = findLine(key);
    if (line == kNil)
        return false;
    touch(line);
    if (payload != nullptr)
        *payload = payload_[line];
    return true;
}

bool
SetAssocCache::fillRange(std::uint64_t key, std::uint64_t payload,
                         std::uint32_t way_lo, std::uint32_t way_hi,
                         std::uint64_t *evicted)
{
    assert(way_lo < way_hi && way_hi <= ways_);

    const std::uint32_t line = findLine(key);
    if (line != kNil) {
        // Refresh in place, even if outside the fill range: the entry
        // already lives in the cache.
        payload_[line] = payload;
        touch(line);
        return false;
    }

    const std::uint32_t set = setIndex(key);
    const std::uint32_t base = set * ways_;
    std::uint32_t victim = kNil;
    if (indexed_ && way_lo == 0 && way_hi == ways_ &&
        setValid_[set] == ways_) {
        victim = head_[set]; // full set: the list head is the LRU way
    } else {
        // First invalid way, otherwise the smallest stamp.
        for (std::uint32_t l = base + way_lo; l < base + way_hi; ++l) {
            if (!valid(l)) {
                victim = l;
                break;
            }
            if (victim == kNil || stamp_[l] < stamp_[victim])
                victim = l;
        }
    }
    assert(victim != kNil);

    const bool displaced = valid(victim);
    if (displaced) {
        if (evicted != nullptr)
            *evicted = keys_[victim];
        invalidate(victim);
    }
    ++occupancy_;
    keys_[victim] = key;
    payload_[victim] = payload;
    stamp_[victim] = ++useClock_;
    if (indexed_) {
        index_.insert(key, victim);
        listAppend(set, victim);
        ++setValid_[set];
    }
    return displaced;
}

void
SetAssocCache::invalidate(std::uint32_t line)
{
    stamp_[line] = 0;
    --occupancy_;
    if (indexed_) {
        const std::uint32_t set = line / ways_;
        index_.erase(keys_[line]);
        listUnlink(set, line);
        --setValid_[set];
    }
}

bool
SetAssocCache::erase(std::uint64_t key)
{
    const std::uint32_t line = findLine(key);
    if (line == kNil)
        return false;
    invalidate(line);
    return true;
}

void
SetAssocCache::flush()
{
    std::fill(stamp_.begin(), stamp_.end(), 0);
    occupancy_ = 0;
    if (indexed_) {
        index_.clear();
        std::fill(head_.begin(), head_.end(), kNil);
        std::fill(tail_.begin(), tail_.end(), kNil);
        std::fill(setValid_.begin(), setValid_.end(), 0);
    }
}

void
SetAssocCache::flushIf(const std::function<bool(std::uint64_t)> &pred)
{
    for (std::uint32_t line = 0; line < stamp_.size(); ++line) {
        if (valid(line) && pred(keys_[line]))
            invalidate(line);
    }
}

void
SetAssocCache::rebuildRecency()
{
    std::fill(head_.begin(), head_.end(), kNil);
    std::fill(tail_.begin(), tail_.end(), kNil);
    std::vector<std::uint32_t> order;
    for (std::uint32_t set = 0; set < sets_; ++set) {
        order.clear();
        const std::uint32_t base = set * ways_;
        for (std::uint32_t line = base; line < base + ways_; ++line) {
            if (valid(line))
                order.push_back(line);
        }
        // Recency order; equal stamps (only in a hand-made image)
        // keep way order, as the victim scan would.
        std::stable_sort(order.begin(), order.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                             return stamp_[a] < stamp_[b];
                         });
        for (const std::uint32_t line : order)
            listAppend(set, line);
        setValid_[set] = static_cast<std::uint32_t>(order.size());
    }
}

template <typename Self, typename Io>
void
SetAssocCache::state(Self &self, Io &io)
{
    io.tag("cache");
    io.fixed(self.sets_, "cache set count");
    io.fixed(self.ways_, "cache way count");
    io.u(self.useClock_);
    io.u(self.occupancy_);
    if constexpr (Io::kReading) {
        if (self.indexed_)
            self.index_.clear();
    }
    std::uint64_t valid = 0;
    for (std::uint32_t line = 0; line < self.stamp_.size(); ++line) {
        bool is_valid = self.stamp_[line] != 0;
        io.b(is_valid);
        if constexpr (Io::kReading) {
            self.keys_[line] = 0;
            self.payload_[line] = 0;
            self.stamp_[line] = 0;
        }
        if (!is_valid)
            continue;
        io.u(self.keys_[line]);
        io.u(self.payload_[line]);
        io.u(self.stamp_[line]);
        if constexpr (Io::kReading) {
            if (self.stamp_[line] == 0)
                io.fail("valid cache line with a zero LRU stamp");
            if (self.indexed_ &&
                (self.setIndex(self.keys_[line]) != line / self.ways_ ||
                 self.findLine(self.keys_[line]) != kNil))
                io.fail("cache key misplaced or duplicated");
            if (self.indexed_)
                self.index_.insert(self.keys_[line], line);
        }
        ++valid;
    }
    if constexpr (Io::kReading) {
        if (valid != self.occupancy_)
            io.fail("cache occupancy " + std::to_string(self.occupancy_) +
                    " disagrees with " + std::to_string(valid) +
                    " valid lines");
        if (self.indexed_)
            self.rebuildRecency();
    }
}

MASK_STATE_INSTANTIATE(SetAssocCache);

int
SetAssocCache::lruDepth(std::uint64_t key) const
{
    const std::uint32_t target = findLine(key);
    if (target == kNil)
        return -1;
    const std::uint32_t base = target / ways_ * ways_;
    int depth = 0;
    for (std::uint32_t line = base; line < base + ways_; ++line) {
        if (valid(line) && stamp_[line] > stamp_[target])
            ++depth;
    }
    return depth;
}

} // namespace mask

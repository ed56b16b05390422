#include "cache/cache.hh"

#include <cassert>
#include <cstdlib>

namespace mask {

SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways)
{
    // Misconfiguration, not a transient condition: fail loudly even in
    // release builds (sets must be a power of two for index masking).
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0 || ways_ == 0)
        std::abort();
    lines_.resize(static_cast<std::size_t>(sets_) * ways_);
}

std::uint32_t
SetAssocCache::setIndex(std::uint64_t key) const
{
    return static_cast<std::uint32_t>(key) & (sets_ - 1);
}

SetAssocCache::Line *
SetAssocCache::findLine(std::uint64_t key)
{
    Line *set = &lines_[static_cast<std::size_t>(setIndex(key)) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].key == key)
            return &set[w];
    }
    return nullptr;
}

const SetAssocCache::Line *
SetAssocCache::findLine(std::uint64_t key) const
{
    return const_cast<SetAssocCache *>(this)->findLine(key);
}

bool
SetAssocCache::contains(std::uint64_t key) const
{
    return findLine(key) != nullptr;
}

bool
SetAssocCache::lookup(std::uint64_t key, std::uint64_t *payload)
{
    Line *line = findLine(key);
    if (line == nullptr)
        return false;
    line->lastUse = ++useClock_;
    if (payload != nullptr)
        *payload = line->payload;
    return true;
}

bool
SetAssocCache::fill(std::uint64_t key, std::uint64_t payload,
                    std::uint64_t *evicted)
{
    return fillRange(key, payload, 0, ways_, evicted);
}

bool
SetAssocCache::fillRange(std::uint64_t key, std::uint64_t payload,
                         std::uint32_t way_lo, std::uint32_t way_hi,
                         std::uint64_t *evicted)
{
    assert(way_lo < way_hi && way_hi <= ways_);

    Line *line = findLine(key);
    if (line != nullptr) {
        // Refresh in place, even if outside the fill range: the entry
        // already lives in the cache.
        line->payload = payload;
        line->lastUse = ++useClock_;
        return false;
    }

    Line *set = &lines_[static_cast<std::size_t>(setIndex(key)) * ways_];
    Line *victim = nullptr;
    for (std::uint32_t w = way_lo; w < way_hi; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (victim == nullptr || set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    assert(victim != nullptr);

    const bool displaced = victim->valid;
    if (displaced && evicted != nullptr)
        *evicted = victim->key;
    if (!displaced)
        ++occupancy_;

    victim->key = key;
    victim->payload = payload;
    victim->lastUse = ++useClock_;
    victim->valid = true;
    return displaced;
}

bool
SetAssocCache::erase(std::uint64_t key)
{
    Line *line = findLine(key);
    if (line == nullptr)
        return false;
    line->valid = false;
    --occupancy_;
    return true;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
    occupancy_ = 0;
}

void
SetAssocCache::flushIf(const std::function<bool(std::uint64_t)> &pred)
{
    for (auto &line : lines_) {
        if (line.valid && pred(line.key)) {
            line.valid = false;
            --occupancy_;
        }
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
    std::uint64_t valid = 0;
    for (auto &line : self.lines_) {
        if constexpr (Io::kReading)
            line = Line{};
        io.b(line.valid);
        if (!line.valid)
            continue;
        io.u(line.key);
        io.u(line.payload);
        io.u(line.lastUse);
        ++valid;
    }
    if constexpr (Io::kReading) {
        if (valid != self.occupancy_)
            io.fail("cache occupancy " + std::to_string(self.occupancy_) +
                    " disagrees with " + std::to_string(valid) +
                    " valid lines");
    }
}

MASK_STATE_INSTANTIATE(SetAssocCache);

int
SetAssocCache::lruDepth(std::uint64_t key) const
{
    const Line *target = findLine(key);
    if (target == nullptr)
        return -1;
    const Line *set =
        &lines_[static_cast<std::size_t>(setIndex(key)) * ways_];
    int depth = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].lastUse > target->lastUse)
            ++depth;
    }
    return depth;
}

} // namespace mask

/**
 * @file
 * Timing model for banked, multi-ported structures with a fixed access
 * latency (shared L2 cache banks, shared L2 TLB ports, page walk
 * cache). Requests accepted in cycle t complete at t + latency;
 * at most `ports` requests are accepted per bank per cycle, and
 * rejected requests stay in the caller's queue (modeling queuing
 * latency, a first-order effect in Section 4.3).
 */

#ifndef MASK_CACHE_BANK_MODEL_HH
#define MASK_CACHE_BANK_MODEL_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/**
 * Single bank: fixed-latency pipe with a per-cycle port limit. Inline,
 * over a ring buffer: every request crosses one or two of these, and
 * the L2 stage polls every bank each cycle.
 */
class LatencyPipe
{
  public:
    LatencyPipe(std::uint32_t ports, std::uint32_t latency)
        : ports_(ports), latency_(latency)
    {
        assert(ports_ > 0);
        // At most ports_ entries enter per cycle and each leaves
        // latency_ cycles later, so this rarely needs to grow.
        std::size_t cap = 4;
        while (cap < static_cast<std::size_t>(ports_) * (latency_ + 1))
            cap <<= 1;
        ring_.resize(cap);
    }

    /** True if a port is free in cycle @p now. */
    bool
    canAccept(Cycle now) const
    {
        if (portCycle_ != now) {
            portCycle_ = now;
            usedThisCycle_ = 0;
        }
        return usedThisCycle_ < ports_;
    }

    /** Accept a payload in cycle @p now (asserts a port is free). */
    void
    push(std::uint64_t payload, Cycle now)
    {
        assert(canAccept(now));
        // Maintain the per-cycle port count here as well: push must
        // not depend on the caller having invoked canAccept first.
        if (portCycle_ != now) {
            portCycle_ = now;
            usedThisCycle_ = 0;
        }
        ++usedThisCycle_;
        append(Entry{payload, now + latency_});
    }

    /** True if the oldest accepted payload has completed by @p now. */
    bool
    hasReady(Cycle now) const
    {
        return size_ != 0 && ring_[head_].readyAt <= now;
    }

    /** Pop the oldest completed payload. */
    std::uint64_t
    pop()
    {
        assert(size_ != 0);
        const std::uint64_t payload = ring_[head_].payload;
        head_ = (head_ + 1) & (ring_.size() - 1);
        --size_;
        return payload;
    }

    std::size_t inFlight() const { return size_; }

    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    struct Entry
    {
        std::uint64_t payload;
        Cycle readyAt;
    };

    /** The @p i-th oldest entry. */
    const Entry &
    at(std::size_t i) const
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    void
    append(const Entry &e)
    {
        if (size_ == ring_.size()) {
            std::vector<Entry> bigger(ring_.size() * 2);
            for (std::size_t i = 0; i < size_; ++i)
                bigger[i] = at(i);
            ring_ = std::move(bigger);
            head_ = 0;
        }
        ring_[(head_ + size_) & (ring_.size() - 1)] = e;
        ++size_;
    }

    std::uint32_t ports_;
    std::uint32_t latency_;
    mutable Cycle portCycle_ = kNeverCycle;
    mutable std::uint32_t usedThisCycle_ = 0;
    std::vector<Entry> ring_; //!< power-of-two capacity
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** A vector of LatencyPipes addressed by bank index. */
class BankedPipe
{
  public:
    BankedPipe(std::uint32_t banks, std::uint32_t ports,
               std::uint32_t latency);

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    LatencyPipe &bank(std::uint32_t idx) { return banks_[idx]; }
    const LatencyPipe &bank(std::uint32_t idx) const
    {
        return banks_[idx];
    }

    /** Bank selection by key (power-of-two bank count). */
    std::uint32_t bankFor(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(key) & bankMask_;
    }

    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    std::vector<LatencyPipe> banks_;
    std::uint32_t bankMask_;
};

} // namespace mask

#endif // MASK_CACHE_BANK_MODEL_HH

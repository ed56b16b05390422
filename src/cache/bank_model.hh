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

#include <cstdint>
#include <deque>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/** Single bank: fixed-latency pipe with a per-cycle port limit. */
class LatencyPipe
{
  public:
    LatencyPipe(std::uint32_t ports, std::uint32_t latency);

    /** True if a port is free in cycle @p now. */
    bool canAccept(Cycle now) const;

    /** Accept a payload in cycle @p now (asserts a port is free). */
    void push(std::uint64_t payload, Cycle now);

    /** True if the oldest accepted payload has completed by @p now. */
    bool hasReady(Cycle now) const;

    /** Pop the oldest completed payload. */
    std::uint64_t pop();

    std::size_t inFlight() const { return pipe_.size(); }

    template <typename Self, typename Io>
    static void state(Self &self, Io &io);

  private:
    struct Entry
    {
        std::uint64_t payload;
        Cycle readyAt;
    };

    std::uint32_t ports_;
    std::uint32_t latency_;
    mutable Cycle portCycle_ = kNeverCycle;
    mutable std::uint32_t usedThisCycle_ = 0;
    std::deque<Entry> pipe_;
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

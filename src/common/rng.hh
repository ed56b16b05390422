/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Simulation runs must be exactly reproducible across hosts, so we
 * implement our own small generators (SplitMix64 for seeding,
 * xoshiro256** for the stream) instead of relying on the standard
 * library's unspecified distributions.
 */

#ifndef MASK_COMMON_RNG_HH
#define MASK_COMMON_RNG_HH

#include <cstdint>

#include "common/state_codec.hh"

namespace mask {

/**
 * xoshiro256** generator seeded via SplitMix64.
 *
 * All distribution helpers are implemented with integer arithmetic
 * (no std::uniform_* machinery) so results are identical on every
 * platform and compiler.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed the generator deterministically. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound == 0 returns 0. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Geometric-ish positive integer with the given mean (>= 1).
     * Used for compute-interval jitter in workload generation.
     */
    std::uint64_t geometric(double mean);

    /** Checkpoint the generator state (StateCodec interface). */
    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("rng");
        for (auto &s : self.s_)
            io.u(s);
    }

  private:
    std::uint64_t s_[4];
};

} // namespace mask

#endif // MASK_COMMON_RNG_HH

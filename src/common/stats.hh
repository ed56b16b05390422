/**
 * @file
 * Lightweight statistics primitives used by every simulator component.
 *
 * Components expose plain structs of these primitives; there is no
 * global registry. Everything is a POD-ish value type so stats can be
 * copied out of a simulation cheaply for reporting.
 */

#ifndef MASK_COMMON_STATS_HH
#define MASK_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/state_codec.hh"
#include "common/types.hh"

namespace mask {

/** Safe ratio: returns 0 when the denominator is 0. */
double safeDiv(double num, double den);

/** Ratio formatted as a percentage string, e.g. "57.8%". */
std::string pct(double fraction, int decimals = 1);

/**
 * Hit/miss pair with rate helpers; the unit of account for every
 * cache- and TLB-like structure in the simulator.
 */
struct HitMiss
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }
    double hitRate() const { return safeDiv(hits, accesses()); }
    double missRate() const { return safeDiv(misses, accesses()); }
    void reset() { hits = 0; misses = 0; }

    HitMiss &
    operator+=(const HitMiss &other)
    {
        hits += other.hits;
        misses += other.misses;
        return *this;
    }

    void
    serialize(StateWriter &w) const
    {
        w.tag("hm");
        w.u(hits);
        w.u(misses);
    }

    void
    deserialize(StateReader &r)
    {
        r.tag("hm");
        hits = r.u();
        misses = r.u();
    }
};

/** Streaming mean/min/max accumulator (no sample storage). */
struct RunningStat
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double minVal = 0.0;
    double maxVal = 0.0;

    void
    add(double x)
    {
        if (count == 0) {
            minVal = x;
            maxVal = x;
        } else {
            if (x < minVal)
                minVal = x;
            if (x > maxVal)
                maxVal = x;
        }
        ++count;
        sum += x;
    }

    double mean() const { return safeDiv(sum, count); }
    void reset() { *this = RunningStat{}; }

    void
    serialize(StateWriter &w) const
    {
        w.tag("rs");
        w.u(count);
        w.d(sum);
        w.d(minVal);
        w.d(maxVal);
    }

    void
    deserialize(StateReader &r)
    {
        r.tag("rs");
        count = r.u();
        sum = r.d();
        minVal = r.d();
        maxVal = r.d();
    }
};

/**
 * Fixed-bucket histogram for latency distributions.
 * Bucket i covers [i * width, (i + 1) * width); the last bucket is
 * open-ended.
 */
class Histogram
{
  public:
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets);

    void add(std::uint64_t value);
    std::uint64_t count() const { return total_; }
    double mean() const;
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t bucketWidth() const { return width_; }
    /** Smallest value v such that >= fraction of samples are <= v. */
    std::uint64_t percentileUpperBound(double fraction) const;
    void reset();

    void
    serialize(StateWriter &w) const
    {
        w.tag("hist");
        w.u(width_);
        putUintSeq(w, buckets_);
        w.u(total_);
        w.d(sum_);
    }

    void
    deserialize(StateReader &r)
    {
        r.tag("hist");
        width_ = r.u();
        getUintSeq(r, buckets_);
        total_ = r.u();
        sum_ = r.d();
    }

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * Periodic sampler: records a value every interval cycles and keeps a
 * running mean/min/max, mirroring the paper's "sampled every 10K
 * cycles" measurements (Figs. 5 and 6).
 */
class IntervalSampler
{
  public:
    explicit IntervalSampler(Cycle interval) : interval_(interval) {}

    /** Call once per cycle with the instantaneous value. */
    void
    tick(Cycle now, double value)
    {
        if (now >= next_) {
            stat_.add(value);
            next_ = now + interval_;
        }
    }

    /** True if the next tick() will record a sample; callers use this
     *  to skip computing the sampled value on off cycles. */
    bool due(Cycle now) const { return now >= next_; }

    const RunningStat &stat() const { return stat_; }
    void reset() { stat_.reset(); next_ = 0; }

    void
    serialize(StateWriter &w) const
    {
        w.tag("sampler");
        w.u(interval_);
        w.u(next_);
        stat_.serialize(w);
    }

    void
    deserialize(StateReader &r)
    {
        r.tag("sampler");
        interval_ = r.u();
        next_ = r.u();
        stat_.deserialize(r);
    }

  private:
    Cycle interval_;
    Cycle next_ = 0;
    RunningStat stat_;
};

} // namespace mask

#endif // MASK_COMMON_STATS_HH

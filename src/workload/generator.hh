/**
 * @file
 * Synthetic GPGPU workload model.
 *
 * The paper runs 27 CUDA/Rodinia/Parboil/LULESH/SHOC benchmarks on
 * GPGPU-Sim; we cannot execute SASS/PTX, so each benchmark is modeled
 * as a parameterized per-warp memory access process (see DESIGN.md,
 * substitution 1). The parameters control exactly the properties the
 * paper's analysis depends on: per-warp page locality (L1 TLB miss
 * rate), aggregate working-set churn (shared L2 TLB miss rate),
 * cross-warp page sharing in lockstep (the multi-warp TLB-miss stalls
 * of Fig. 4/6), compute-to-memory ratio (latency-hiding slack), and
 * streaming vs. scattered page order (DRAM row-buffer locality and
 * page-table-walk cache behaviour).
 */

#ifndef MASK_WORKLOAD_GENERATOR_HH
#define MASK_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace mask {

/** Expected TLB behaviour class from the paper's Table 2. */
enum class MissClass : std::uint8_t { Low, High };

/**
 * Parameter set describing one synthetic benchmark.
 *
 * Warps are grouped into `streams` (round-robin by application-wide
 * warp index, so one stream's warps are spread across cores, like the
 * warps of a kernel's thread blocks working through the same arrays).
 * Each stream walks a page sequence whose head advances with the
 * stream's own *progress*: after every `stepAccesses` memory accesses
 * collectively performed by the stream's warps, the head moves to the
 * next position. This models SIMT lockstep — all warps of a stream
 * demand a new page's translation within a short window, which is
 * what makes one TLB miss stall many warps (Fig. 4) — while keeping
 * translation traffic proportional to useful progress.
 */
struct BenchmarkParams
{
    const char *name = "?";

    /** Hot pages shared by all warps (high inter-warp reuse). */
    std::uint32_t hotPages = 16;

    /** Cold working-set pages (drives shared L2 TLB pressure). */
    std::uint32_t coldPages = 1024;

    /** Probability a page pick lands in the hot set. */
    double hotFraction = 0.2;

    /**
     * Mean consecutive accesses a warp makes within one page before
     * re-picking (line-run length; drives L1D/row locality).
     */
    std::uint32_t pageRun = 4;

    /** Probability a cold pick follows the stream head exactly;
     *  otherwise it gathers from the step's random target pages. */
    double streamFraction = 0.5;

    /**
     * Contiguous warps per stream (stream id = app-wide warp index /
     * blockWarps). With 64 warps per core, a value of 128 puts each
     * core's warps in one stream spanning two adjacent cores: a TLB
     * miss on the stream's new page stalls entire cores (Fig. 4)
     * while the translation is still shared across cores.
     */
    std::uint32_t blockWarps = 64;

    /** Number of concurrent page streams (lockstep warp groups). */
    std::uint32_t streams = 64;

    /**
     * Number of distinct random "gather" pages a stream shares per
     * head position (0 = pure streaming). Gather pages are uniform
     * over the cold set, so they are usually absent from every TLB
     * and their walks usually miss the L2 cache — the irregular
     * component (think BFS frontiers, hash probes, index chasing).
     * Because the whole stream gathers from the same K pages, these
     * translations are warp-shared too.
     */
    std::uint32_t randWindow = 8;

    /** Stream accesses per head step (working-set churn per work). */
    std::uint32_t stepAccesses = 30;

    /**
     * Page-number stride between consecutive sequence positions (odd
     * values cover the whole cold set). A stride >= 16 scatters
     * consecutive pages across distinct leaf PTE cache lines (16 PTEs
     * per 128B line), reproducing the paper's near-zero L2 hit rate
     * for deep page table levels (Section 4.3).
     */
    std::uint32_t pageStride = 17;

    /** Mean compute instructions between memory instructions. */
    std::uint32_t computeMean = 10;

    /**
     * Memory divergence: independent line accesses generated per
     * memory instruction (after intra-warp coalescing). 1 = fully
     * coalesced; higher values model scattered per-lane addresses
     * (GUPS-style), each of which needs its own translation.
     */
    std::uint32_t memDivergence = 1;

    /** Probability a memory access reuses the previous line (serviced
     *  warp-locally; generates no memory traffic). */
    double lineReuse = 0.2;

    /** Expected Table 2 classification (for validation benches). */
    MissClass l1Class = MissClass::High;
    MissClass l2Class = MissClass::High;
};

/**
 * Shared per-application stream progress: one access counter per
 * stream, advanced by every warp of the stream.
 */
class StreamTable
{
  public:
    explicit StreamTable(std::uint32_t streams = 0)
    {
        counts_.resize(streams == 0 ? 1 : streams, 0);
    }

    /** Post-increment the stream's access counter. */
    std::uint64_t
    advance(std::uint32_t stream)
    {
        ensure(stream);
        return counts_[stream]++;
    }

    std::uint64_t
    count(std::uint32_t stream) const
    {
        return stream < counts_.size() ? counts_[stream] : 0;
    }

    void reset() { std::fill(counts_.begin(), counts_.end(), 0); }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("streams");
        io.uintSeq(self.counts_);
    }

  private:
    void
    ensure(std::uint32_t stream)
    {
        if (stream >= counts_.size())
            counts_.resize(stream + 1, 0);
    }

    std::vector<std::uint64_t> counts_;
};

/** Mutable per-warp cursor state for the access process. */
struct WarpMemState
{
    Vpn page = 0;
    std::uint32_t runLeft = 0;
    std::uint64_t lineCursor = 0;
    std::uint64_t lastPos = 0; //!< stream head position at last pick
    bool started = false;

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("wm");
        io.u(self.page);
        io.u(self.runLeft);
        io.u(self.lineCursor);
        io.u(self.lastPos);
        io.b(self.started);
    }
};

/**
 * Produce the next virtual byte address for a warp's memory
 * instruction. @p warp_index is the warp's application-wide index,
 * which selects its stream in @p streams.
 *
 * When @p reused is non-null, *reused is set when the access repeats
 * the previous line; such accesses are serviced from the warp's
 * just-fetched data (register/L1 locality) and generate no memory
 * traffic.
 */
Addr nextVaddr(const BenchmarkParams &params, WarpMemState &state,
               Rng &rng, std::uint32_t warp_index,
               StreamTable &streams, std::uint32_t page_bits,
               std::uint32_t line_bits, bool *reused = nullptr);

/** Compute instructions to execute before the next memory access. */
std::uint32_t nextComputeInterval(const BenchmarkParams &params,
                                  Rng &rng);

/** Total distinct pages the benchmark can touch. */
inline std::uint64_t
workingSetPages(const BenchmarkParams &params)
{
    return std::uint64_t{params.hotPages} + params.coldPages;
}

} // namespace mask

#endif // MASK_WORKLOAD_GENERATOR_HH

/**
 * @file
 * Shader core (streaming multiprocessor) model: 64 warps, a
 * greedy-then-oldest (GTO) warp scheduler, a private L1 TLB, a private
 * L1 data cache with MSHRs, and drain support for address-space
 * switches (paper Sections 5.1 and 6, Table 1).
 */

#ifndef MASK_CORE_SHADER_CORE_HH
#define MASK_CORE_SHADER_CORE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/warp.hh"
#include "tlb/tlb.hh"
#include "workload/generator.hh"

namespace mask {

/** A memory instruction leaving the core's issue stage. */
struct IssuedAccess
{
    /** Independent line addresses after intra-warp coalescing. */
    static constexpr std::uint32_t kMaxParts = 8;
    Addr vaddrs[kMaxParts] = {};
    std::uint32_t count = 1;
    WarpId warp = 0;
};

/** One GPU core. */
class ShaderCore
{
  public:
    ShaderCore(CoreId id, const GpuConfig &cfg);

    /**
     * (Re)assign the core to an application. Starts fresh warps;
     * the caller is responsible for having drained the core first
     * (see startDrain / drained). @p stream_table is the
     * application's shared per-stream progress; @p warp_index_base is
     * this core's offset into the application-wide warp index space
     * (core-within-app index x warps per core).
     */
    void assign(AppId app, Asid asid, const BenchmarkParams *program,
                StreamTable *stream_table,
                std::uint32_t warp_index_base, std::uint64_t seed);

    CoreId id() const { return id_; }
    AppId app() const { return app_; }
    Asid asid() const { return asid_; }
    const BenchmarkParams *program() const { return program_; }

    /**
     * Issue stage for one cycle: selects a warp GTO-style and issues
     * one instruction. Returns the memory access when the issued
     * instruction is a memory instruction.
     */
    std::optional<IssuedAccess> issue(Cycle now);

    /**
     * One coalesced access of @p warp's memory instruction completed;
     * the warp becomes ready when all of them have.
     */
    void accessDone(WarpId warp, Cycle now);

    /** Warps currently able to issue (latency-hiding headroom). */
    std::uint32_t readyWarps() const { return readyCount_; }

    std::uint32_t numWarps() const
    {
        return static_cast<std::uint32_t>(warps_.size());
    }

    /** Instructions issued since the last resetStats. */
    std::uint64_t instructions() const { return instructions_; }

    /** Memory accesses below the issue stage still outstanding. */
    std::uint32_t outstanding() const { return outstanding_; }
    void noteAccessInFlight() { ++outstanding_; }

    // --- Address-space switch (Section 5.1) ---

    /** Stop issuing; the core completes in-flight accesses first. */
    void startDrain() { draining_ = true; }
    bool draining() const { return draining_; }
    bool drained() const { return draining_ && outstanding_ == 0; }

    /** Private L1 structures (wired by the GPU top level). */
    Tlb &l1Tlb() { return l1Tlb_; }
    SetAssocCache &l1d() { return l1d_; }
    MshrTable &l1Mshr() { return l1Mshr_; }
    HitMiss &l1dStats() { return l1dStats_; }
    Rng &rng() { return rng_; }

    /** Aggregate warp stall cycles spent waiting on memory. */
    std::uint64_t stallCycles() const { return stallCycles_; }

    void resetStats();

    /**
     * Snapshot all mutable core state. The program/stream-table
     * pointers are owned by the Gpu and are NOT serialized; after
     * deserialize the Gpu re-attaches them via rebindAfterRestore.
     */
    void serialize(StateWriter &w) const;
    void deserialize(StateReader &r);
    void rebindAfterRestore(const BenchmarkParams *program,
                            StreamTable *stream_table);
    /** True when the snapshot had a program bound (restore must call
     *  rebindAfterRestore with non-null pointers). */
    bool needsRebind() const { return hadProgram_; }

  private:
    Warp &warp(WarpId w) { return warps_[w]; }
    void makeReady(WarpId w);

    CoreId id_;
    const GpuConfig &cfg_;
    AppId app_ = 0;
    Asid asid_ = 0;
    const BenchmarkParams *program_ = nullptr;
    StreamTable *streamTable_ = nullptr;
    std::uint32_t warpIndexBase_ = 0;

    std::vector<Warp> warps_;
    std::deque<WarpId> readyQueue_;
    std::uint32_t readyCount_ = 0;
    int greedyWarp_ = -1;

    Tlb l1Tlb_;
    SetAssocCache l1d_;
    MshrTable l1Mshr_;
    HitMiss l1dStats_;
    Rng rng_;

    std::uint64_t instructions_ = 0;
    std::uint64_t stallCycles_ = 0;
    std::uint32_t outstanding_ = 0;
    bool draining_ = false;
    bool hadProgram_ = false; //!< set by deserialize (see needsRebind)
};

} // namespace mask

#endif // MASK_CORE_SHADER_CORE_HH

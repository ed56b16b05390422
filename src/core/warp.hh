/**
 * @file
 * Warp execution state. A warp alternates between compute phases
 * (one instruction per scheduler slot) and memory instructions whose
 * addresses come from the synthetic workload model; a warp issuing a
 * memory instruction blocks until the access completes (translation +
 * data), which is exactly the stall behaviour Fig. 4 of the paper
 * analyzes.
 */

#ifndef MASK_CORE_WARP_HH
#define MASK_CORE_WARP_HH

#include <cstdint>

#include "common/types.hh"
#include "workload/generator.hh"

namespace mask {

/** Scheduling state of one warp. */
enum class WarpState : std::uint8_t {
    Ready,   //!< has a compute or memory instruction to issue
    Waiting, //!< blocked on an outstanding memory access
};

/** One warp's execution and workload-cursor state. */
struct Warp
{
    WarpState status = WarpState::Ready;
    /** Compute instructions left before the next memory instruction. */
    std::uint32_t computeRemaining = 0;
    /** Outstanding coalesced accesses of the current mem instruction. */
    std::uint32_t partsOutstanding = 0;
    /** Instructions issued (compute + memory). */
    std::uint64_t instructions = 0;
    /** Memory accesses issued. */
    std::uint64_t memAccesses = 0;
    /** Cycle the outstanding access was issued (stall accounting). */
    Cycle stallStart = 0;
    /** Workload generator cursor. */
    WarpMemState mem;

    void
    reset()
    {
        *this = Warp{};
    }

    template <typename Self, typename Io>
    static void
    state(Self &self, Io &io)
    {
        io.tag("warp");
        io.u(self.status);
        if constexpr (Io::kReading) {
            if (self.status > WarpState::Waiting)
                io.fail("invalid warp state " +
                        std::to_string(static_cast<unsigned>(self.status)));
        }
        io.u(self.computeRemaining);
        io.u(self.partsOutstanding);
        io.u(self.instructions);
        io.u(self.memAccesses);
        io.u(self.stallStart);
        io.obj(self.mem);
    }
};

} // namespace mask

#endif // MASK_CORE_WARP_HH

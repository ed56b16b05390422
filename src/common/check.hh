/**
 * @file
 * Structured runtime invariant checks (DESIGN.md §6 hard invariants).
 *
 * SIM_CHECK replaces bare assert() on hot invariants: a failure throws
 * a SimInvariantError carrying the module, simulation cycle, and any
 * request identifiers the caller attached, so the runner and bench
 * binaries can emit one diagnostic block (and a deterministic
 * crash-replay file) instead of abort()ing mid-stats.
 */

#ifndef MASK_COMMON_CHECK_HH
#define MASK_COMMON_CHECK_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/types.hh"

namespace mask {

/** Sentinel for "cycle unknown at the throw site". */
constexpr Cycle kUnknownCycle = kNeverCycle;

/**
 * Optional identifiers attached to a failed check. Unset fields keep
 * the sentinel and are omitted from the formatted diagnostic.
 */
struct CheckContext
{
    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

    std::uint64_t reqId = kUnset;
    std::uint64_t asid = kUnset;
    std::uint64_t vpn = kUnset;
    std::uint64_t app = kUnset;
    std::uint64_t walkId = kUnset;
    std::uint64_t paddr = kUnset;
    std::uint64_t age = kUnset; //!< cycles since the request was issued

    /** " req=3 asid=1 vpn=0x42 ..." (leading space), or "". */
    std::string describe() const;
};

/**
 * A violated hard invariant. what() is a single formatted line;
 * diagnostic() is the multi-line block callers print on catch.
 */
class SimInvariantError : public std::runtime_error
{
  public:
    SimInvariantError(std::string module, Cycle cycle,
                      std::string detail, CheckContext ctx = {});

    const std::string &module() const { return module_; }
    Cycle cycle() const { return cycle_; }
    const std::string &detail() const { return detail_; }
    const CheckContext &context() const { return ctx_; }

    /** One fenced multi-line report suitable for stderr. */
    std::string diagnostic() const;

    /** Crash-repro file the runner wrote for this failure ("" =
     *  none). */
    const std::string &reproPath() const { return reproPath_; }
    void setReproPath(std::string path) { reproPath_ = std::move(path); }

  private:
    std::string module_;
    Cycle cycle_;
    std::string detail_;
    CheckContext ctx_;
    std::string reproPath_;
};

namespace detail {

[[noreturn]] void throwCheckFailure(const char *cond, const char *module,
                                    Cycle cycle,
                                    const std::string &detail,
                                    const CheckContext &ctx);

} // namespace detail

/**
 * Invariant check with no request context. @p cycle may be
 * kUnknownCycle in modules that do not track simulation time.
 */
#define SIM_CHECK(cond_, module_, cycle_, detail_)                       \
    do {                                                                 \
        if (!(cond_)) [[unlikely]] {                                     \
            ::mask::detail::throwCheckFailure(                           \
                #cond_, (module_), (cycle_), (detail_),                  \
                ::mask::CheckContext{});                                 \
        }                                                                \
    } while (0)

/** Invariant check carrying request identifiers (a CheckContext). */
#define SIM_CHECK_CTX(cond_, module_, cycle_, detail_, ctx_)             \
    do {                                                                 \
        if (!(cond_)) [[unlikely]] {                                     \
            ::mask::detail::throwCheckFailure(                           \
                #cond_, (module_), (cycle_), (detail_), (ctx_));         \
        }                                                                \
    } while (0)

} // namespace mask

#endif // MASK_COMMON_CHECK_HH

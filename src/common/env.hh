/**
 * @file
 * The one reader for every environment knob (README.md lists the
 * MASK_* knobs; scripts/check_knobs.sh keeps that list equal to the
 * names passed to these functions in src/ and bench/).
 *
 * All knobs follow one rule set, whichever subsystem reads them:
 *
 * - Unset and empty are the same; the caller's default applies.
 * - envFlag accepts exactly "0" or "1".
 * - envU64 accepts unsigned decimal digits that fit in 64 bits. A
 *   sign, a space, a unit suffix ("15s"), an exponent ("1e6") or
 *   overflow is malformed.
 * - A malformed value throws ConfigError naming the knob and the
 *   value. There is no silent fallback: a typo must not shrink a
 *   deadline or turn checkpointing off.
 */

#ifndef MASK_COMMON_ENV_HH
#define MASK_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace mask {

/** "1" -> true; "0", unset or empty -> false; anything else throws. */
bool envFlag(const char *name);

/** Decimal value of @p name, or @p fallback when unset or empty. */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** Value of @p name, or @p fallback when unset or empty. */
std::string envString(const char *name, const char *fallback = "");

} // namespace mask

#endif // MASK_COMMON_ENV_HH

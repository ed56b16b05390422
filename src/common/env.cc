#include "common/env.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/config.hh"

namespace mask {

namespace {

/** The raw value of @p name, or null when unset or empty. */
const char *
rawValue(const char *name)
{
    const char *value = std::getenv(name);
    return value != nullptr && value[0] != '\0' ? value : nullptr;
}

[[noreturn]] void
malformed(const char *name, const char *value, const char *expected)
{
    throw ConfigError(std::string(name) + "='" + value + "': expected " +
                      expected);
}

} // namespace

bool
envFlag(const char *name)
{
    const char *value = rawValue(name);
    if (value == nullptr)
        return false;
    if ((value[0] == '0' || value[0] == '1') && value[1] == '\0')
        return value[0] == '1';
    malformed(name, value, "0 or 1");
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = rawValue(name);
    if (value == nullptr)
        return fallback;
    // from_chars into an unsigned type rejects a sign and leading
    // space, and reports overflow; a short parse is trailing junk.
    const char *end = value + std::strlen(value);
    std::uint64_t n = 0;
    const auto [ptr, ec] = std::from_chars(value, end, n);
    if (ec != std::errc() || ptr != end)
        malformed(name, value, "an unsigned decimal integer below 2^64");
    return n;
}

std::string
envString(const char *name, const char *fallback)
{
    const char *value = rawValue(name);
    return value != nullptr ? value : fallback;
}

} // namespace mask

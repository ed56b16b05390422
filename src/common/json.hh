/**
 * @file
 * The one JSON string escaper, shared by every JSON or JSONL file the
 * simulator writes: the sweep journal and the telemetry streams.
 */

#ifndef MASK_COMMON_JSON_HH
#define MASK_COMMON_JSON_HH

#include <string>
#include <string_view>

namespace mask {

/**
 * Body of a JSON string literal holding @p s: quote and backslash are
 * escaped, \n \r \t by name, every other byte below 0x20 as \u00XX.
 */
std::string jsonEscape(std::string_view s);

} // namespace mask

#endif // MASK_COMMON_JSON_HH

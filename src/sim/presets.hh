/**
 * @file
 * Architecture preset lookup shared by benches, tests, and examples.
 */

#ifndef MASK_SIM_PRESETS_HH
#define MASK_SIM_PRESETS_HH

#include <string_view>
#include <vector>

#include "common/config.hh"

namespace mask {

/** "maxwell" (Table 1 default), "fermi", or "integrated"; any other
 *  name throws ConfigError. */
GpuConfig archByName(std::string_view name);

/** Names of all available architecture presets. */
std::vector<std::string_view> allArchNames();

} // namespace mask

#endif // MASK_SIM_PRESETS_HH

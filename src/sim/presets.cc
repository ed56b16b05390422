#include "sim/presets.hh"

#include <string>

namespace mask {

GpuConfig
archByName(std::string_view name)
{
    if (name == "maxwell")
        return maxwellConfig();
    if (name == "fermi")
        return fermiConfig();
    if (name == "integrated")
        return integratedGpuConfig();
    throw ConfigError("unknown architecture preset: " +
                      std::string(name));
}

std::vector<std::string_view>
allArchNames()
{
    return {"maxwell", "fermi", "integrated"};
}

} // namespace mask

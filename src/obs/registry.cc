#include "obs/registry.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string_view>

#include <sys/stat.h>

#include "common/config.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "obs/trace.hh"

namespace mask {
namespace obs {

std::size_t
SeriesRegistry::add(SeriesDesc d)
{
    series_.push_back(std::move(d));
    return series_.size() - 1;
}

void
appendJsonNumber(std::string &out, double v)
{
    char buf[40];
    // NaN/inf are not valid JSON; they cannot arise from the gauges
    // (safeDiv clamps 0/0 to 0) but a guard keeps the file loadable.
    if (!std::isfinite(v)) {
        out += "0";
        return;
    }
    constexpr double kExact = 9007199254740992.0; // 2^53
    if (v == std::floor(v) && v >= -kExact && v <= kExact) {
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    out += buf;
}

std::string
SeriesRegistry::schemaJson(const std::string &stream,
                           std::uint64_t interval) const
{
    std::string out = "{\"schema\":\"" + jsonEscape(stream) + "\"";
    out += ",\"version\":" + std::to_string(kSchemaVersion);
    out += ",\"interval\":" + std::to_string(interval);
    out += ",\"series\":[";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        const SeriesDesc &d = series_[i];
        if (i != 0)
            out += ",";
        out += "{\"name\":\"" + jsonEscape(d.name) + "\"";
        out += ",\"unit\":\"" + jsonEscape(d.unit) + "\"";
        out += ",\"app\":" + std::to_string(d.app);
        out += ",\"kind\":\"" + jsonEscape(d.kind) + "\"";
        out += ",\"desc\":\"" + jsonEscape(d.desc) + "\"}";
    }
    out += "]}";
    return out;
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

namespace {

/** MASK_TRACE_CATS ("tlb,walk,...") -> TraceCat bitmask. Empty selects
 *  everything; an unknown name throws, so a typo cannot silently
 *  narrow the trace. */
std::uint32_t
parseCatsSpec(const std::string &spec)
{
    if (spec.empty())
        return 0xffffffffu;
    std::uint32_t mask = 0;
    std::string_view rest = spec;
    for (;;) {
        const std::size_t comma = rest.find(',');
        const std::string_view name = rest.substr(0, comma);
        std::uint32_t bit = 0;
        for (std::uint32_t b = 1; b <= kLastTraceCat; b <<= 1) {
            if (name == traceCatName(static_cast<TraceCat>(b)))
                bit = b;
        }
        if (bit == 0)
            throw ConfigError("MASK_TRACE_CATS='" + spec +
                              "': unknown category '" +
                              std::string(name) +
                              "' (expected tlb, walk, dram, quota or "
                              "shootdown)");
        mask |= bit;
        if (comma == std::string_view::npos)
            return mask;
        rest.remove_prefix(comma + 1);
    }
}

} // namespace

ObsOptions
obsOptionsFromEnv(const std::string &run_name)
{
    ObsOptions o;
    // 0 keeps the default: an interval of 0 would never sample.
    if (const std::uint64_t n = envU64("MASK_TIMESERIES_INTERVAL", 0))
        o.timeseriesInterval = n;
    o.traceCats = parseCatsSpec(envString("MASK_TRACE_CATS"));
    const std::string dir = envString("MASK_SWEEP_OBS_DIR");
    if (!dir.empty()) {
        ::mkdir(dir.c_str(), 0777); // best-effort; the writers warn
        o.prefix = dir + "/" + run_name;
    }
    return o;
}

} // namespace obs
} // namespace mask

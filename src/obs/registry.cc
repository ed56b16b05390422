#include "obs/registry.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/env.hh"

namespace mask {
namespace obs {

std::size_t
SeriesRegistry::add(SeriesDesc d)
{
    series_.push_back(std::move(d));
    return series_.size() - 1;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
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

/** Category spec ("tlb,walk,...") -> bitmask; see trace.hh for the
 *  bit assignments. Empty selects everything; unknown names are
 *  ignored so a typo degrades to fewer categories, not a crash. */
std::uint32_t
parseCatsSpec(std::string_view spec)
{
    if (spec.empty())
        return 0xffffffffu;
    static const struct
    {
        std::string_view name;
        std::uint32_t bit;
    } kCats[] = {
        {"tlb", 1u << 0},  {"walk", 1u << 1},      {"dram", 1u << 2},
        {"quota", 1u << 3}, {"shootdown", 1u << 4},
    };
    std::uint32_t mask = 0;
    for (;;) {
        const std::size_t comma = spec.find(',');
        const std::string_view name = spec.substr(0, comma);
        for (const auto &c : kCats) {
            if (c.name == name)
                mask |= c.bit;
        }
        if (comma == std::string_view::npos)
            break;
        spec.remove_prefix(comma + 1);
    }
    return mask;
}

thread_local const ObsOptions *g_override = nullptr;

} // namespace

ObsOptions
obsOptionsFromEnv()
{
    ObsOptions o;
    o.timeseriesPath = envString("MASK_TIMESERIES");
    // 0 keeps the default: an interval of 0 would never sample.
    if (const std::uint64_t n = envU64("MASK_TIMESERIES_INTERVAL", 0))
        o.timeseriesInterval = n;
    o.tracePath = envString("MASK_TRACE");
    o.traceCats = parseCatsSpec(envString("MASK_TRACE_CATS"));
    o.stageProfilePath = envString("MASK_PROFILE_STAGES_OUT");
    return o;
}

ObsOptions
resolveObsOptions()
{
    if (g_override != nullptr)
        return *g_override;
    return obsOptionsFromEnv();
}

ScopedObsOverride::ScopedObsOverride(ObsOptions opts)
    : opts_(std::move(opts)), prev_(g_override)
{
    g_override = &opts_;
}

ScopedObsOverride::~ScopedObsOverride()
{
    g_override = prev_;
}

} // namespace obs
} // namespace mask

/**
 * @file
 * The environment-knob readers (common/env.hh): one table per reader,
 * then the rules as the policy functions see them. A malformed value
 * throws ConfigError; every well-formed value, 0 included, keeps the
 * meaning its knob documents.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "bench_util.hh"
#include "common/config.hh"
#include "common/env.hh"
#include "obs/registry.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "sim/sweep_dist.hh"

namespace mask {
namespace {

constexpr const char *kKnob = "MASK_TEST_ENV_KNOB";

/** setenv/unsetenv for one scope; nullptr means unset. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
};

struct FlagCase
{
    const char *value;
    std::optional<bool> want; //!< nullopt: must throw
};

TEST(EnvFlag, Table)
{
    const FlagCase cases[] = {
        {nullptr, false}, {"", false},         {"0", false},
        {"1", true},      {"yes", std::nullopt}, {"true", std::nullopt},
        {"2", std::nullopt}, {"10", std::nullopt}, {"01", std::nullopt},
        {" 1", std::nullopt}, {"1 ", std::nullopt}, {"-1", std::nullopt},
    };
    for (const FlagCase &c : cases) {
        const ScopedEnv env(kKnob, c.value);
        const std::string label = c.value != nullptr ? c.value : "unset";
        if (c.want.has_value())
            EXPECT_EQ(envFlag(kKnob), *c.want) << label;
        else
            EXPECT_THROW(envFlag(kKnob), ConfigError) << label;
    }
}

struct U64Case
{
    const char *value;
    std::optional<std::uint64_t> want; //!< nullopt: must throw
};

TEST(EnvU64, Table)
{
    constexpr std::uint64_t kFallback = 77;
    const U64Case cases[] = {
        {nullptr, kFallback},
        {"", kFallback},
        {"0", 0},
        {"42", 42},
        {"007", 7},
        {"18446744073709551615", ~std::uint64_t{0}},
        {"15s", std::nullopt},   // unit suffix: was a 15 ms deadline
        {"-5", std::nullopt},    // sign: was 2^64 - 5
        {"1e6", std::nullopt},   // exponent: was checkpointing off
        {"+5", std::nullopt},
        {" 5", std::nullopt},
        {"5 ", std::nullopt},
        {"0x10", std::nullopt},
        {"3.5", std::nullopt},
        {"10k", std::nullopt},
        {"abc", std::nullopt},
        {"18446744073709551616", std::nullopt}, // 2^64 overflows
    };
    for (const U64Case &c : cases) {
        const ScopedEnv env(kKnob, c.value);
        const std::string label = c.value != nullptr ? c.value : "unset";
        if (c.want.has_value())
            EXPECT_EQ(envU64(kKnob, kFallback), *c.want) << label;
        else
            EXPECT_THROW(envU64(kKnob, kFallback), ConfigError) << label;
    }
}

TEST(EnvString, Table)
{
    const struct
    {
        const char *value;
        const char *want;
    } cases[] = {
        {nullptr, "dflt"}, {"", "dflt"}, {"x", "x"}, {" ", " "},
        {"/tmp/a b", "/tmp/a b"},
    };
    for (const auto &c : cases) {
        const ScopedEnv env(kKnob, c.value);
        EXPECT_EQ(envString(kKnob, "dflt"), c.want)
            << (c.value != nullptr ? c.value : "unset");
    }
    const ScopedEnv unset(kKnob, nullptr);
    EXPECT_EQ(envString(kKnob), "");
}

TEST(EnvErrors, MessageNamesTheKnobAndTheValue)
{
    const ScopedEnv env(kKnob, "15s");
    try {
        envU64(kKnob, 0);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(kKnob), std::string::npos) << what;
        EXPECT_NE(what.find("'15s'"), std::string::npos) << what;
    }
}

TEST(EnvKnobs, MalformedValuesThrowFromThePolicies)
{
    {
        const ScopedEnv cycles("MASK_BENCH_CYCLES", "15s");
        EXPECT_THROW(bench::benchOptions(), ConfigError);
    }
    {
        const ScopedEnv dir("MASK_SWEEP_DIST_DIR", "/tmp/envdist");
        const ScopedEnv heartbeat("MASK_SWEEP_DIST_HEARTBEAT_MS", "-5");
        EXPECT_THROW(distPolicyFromEnv(), ConfigError);
    }
    {
        const ScopedEnv interval("MASK_CKPT_INTERVAL_CYCLES", "1e6");
        EXPECT_THROW(checkpointPolicyFromEnv(), ConfigError);
    }
    {
        const ScopedEnv dir("MASK_SWEEP_DIST_DIR", "/tmp/envdist");
        const ScopedEnv merge("MASK_SWEEP_DIST_MERGE", "yes");
        EXPECT_THROW(distPolicyFromEnv(), ConfigError);
    }
    {
        const ScopedEnv warm("MASK_SWEEP_WARM", "on");
        EXPECT_THROW(warmPolicyFromEnv(), ConfigError);
    }
    {
        const ScopedEnv interval("MASK_TIMESERIES_INTERVAL", "1k");
        EXPECT_THROW(obs::obsOptionsFromEnv(), ConfigError);
    }
    {
        const ScopedEnv jobs("MASK_BENCH_JOBS", "-1");
        EXPECT_THROW(sweepJobs(), ConfigError);
    }
}

TEST(EnvKnobs, ZeroKeepsEachKnobsMeaning)
{
    {
        const ScopedEnv dir("MASK_SWEEP_DIST_DIR", "/tmp/envdist");
        const ScopedEnv merge("MASK_SWEEP_DIST_MERGE", "0");
        EXPECT_FALSE(distPolicyFromEnv().mergeOnly) << "0 = off";
    }
    {
        const ScopedEnv interval("MASK_CKPT_INTERVAL_CYCLES", "0");
        EXPECT_FALSE(checkpointPolicyFromEnv().enabled()) << "0 = off";
    }
    {
        const ScopedEnv interval("MASK_TIMESERIES_INTERVAL", "0");
        EXPECT_EQ(obs::obsOptionsFromEnv().timeseriesInterval, 10000u)
            << "0 keeps the default";
    }
    {
        const ScopedEnv dir("MASK_SWEEP_DIST_DIR", "/tmp/envdist");
        const ScopedEnv heartbeat("MASK_SWEEP_DIST_HEARTBEAT_MS", "0");
        const DistPolicy policy = distPolicyFromEnv();
        EXPECT_EQ(policy.heartbeatMs, 10u) << "floored at 10 ms";
        EXPECT_EQ(policy.stealAfterMs, 100u) << "ten heartbeats";
    }
    {
        const ScopedEnv jobs("MASK_BENCH_JOBS", "0");
        const unsigned hw = std::thread::hardware_concurrency();
        EXPECT_EQ(sweepJobs(), hw != 0 ? hw : 1u) << "0 = one per thread";
    }
}

TEST(EnvKnobs, BenchWindowsAndPairCap)
{
    const struct
    {
        const char *fast;
        const char *cycles;
        Cycle warmup;
        Cycle measure;
    } cases[] = {
        {nullptr, nullptr, 24000, 80000},
        {"1", nullptr, 6000, 20000},
        {"0", "0", 24000, 80000},      // 0 keeps the default window
        {nullptr, "12345", 4000, 12345}, // warmup floored at 4000
        {"1", "100000", 25000, 100000},  // CYCLES wins over FAST
    };
    for (const auto &c : cases) {
        const ScopedEnv fast("MASK_BENCH_FAST", c.fast);
        const ScopedEnv cycles("MASK_BENCH_CYCLES", c.cycles);
        const RunOptions options = bench::benchOptions();
        const std::string label = c.cycles != nullptr ? c.cycles : "unset";
        EXPECT_EQ(options.warmup, c.warmup) << label;
        EXPECT_EQ(options.measure, c.measure) << label;
    }

    const std::size_t all = workloadPairs().size();
    {
        const ScopedEnv pairs("MASK_BENCH_PAIRS", "2");
        EXPECT_EQ(bench::benchPairs().size(), 2u);
    }
    {
        const ScopedEnv pairs("MASK_BENCH_PAIRS", "0");
        EXPECT_EQ(bench::benchPairs().size(), all) << "0 = no cap";
    }
    {
        const ScopedEnv pairs("MASK_BENCH_PAIRS", "2x");
        EXPECT_THROW(bench::benchPairs(), ConfigError);
    }
}

} // namespace
} // namespace mask

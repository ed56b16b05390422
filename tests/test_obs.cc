/**
 * @file
 * Observability-layer tests (DESIGN.md §13): the telemetry exporters
 * are observation-only and deterministic. Same-seed runs must produce
 * byte-identical timeseries/trace files; turning tracing on must not
 * change a single bit of GpuStats across design points and fault
 * injection; and a snapshot save/resume pair must emit exactly
 * the reference trace-event stream, split across two files with no
 * duplicate or missing duration events; and concurrent sweep workers
 * publish one whole file pair per distinct run. Plus unit coverage for the
 * registry schema, JSON formatting, env-knob parsing, due/rearm
 * arithmetic, and the pinned tickOne() stage-name order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "common/json.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/gpu.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

constexpr Cycle kWarmup = 3000;
constexpr Cycle kMeasure = 6000;

GpuConfig
smallConfig()
{
    GpuConfig cfg;
    cfg.numCores = 4;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    return cfg;
}

const BenchmarkParams &
benchA()
{
    static const BenchmarkParams p = [] {
        BenchmarkParams q;
        q.name = "obs-a";
        q.hotPages = 4;
        q.coldPages = 5000;
        q.hotFraction = 0.1;
        q.pageRun = 2;
        q.streamFraction = 0.6;
        q.blockWarps = 16;
        q.randWindow = 4;
        q.stepAccesses = 24;
        q.computeMean = 4;
        q.memDivergence = 2;
        q.lineReuse = 0.3;
        return q;
    }();
    return p;
}

const BenchmarkParams &
benchB()
{
    static const BenchmarkParams p = [] {
        BenchmarkParams q = benchA();
        q.name = "obs-b";
        q.coldPages = 100;
        q.pageRun = 8;
        return q;
    }();
    return p;
}

std::unique_ptr<Gpu>
makeGpu(const GpuConfig &cfg, const obs::ObsOptions &opts = {})
{
    return std::make_unique<Gpu>(
        cfg, std::vector<AppDesc>{AppDesc{&benchA()}, AppDesc{&benchB()}},
        opts);
}

GpuConfig
configFor(DesignPoint point, bool faults)
{
    GpuConfig cfg = applyDesignPoint(smallConfig(), point);
    if (faults) {
        cfg.harden.fault.enabled = true;
        cfg.harden.fault.seed = 7;
        cfg.harden.fault.dramDelayProb = 0.05;
        cfg.harden.fault.walkDropProb = 0.02;
        cfg.harden.fault.portStallProb = 0.01;
    }
    return cfg;
}

std::string
statsBlob(const GpuStats &stats)
{
    PairResult r;
    r.stats = stats;
    r.sharedIpc = stats.ipc;
    return encodePairResult(r);
}

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return data;
}

/** Obs options pointing both exporters at per-test temp files. */
obs::ObsOptions
optsFor(const std::string &tag, std::uint64_t interval = 1000)
{
    obs::ObsOptions opts;
    opts.prefix = tmpPath("obs_" + tag);
    opts.timeseriesInterval = interval;
    return opts;
}

/**
 * The individual event lines of a Chrome trace file, in emission
 * order (the writer emits one event per line inside "traceEvents",
 * comma-prefixed after the first).
 */
std::vector<std::string>
traceEventLines(const std::string &path)
{
    std::vector<std::string> events;
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::string line;
    while (std::getline(in, line)) {
        std::string_view v{line};
        // The writer separates events with commas; strip them so the
        // comparison sees only the event objects themselves.
        if (!v.empty() && v.front() == ',')
            v.remove_prefix(1);
        if (!v.empty() && v.back() == ',')
            v.remove_suffix(1);
        if (v.rfind("{\"name\"", 0) == 0)
            events.emplace_back(v);
    }
    return events;
}

/** Run warmup+measure with the given obs options; returns the blob. */
std::string
runWithObs(const GpuConfig &cfg, const obs::ObsOptions &opts,
           Cycle measure = kMeasure)
{
    auto gpu = makeGpu(cfg, opts);
    gpu->run(kWarmup);
    gpu->resetStats();
    gpu->run(measure);
    return statsBlob(gpu->collect());
    // ~Gpu publishes the timeseries and trace files.
}

// ---------------------------------------------------------------------
// Registry / formatting / env-knob unit tests
// ---------------------------------------------------------------------

TEST(ObsRegistry, SchemaHeaderListsColumnsInOrder)
{
    obs::SeriesRegistry reg;
    EXPECT_EQ(reg.add({"a", "ratio", 0, "gauge", "first"}), 0u);
    EXPECT_EQ(reg.add({"b", "count", -1, "delta", "second"}), 1u);
    const std::string hdr = reg.schemaJson("mask-timeseries", 500);
    EXPECT_NE(hdr.find("\"schema\":\"mask-timeseries\""),
              std::string::npos);
    EXPECT_NE(hdr.find("\"version\":1"), std::string::npos);
    EXPECT_NE(hdr.find("\"interval\":500"), std::string::npos);
    // Column order in the header is the row value order.
    EXPECT_LT(hdr.find("\"name\":\"a\""), hdr.find("\"name\":\"b\""));
    EXPECT_EQ(hdr.find('\n'), std::string::npos) << "single line";
}

TEST(ObsRegistry, JsonEscapeAndNumberFormatting)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape(std::string("x\ny")), "x\\ny");
    EXPECT_EQ(jsonEscape(std::string("x\001y")), "x\\u0001y");

    std::string out;
    obs::appendJsonNumber(out, 42.0);
    EXPECT_EQ(out, "42") << "integral doubles print as integers";
    out.clear();
    obs::appendJsonNumber(out, 0.25);
    EXPECT_EQ(out, "0.25");
    out.clear();
    obs::appendJsonNumber(out, 0.0 / 0.0);
    EXPECT_EQ(out, "0") << "non-finite must stay valid JSON";
}

TEST(ObsRegistry, EnvKnobsParse)
{
    const std::string dir = tmpPath("obs_env_dir");
    ::setenv("MASK_SWEEP_OBS_DIR", dir.c_str(), 1);
    ::setenv("MASK_TIMESERIES_INTERVAL", "1234", 1);
    ::setenv("MASK_TRACE_CATS", "tlb,dram", 1);
    const obs::ObsOptions opts = obs::obsOptionsFromEnv("run");
    ::unsetenv("MASK_SWEEP_OBS_DIR");
    ::unsetenv("MASK_TIMESERIES_INTERVAL");
    ::unsetenv("MASK_TRACE_CATS");

    EXPECT_TRUE(opts.on());
    EXPECT_EQ(opts.prefix, dir + "/run");
    EXPECT_EQ(opts.timeseriesPath(), dir + "/run.timeseries.jsonl");
    EXPECT_EQ(opts.tracePath(), dir + "/run.trace.json");
    EXPECT_EQ(opts.stagesPath(), dir + "/run.stages.jsonl");
    EXPECT_EQ(opts.timeseriesInterval, 1234u);
    EXPECT_EQ(opts.traceCats,
              static_cast<std::uint32_t>(obs::TraceCat::kTlb) |
                  static_cast<std::uint32_t>(obs::TraceCat::kDram));

    // Unset knobs -> everything off, all-categories default.
    const obs::ObsOptions off = obs::obsOptionsFromEnv("run");
    EXPECT_FALSE(off.on());
    EXPECT_EQ(off.traceCats, 0xffffffffu);
    ::rmdir(dir.c_str());
}

TEST(ObsRegistry, ConfigFingerprintIgnoresObsKnobs)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t before = configFingerprint(cfg);
    ::setenv("MASK_SWEEP_OBS_DIR", "/tmp/fp", 1);
    ::setenv("MASK_TIMESERIES_INTERVAL", "77", 1);
    ::setenv("MASK_TRACE_CATS", "dram", 1);
    const std::uint64_t after = configFingerprint(cfg);
    ::unsetenv("MASK_SWEEP_OBS_DIR");
    ::unsetenv("MASK_TIMESERIES_INTERVAL");
    ::unsetenv("MASK_TRACE_CATS");
    EXPECT_EQ(before, after)
        << "obs knobs must never invalidate checkpoints or journals";
}

// ---------------------------------------------------------------------
// Due/rearm arithmetic
// ---------------------------------------------------------------------

TEST(ObsTimeseries, DueAdvancesByInterval)
{
    obs::SeriesRegistry reg;
    reg.add({"x", "count", -1, "gauge", ""});
    obs::TimeseriesWriter ts(tmpPath("obs_due.jsonl"), reg, 100, 8);
    ASSERT_TRUE(ts.ok());
    EXPECT_EQ(ts.nextDue(), 100u) << "first sample at k=1, never 0";
    EXPECT_FALSE(ts.due(99));
    EXPECT_TRUE(ts.due(100));
    ts.record(100, {1.0});
    EXPECT_EQ(ts.nextDue(), 200u);
}

TEST(ObsTimeseries, RearmPicksSmallestMultipleNotBelowNow)
{
    obs::SeriesRegistry reg;
    reg.add({"x", "count", -1, "gauge", ""});
    obs::TimeseriesWriter ts(tmpPath("obs_rearm.jsonl"), reg, 100, 8);
    ts.rearm(250);
    EXPECT_EQ(ts.nextDue(), 300u);
    // Restoring exactly on a boundary samples that boundary: the
    // saving run stopped BEFORE ticking its save cycle, so the row is
    // still pending and must be emitted exactly once, by the resumer.
    ts.rearm(300);
    EXPECT_EQ(ts.nextDue(), 300u);
    ts.rearm(0);
    EXPECT_EQ(ts.nextDue(), 100u) << "cycle 0 is never a sample point";
}

TEST(ObsTimeseries, AperiodicNeverComesDue)
{
    obs::SeriesRegistry reg;
    reg.add({"x", "count", -1, "gauge", ""});
    obs::TimeseriesWriter ts(tmpPath("obs_aper.jsonl"), reg, 0, 8);
    EXPECT_FALSE(ts.due(0));
    EXPECT_GT(ts.nextDue(), std::uint64_t{1} << 62);
}

TEST(ObsTimeseries, OpenFailureDisablesWithoutAborting)
{
    obs::SeriesRegistry reg;
    reg.add({"x", "count", -1, "gauge", ""});
    obs::TimeseriesWriter ts("/nonexistent-dir/obs.jsonl", reg, 100, 8);
    EXPECT_FALSE(ts.ok());
    ts.record(100, {1.0}); // must not crash
    ts.flush();
}

// ---------------------------------------------------------------------
// Stage-name pinning (DESIGN.md §12)
// ---------------------------------------------------------------------

TEST(ObsStageNames, MatchTickOneOrderDocumentedInDesign)
{
    const char *const want[] = {"faults",  "dram",     "l2cache",
                                "pwcache", "l2tlb",    "walker",
                                "cores",   "samplers", "epoch",
                                "switches", "watchdog"};
    ASSERT_EQ(static_cast<std::size_t>(Gpu::kNumStages),
              sizeof(want) / sizeof(want[0]));
    for (std::size_t s = 0; s < Gpu::kNumStages; ++s)
        EXPECT_STREQ(Gpu::stageName(s), want[s]) << "stage " << s;
}

TEST(ObsStageProfile, EnvExportWritesOneRowOfSecondsAndCalls)
{
    const obs::ObsOptions opts = optsFor("stage_profile");
    const std::string path = opts.stagesPath();
    std::remove(path.c_str());
    ::setenv("MASK_PROFILE_STAGES", "1", 1);
    makeGpu(configFor(DesignPoint::Mask, false), opts)->run(2000);
    ::unsetenv("MASK_PROFILE_STAGES");
    std::remove(opts.timeseriesPath().c_str());
    std::remove(opts.tracePath().c_str());

    std::ifstream in(path);
    ASSERT_TRUE(static_cast<bool>(in)) << path;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u) << "schema header + one row";

    const std::string &header = lines[0];
    EXPECT_NE(header.find("\"schema\":\"mask-stage-profile\""),
              std::string::npos);
    std::size_t series = 0;
    for (std::size_t at = header.find("{\"name\":");
         at != std::string::npos; at = header.find("{\"name\":", at + 1))
        ++series;
    EXPECT_EQ(series, 2 * static_cast<std::size_t>(Gpu::kNumStages));
    EXPECT_NE(header.find("\"name\":\"stage_seconds.faults\""),
              std::string::npos);
    EXPECT_NE(header.find("\"name\":\"stage_calls.watchdog\""),
              std::string::npos);

    // {"cycle":2000,"v":[...]}: one comma after the cycle, then n
    // values joined by n - 1 commas.
    const std::string &row = lines[1];
    EXPECT_EQ(row.rfind("{\"cycle\":2000,\"v\":[", 0), 0u) << row;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(row.begin(), row.end(), ',')),
              2 * static_cast<std::size_t>(Gpu::kNumStages));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Observation-only + determinism, across designs and fault injection
// ---------------------------------------------------------------------

class ObsIdentity
    : public ::testing::TestWithParam<std::tuple<DesignPoint, bool>>
{
};

TEST_P(ObsIdentity, TracingOnDoesNotChangeStats)
{
    const auto [point, faults] = GetParam();
    const GpuConfig cfg = configFor(point, faults);
    const std::string tag = std::string("id_") +
                            designPointName(point) +
                            (faults ? "_f1" : "_f0");

    // Reference: obs fully off.
    const std::string want = runWithObs(cfg, obs::ObsOptions{});

    const obs::ObsOptions opts = optsFor(tag);
    EXPECT_EQ(runWithObs(cfg, opts), want)
        << "telemetry perturbed simulated state";

    // And the files actually materialized with content.
    const std::string ts = readFile(opts.timeseriesPath());
    EXPECT_NE(ts.find("\"schema\":\"mask-timeseries\""),
              std::string::npos);
    EXPECT_NE(ts.find("\"cycle\":"), std::string::npos)
        << "no sample rows in " << opts.timeseriesPath();
    EXPECT_FALSE(traceEventLines(opts.tracePath()).empty());

    std::remove(opts.timeseriesPath().c_str());
    std::remove(opts.tracePath().c_str());
}

TEST_P(ObsIdentity, SameSeedRunsProduceByteIdenticalFiles)
{
    const auto [point, faults] = GetParam();
    const GpuConfig cfg = configFor(point, faults);
    const std::string tag = std::string("rep_") +
                            designPointName(point) +
                            (faults ? "_f1" : "_f0");

    const obs::ObsOptions o1 = optsFor(tag + "_1");
    const obs::ObsOptions o2 = optsFor(tag + "_2");
    const std::string b1 = runWithObs(cfg, o1);
    const std::string b2 = runWithObs(cfg, o2);
    EXPECT_EQ(b1, b2);
    EXPECT_EQ(readFile(o1.timeseriesPath()), readFile(o2.timeseriesPath()));
    EXPECT_EQ(readFile(o1.tracePath()), readFile(o2.tracePath()));

    for (const auto &p : {o1.timeseriesPath(), o1.tracePath(),
                          o2.timeseriesPath(), o2.tracePath()})
        std::remove(p.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndFaults, ObsIdentity,
    ::testing::Values(
        std::make_tuple(DesignPoint::SharedTlb, false),
        std::make_tuple(DesignPoint::SharedTlb, true),
        std::make_tuple(DesignPoint::Mask, false),
        std::make_tuple(DesignPoint::Mask, true),
        std::make_tuple(DesignPoint::Ideal, false),
        std::make_tuple(DesignPoint::Ideal, true)));

// ---------------------------------------------------------------------
// Snapshot save/resume: the two trace files concatenate to exactly
// the uninterrupted run's event stream (no duplicates, no holes) and
// the timeseries rows likewise split cleanly at the save boundary.
// ---------------------------------------------------------------------

TEST(ObsSnapshot, SaveResumeTraceConcatenatesToReference)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    const std::uint64_t fp = configFingerprint(cfg);

    const obs::ObsOptions oRef = optsFor("snap_ref");
    const std::string want = runWithObs(cfg, oRef);

    // Save instance: stops (and is destroyed) halfway through the
    // measured window; its trace holds every event that COMPLETED by
    // then. In-flight walks/DRAM requests carry their start cycles in
    // the snapshot and surface in the resumer's trace.
    std::string image;
    const obs::ObsOptions oSave = optsFor("snap_save");
    {
        auto g1 = makeGpu(cfg, oSave);
        g1->run(kWarmup);
        g1->resetStats();
        g1->run(kMeasure / 2);
        image = renderSnapshot(fp, *g1);
    }

    const obs::ObsOptions oResume = optsFor("snap_resume");
    std::string got;
    {
        auto g2 = makeGpu(cfg, oResume);
        std::uint64_t cycle = 0;
        const std::string_view payload =
            validateSnapshotImage(image, fp, &cycle);
        StateReader reader(payload, cycle);
        g2->deserialize(reader);
        g2->run(kMeasure - kMeasure / 2);
        got = statsBlob(g2->collect());
    }
    EXPECT_EQ(got, want);

    auto ref_events = traceEventLines(oRef.tracePath());
    auto save_events = traceEventLines(oSave.tracePath());
    auto resume_events = traceEventLines(oResume.tracePath());
    ASSERT_FALSE(ref_events.empty());
    EXPECT_FALSE(save_events.empty());
    EXPECT_FALSE(resume_events.empty());

    std::vector<std::string> joined = save_events;
    joined.insert(joined.end(), resume_events.begin(),
                  resume_events.end());
    EXPECT_EQ(joined, ref_events)
        << "save+resume trace streams must concatenate to the "
           "uninterrupted run's stream";

    // Timeseries: the save and resume halves repeat the identical
    // schema header, their row cycles partition the reference run's
    // row cycles exactly (no duplicate or missing boundary row), and
    // every row is byte-identical to the reference — except the first
    // resumed row, whose per-interval rates and deltas deliberately
    // cover only the cycles since the restore (the window baseline is
    // host-side observer state and is never serialized; DESIGN.md
    // §13).
    auto tsLines = [](const std::string &path) {
        std::vector<std::string> lines;
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    };
    const auto ref_ts = tsLines(oRef.timeseriesPath());
    const auto save_ts = tsLines(oSave.timeseriesPath());
    const auto resume_ts = tsLines(oResume.timeseriesPath());
    ASSERT_GT(save_ts.size(), 1u);
    ASSERT_GT(resume_ts.size(), 1u);
    EXPECT_EQ(save_ts[0], ref_ts[0]) << "schema header";
    EXPECT_EQ(resume_ts[0], ref_ts[0]) << "schema header";
    ASSERT_EQ(save_ts.size() + resume_ts.size() - 1, ref_ts.size())
        << "save+resume row count must match the reference";
    for (std::size_t i = 1; i < save_ts.size(); ++i)
        EXPECT_EQ(save_ts[i], ref_ts[i]) << "pre-save row " << i;
    // First resumed row: the same sample cycle as the reference's
    // boundary row (emitted exactly once, by the resumer)...
    const std::string want_cycle =
        ref_ts[save_ts.size()].substr(
            0, ref_ts[save_ts.size()].find(','));
    EXPECT_EQ(resume_ts[1].substr(0, resume_ts[1].find(',')),
              want_cycle);
    // ...and every later row byte-identical again.
    for (std::size_t i = 2; i < resume_ts.size(); ++i)
        EXPECT_EQ(resume_ts[i], ref_ts[save_ts.size() + i - 1])
            << "post-restore row " << i;

    if (::testing::Test::HasFailure())
        return; // keep the files for inspection
    for (const auto &p :
         {oRef.timeseriesPath(), oRef.tracePath(), oSave.timeseriesPath(),
          oSave.tracePath(), oResume.timeseriesPath(), oResume.tracePath()})
        std::remove(p.c_str());
}

// ---------------------------------------------------------------------
// Category filtering
// ---------------------------------------------------------------------

TEST(ObsTrace, CategoryMaskFiltersEvents)
{
    const GpuConfig cfg = configFor(DesignPoint::Mask, false);
    obs::ObsOptions opts = optsFor("cats");
    opts.traceCats = static_cast<std::uint32_t>(obs::TraceCat::kDram);
    runWithObs(cfg, opts);

    const auto events = traceEventLines(opts.tracePath());
    ASSERT_FALSE(events.empty());
    for (const auto &e : events)
        EXPECT_NE(e.find("\"cat\":\"dram\""), std::string::npos) << e;
    std::remove(opts.timeseriesPath().c_str());
    std::remove(opts.tracePath().c_str());
}

// ---------------------------------------------------------------------
// Sweep integration: one whole file pair per distinct run
// ---------------------------------------------------------------------

/** Fail unless @p path is a whole timeseries: a schema header naming
 *  n columns, then at least one row of exactly n values. */
void
expectWholeTimeseries(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_GT(lines.size(), 1u) << path;
    std::size_t ncols = 0;
    for (std::size_t at = lines[0].find("{\"name\":");
         at != std::string::npos;
         at = lines[0].find("{\"name\":", at + 1))
        ++ncols;
    ASSERT_GT(ncols, 0u) << path;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const std::string &row = lines[i];
        EXPECT_EQ(row.rfind("{\"cycle\":", 0), 0u) << path << ": " << row;
        EXPECT_EQ(row.substr(row.size() - 2), "]}") << path;
        // {"cycle":N,"v":[...]}: one comma after the cycle, then n
        // values joined by n - 1 commas.
        EXPECT_EQ(static_cast<std::size_t>(
                      std::count(row.begin(), row.end(), ',')),
                  ncols)
            << path << " row " << i;
    }
}

/** Fail unless @p path is a whole trace: preamble, events, and the
 *  closing bracket. */
void
expectWholeTrace(const std::string &path)
{
    const std::string data = readFile(path);
    EXPECT_EQ(data.rfind("{\"otherData\":", 0), 0u) << path;
    ASSERT_GE(data.size(), 4u) << path;
    EXPECT_EQ(data.substr(data.size() - 4), "\n]}\n") << path;
    EXPECT_FALSE(traceEventLines(path).empty()) << path;
}

/** Run @p jobs on a 2-worker SweepRunner with MASK_SWEEP_OBS_DIR set
 *  to a fresh @p dir; returns the file names it left there, sorted. */
std::vector<std::string>
sweepObsFiles(const std::string &dir, const std::vector<SweepJob> &jobs)
{
    std::filesystem::remove_all(dir);
    ::setenv("MASK_SWEEP_OBS_DIR", dir.c_str(), 1);
    ::setenv("MASK_TIMESERIES_INTERVAL", "1000", 1);
    SweepRunner sweep(RunOptions{kWarmup, kMeasure}, 2);
    for (const SweepJob &job : jobs)
        sweep.submit(job);
    sweep.run();
    ::unsetenv("MASK_SWEEP_OBS_DIR");
    ::unsetenv("MASK_TIMESERIES_INTERVAL");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(sweep.outcome(i).status, SweepStatus::Ok)
            << sweep.outcome(i).error;
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

SweepJob
sweepJob(std::uint32_t l2_tlb_entries)
{
    SweepJob job;
    job.arch = smallConfig();
    job.arch.l2Tlb.entries = l2_tlb_entries;
    job.point = DesignPoint::Mask;
    job.benches = {"3DS", "HISTO"};
    job.mode = SweepMode::SharedOnly;
    return job;
}

TEST(ObsSweep, DistinctRunsWriteDistinctWholePairs)
{
    const std::string dir = tmpPath("obs_sweep_distinct");
    const std::vector<std::string> names =
        sweepObsFiles(dir, {sweepJob(128), sweepJob(256)});
    ASSERT_EQ(names.size(), 4u);
    // Sorted: the two runs' stems differ, and each has both files.
    const auto stem = [](const std::string &n) {
        return n.substr(0, n.find('.'));
    };
    EXPECT_EQ(stem(names[0]), stem(names[1]));
    EXPECT_EQ(stem(names[2]), stem(names[3]));
    EXPECT_NE(stem(names[0]), stem(names[2]));
    EXPECT_EQ(names[0].rfind("MASK_", 0), 0u) << names[0];
    for (const std::string &n : names) {
        const std::string path = dir + "/" + n;
        if (n.size() > 11 && n.substr(n.size() - 11) == ".trace.json")
            expectWholeTrace(path);
        else
            expectWholeTimeseries(path);
    }
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(dir);
}

TEST(ObsSweep, IdenticalRunsPublishOneWholePair)
{
    const std::string dir = tmpPath("obs_sweep_identical");
    const std::vector<std::string> names =
        sweepObsFiles(dir, {sweepJob(128), sweepJob(128)});
    ASSERT_EQ(names.size(), 2u) << "one pair, no tmp files left";
    for (const std::string &n : names)
        EXPECT_EQ(n.find(".tmp"), std::string::npos) << n;
    expectWholeTimeseries(dir + "/" + names[0]);
    expectWholeTrace(dir + "/" + names[1]);
    if (!::testing::Test::HasFailure())
        std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mask

/**
 * @file
 * The repository benchmark's measuring program. It drives the
 * simulator only through its public API and times each layer from
 * outside, around the calls into it (Gpu::Gpu, Gpu::run, Gpu::collect,
 * renderSnapshot, saveSnapshotFile, validateSnapshotImage,
 * Gpu::deserialize, SweepRunner::run, encodePairResult,
 * decodePairResult). Nothing inside src/ is instrumented; the traced
 * run additionally turns on the existing MASK_PROFILE_STAGES counters.
 *
 * Three closed-loop batch workloads (see perfbench/README.md for why
 * each exists and which end-to-end metric each layer should move):
 *
 *   hotloop  six fresh Gpus back to back, {3DS_BP, CFD_MM, HISTO_GUP}
 *            x {SharedTLB, MASK}; host time is all tickOne stages.
 *   fig11    the Figure 11 sweep, 35 pairs x 8 designs in Metrics mode
 *            through SweepRunner with the shared alone-IPC memo.
 *   persist  one MASK pair through checkpoint, resume, a warm-start
 *            grid with journal, a journal reload, and a distributed
 *            single-worker pass.
 *
 * One pass of a workload is repeated until --seconds have elapsed; the
 * end-to-end numbers are medians over passes. Every pass prints a
 * digest of its simulated outputs, and every pass of one run must
 * produce the same digest.
 *
 * Usage (normally through perfbench/run.py):
 *
 *   maskbench --workload <hotloop|fig11|persist> --seed <n>
 *             --seconds <s> --trace <0|1> --workdir <dir> [--tiny]
 *   maskbench --workload <w> --seed <n> --probe-setup
 *
 * The last stdout line is one JSON object: digest, attempted, failed,
 * passes, build provenance, and the metrics with their units.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/state_codec.hh"
#include "sim/gpu.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"
#include "sim/sweep_io.hh"
#include "workload/suite.hh"

#ifndef MASKBENCH_BUILD_TYPE
#define MASKBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MASKBENCH_COMPILER
#define MASKBENCH_COMPILER "unknown"
#endif

extern char **environ;

using namespace mask;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Time one call, adding its duration to @p acc; returns fn's value. */
template <typename Fn>
auto
timed(double &acc, Fn &&fn)
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += secondsSince(t0);
    } else {
        auto value = fn();
        acc += secondsSince(t0);
        return value;
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile that still has at least ten samples beyond
 * it (nearest-rank): the sample at rank n - 10. Zero with fewer than
 * eleven samples, where no such percentile exists.
 */
double
tailPercentile(std::vector<double> v)
{
    if (v.size() < 11)
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() - 11];
}

// --- Simulated-output digest ----------------------------------------

/** FNV-1a over the simulated (deterministic) outputs only: host-side
 *  accounting (wall time, stage profile, work counters) is excluded. */
class Digest
{
  public:
    void
    u(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u(bits);
    }

    void
    hm(const HitMiss &x)
    {
        u(x.hits);
        u(x.misses);
    }

    void
    rs(const RunningStat &x)
    {
        u(x.count);
        d(x.sum);
        d(x.minVal);
        d(x.maxVal);
    }

    void
    stats(const GpuStats &s)
    {
        u(s.cycles);
        for (const std::uint64_t v : s.instructions)
            u(v);
        for (const double v : s.ipc)
            d(v);
        hm(s.l1Tlb);
        hm(s.l2Tlb);
        for (const HitMiss &x : s.l2TlbPerApp)
            hm(x);
        hm(s.bypassCache);
        hm(s.pwCache);
        hm(s.l1d);
        for (const HitMiss &x : s.l2Cache)
            hm(x);
        for (const HitMiss &x : s.l2CachePerLevel)
            hm(x);
        for (int t = 0; t < 2; ++t) {
            u(s.dram.busBusy[t]);
            u(s.dram.serviced[t]);
            rs(s.dram.latency[t]);
        }
        u(s.dram.rowHits);
        u(s.dram.rowMisses);
        u(s.dram.rowConflicts);
        u(s.dram.enqueueRejects);
        u(s.dram.capEscalations);
        u(s.walks);
        rs(s.walkLatency);
        rs(s.tlbMissLatency);
        rs(s.concurrentWalks);
        for (const RunningStat &x : s.concurrentWalksPerApp)
            rs(x);
        rs(s.warpsPerMiss);
        for (const RunningStat &x : s.warpsPerMissPerApp)
            rs(x);
        rs(s.readyWarpsPerCore);
        for (const std::uint32_t t : s.tokens)
            u(t);
        u(s.l2Bypasses);
        u(s.warpStallCycles);
        u(s.faultsInjected);
    }

    void
    pair(const PairResult &r)
    {
        for (const double v : r.sharedIpc)
            d(v);
        for (const double v : r.aloneIpc)
            d(v);
        d(r.weightedSpeedup);
        d(r.ipcThroughput);
        d(r.unfairness);
        stats(r.stats);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
statsDigest(const GpuStats &s)
{
    Digest d;
    d.stats(s);
    return d.value();
}

std::uint64_t
pairDigest(const PairResult &r)
{
    Digest d;
    d.pair(r);
    return d.value();
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- Metric output -----------------------------------------------------

class MetricSink
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        for (Entry &e : entries_) {
            if (e.name == name)
                throw std::logic_error("metric emitted twice: " + name);
        }
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            // %.17g: every digit as measured (the result line is
            // parsed, not read).
            std::snprintf(buf, sizeof(buf), "%.17g",
                          std::isfinite(e.value) ? e.value : 0.0);
            out += (i == 0 ? "\"" : ", \"") + e.name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   e.unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

// --- Aggregated per-layer statistics over a pass's shared runs ---------

struct SimAgg
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double wallSeconds = 0.0;
    std::vector<double> stageSeconds =
        std::vector<double>(Gpu::kNumStages, 0.0);
    std::uint64_t skipped = 0;

    std::uint64_t schedPicks = 0;
    std::uint64_t schedScanned = 0;
    std::uint64_t dataProbes = 0;
    std::uint64_t tlbProbes = 0;
    std::uint64_t requests = 0;
    std::size_t poolPeak = 0;

    HitMiss l1Tlb, l2Tlb, bypass, pwc, l2Data, l2Walk;
    double tlbMissLatSum = 0.0, walkLatSum = 0.0, concSum = 0.0;
    std::uint64_t tlbMissLatN = 0, walkLatN = 0, concN = 0;
    std::uint64_t walks = 0, l2Bypasses = 0, warpStall = 0;
    std::uint64_t rowHits = 0, rowAll = 0;
    double dramLatSum[2] = {0.0, 0.0};
    std::uint64_t dramLatN[2] = {0, 0};
    std::uint64_t busBusy[2] = {0, 0};
    double tokenSum = 0.0;
    std::uint64_t tokenN = 0;

    void
    add(const GpuStats &s)
    {
        cycles += s.cycles;
        for (const std::uint64_t v : s.instructions)
            instructions += v;
        wallSeconds += s.wallSeconds;
        for (std::size_t i = 0;
             i < s.stageSeconds.size() && i < stageSeconds.size(); ++i)
            stageSeconds[i] += s.stageSeconds[i];
        skipped += s.skippedCycles;
        schedPicks += s.dramSchedPicks;
        schedScanned += s.dramSchedBanksScanned;
        dataProbes += s.dataRetryProbes;
        tlbProbes += s.tlbRetryProbes;
        requests += s.requests;
        poolPeak = std::max(poolPeak, s.poolPeakLive);
        l1Tlb += s.l1Tlb;
        l2Tlb += s.l2Tlb;
        bypass += s.bypassCache;
        pwc += s.pwCache;
        l2Data += s.l2Cache[static_cast<int>(ReqType::Data)];
        l2Walk += s.l2Cache[static_cast<int>(ReqType::Translation)];
        tlbMissLatSum += s.tlbMissLatency.sum;
        tlbMissLatN += s.tlbMissLatency.count;
        walkLatSum += s.walkLatency.sum;
        walkLatN += s.walkLatency.count;
        concSum += s.concurrentWalks.sum;
        concN += s.concurrentWalks.count;
        walks += s.walks;
        l2Bypasses += s.l2Bypasses;
        warpStall += s.warpStallCycles;
        rowHits += s.dram.rowHits;
        rowAll += s.dram.rowHits + s.dram.rowMisses + s.dram.rowConflicts;
        for (int t = 0; t < 2; ++t) {
            dramLatSum[t] += s.dram.latency[t].sum;
            dramLatN[t] += s.dram.latency[t].count;
            busBusy[t] += s.dram.busBusy[t];
        }
        for (const std::uint32_t t : s.tokens) {
            tokenSum += t;
            ++tokenN;
        }
    }

    double
    mcps() const
    {
        return safeDiv(static_cast<double>(cycles) / 1e6, wallSeconds);
    }

    double
    minstPerSec() const
    {
        return safeDiv(static_cast<double>(instructions) / 1e6,
                       wallSeconds);
    }

    double
    stageTotal() const
    {
        double t = 0.0;
        for (const double s : stageSeconds)
            t += s;
        return t;
    }

    /** Exact (deterministic) per-layer counters and model metrics. */
    void
    emitExact(MetricSink &m) const
    {
        const auto d = [](auto v) { return static_cast<double>(v); };
        m.set("loop.skip_fraction", safeDiv(d(skipped), d(cycles)),
              "ratio");
        m.set("dram.sched_picks", d(schedPicks), "count");
        m.set("dram.banks_per_pick",
              safeDiv(d(schedScanned), d(schedPicks)), "count");
        m.set("retry.data_probes", d(dataProbes), "count");
        m.set("retry.tlb_probes", d(tlbProbes), "count");
        m.set("sim.requests", d(requests), "count");
        m.set("pool.peak_live", d(poolPeak), "count");

        m.set("tlb.l1_hit_rate", l1Tlb.hitRate(), "ratio");
        m.set("tlb.l2_hit_rate", l2Tlb.hitRate(), "ratio");
        m.set("tlb.bypass_hit_rate", bypass.hitRate(), "ratio");
        m.set("tlb.miss_latency_cyc", safeDiv(tlbMissLatSum,
                                              d(tlbMissLatN)), "cyc");
        m.set("pwc.hit_rate", pwc.hitRate(), "ratio");
        m.set("walker.walks", d(walks), "count");
        m.set("walker.latency_cyc", safeDiv(walkLatSum, d(walkLatN)),
              "cyc");
        m.set("walker.concurrent", safeDiv(concSum, d(concN)), "count");
        m.set("l2.data_hit_rate", l2Data.hitRate(), "ratio");
        m.set("l2.walk_hit_rate", l2Walk.hitRate(), "ratio");
        m.set("l2.bypasses", d(l2Bypasses), "count");
        m.set("dram.row_hit_rate", safeDiv(d(rowHits), d(rowAll)),
              "ratio");
        m.set("dram.trans_latency_cyc",
              safeDiv(dramLatSum[1], d(dramLatN[1])), "cyc");
        m.set("dram.data_latency_cyc",
              safeDiv(dramLatSum[0], d(dramLatN[0])), "cyc");
        m.set("dram.trans_bw_share",
              safeDiv(d(busBusy[1]), d(busBusy[0] + busBusy[1])),
              "ratio");
        m.set("core.warp_stall_cycles", d(warpStall), "cyc");
        m.set("tokens.mean", safeDiv(tokenSum, d(tokenN)), "count");
    }
};

// --- Workload definitions ----------------------------------------------

struct Windows
{
    Cycle warmup;
    Cycle measure;
};

struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string workdir;
    unsigned workers = 1;

    GpuConfig
    arch() const
    {
        GpuConfig arch = archByName("maxwell");
        arch.seed = seed;
        return arch;
    }
};

/** What one pass of a workload reports. */
struct PassResult
{
    double seconds = 0.0;        //!< wall time of the whole pass
    std::uint64_t digest = 0;    //!< simulated outputs
    std::uint64_t attempted = 0; //!< operations attempted
    std::uint64_t failed = 0;    //!< operations that failed a check
    SimAgg agg;                  //!< every shared run the pass simulated
    /** Per-call layer samples (seconds), pooled across passes. */
    std::map<std::string, std::vector<double>> samples;
    /** Per-pass layer values (medians over passes are reported). */
    std::map<std::string, double> values;
    std::vector<std::string> errors;
};

std::vector<AppDesc>
appsOf(const std::vector<std::string> &names)
{
    std::vector<AppDesc> apps;
    for (const std::string &n : names)
        apps.push_back(AppDesc{&findBenchmark(n)});
    return apps;
}

/** Sanity check every shared run must pass: the full window was
 *  simulated and the GPU retired work. One app of a pair may retire
 *  nothing in a short window when its partner starves it. */
bool
runLooksSane(const GpuStats &s, Cycle measure)
{
    std::uint64_t retired = 0;
    for (const std::uint64_t v : s.instructions)
        retired += v;
    return s.cycles == measure && retired > 0;
}

/**
 * Every workload warms up for one MASK epoch (MaskConfig::epochCycles,
 * 10000 cycles) so the token, bypass and quota controllers have adapted
 * before statistics are reset. EXPERIMENTS.md's 10000 + 40000 windows
 * are too long to repeat within a run.
 */
Windows
windows(const Context &ctx)
{
    return ctx.tiny ? Windows{500, 1000} : Windows{10000, 10000};
}

// hotloop --------------------------------------------------------------

struct HotCase
{
    const char *first;
    const char *second;
    DesignPoint point;
};

const std::vector<HotCase> &
hotCases()
{
    // 1-HMR, 2-HMR and 0-HMR pairs under both DRAM scheduler paths
    // (SharedTLB = FR-FCFS, MASK = Golden/Silver/Normal queues).
    static const std::vector<HotCase> cases = {
        {"3DS", "BP", DesignPoint::SharedTlb},
        {"3DS", "BP", DesignPoint::Mask},
        {"CFD", "MM", DesignPoint::SharedTlb},
        {"CFD", "MM", DesignPoint::Mask},
        {"HISTO", "GUP", DesignPoint::SharedTlb},
        {"HISTO", "GUP", DesignPoint::Mask},
    };
    return cases;
}

PassResult
hotloopPass(const Context &ctx)
{
    const Windows w = windows(ctx);
    const GpuConfig arch = ctx.arch();
    PassResult out;
    Digest digest;
    const auto t0 = Clock::now();
    for (const HotCase &c : hotCases()) {
        const GpuConfig cfg = applyDesignPoint(arch, c.point);
        const std::vector<AppDesc> apps = appsOf({c.first, c.second});
        double ctor = 0.0;
        double collect = 0.0;
        auto gpu = timed(ctor, [&] {
            return std::make_unique<Gpu>(cfg, apps);
        });
        gpu->run(w.warmup);
        gpu->resetStats();
        gpu->run(w.measure);
        const GpuStats stats = timed(collect, [&] {
            return gpu->collect();
        });
        gpu.reset();
        out.samples["gpu.ctor_s"].push_back(ctor);
        out.samples["gpu.collect_s"].push_back(collect);
        ++out.attempted;
        if (!runLooksSane(stats, w.measure)) {
            ++out.failed;
            out.errors.push_back(std::string("implausible stats for ") +
                                 c.first + "_" + c.second);
        }
        digest.stats(stats);
        out.agg.add(stats);
    }
    out.seconds = secondsSince(t0);
    out.digest = digest.value();
    return out;
}

// fig11 ----------------------------------------------------------------

PassResult
fig11Pass(const Context &ctx)
{
    const Windows w = windows(ctx);
    const GpuConfig arch = ctx.arch();
    const std::vector<WorkloadPair> &pairs = workloadPairs();
    PassResult out;

    const auto t0 = Clock::now();
    SweepRunner sweep(RunOptions{w.warmup, w.measure}, ctx.workers);
    std::vector<std::size_t> ids;
    for (const WorkloadPair &pair : pairs) {
        for (const DesignPoint point : kAllDesignPoints)
            ids.push_back(
                sweep.submit({arch, point, {pair.first, pair.second}}));
    }
    double run_s = 0.0;
    timed(run_s, [&] { sweep.run(); });
    out.seconds = secondsSince(t0);

    // category (0..2) x design -> weighted speedup / unfairness sums.
    std::map<int, std::map<DesignPoint, double>> ws, unfair;
    std::map<int, std::map<DesignPoint, int>> n;
    double ws_mask_all = 0.0;
    int ws_mask_n = 0;
    Digest digest;
    std::size_t next = 0;
    for (const WorkloadPair &pair : pairs) {
        for (const DesignPoint point : kAllDesignPoints) {
            const std::size_t id = ids[next++];
            ++out.attempted;
            if (sweep.outcome(id).status != SweepStatus::Ok) {
                ++out.failed;
                out.errors.push_back("fig11 " + pair.name() + " " +
                                     designPointName(point) + ": " +
                                     sweep.outcome(id).error);
                continue;
            }
            const PairResult &r = sweep.result(id);
            if (!runLooksSane(r.stats, w.measure)) {
                ++out.failed;
                out.errors.push_back("implausible stats for " +
                                     pair.name());
            }
            digest.pair(r);
            out.agg.add(r.stats);
            ws[pair.hmr][point] += r.weightedSpeedup;
            unfair[pair.hmr][point] += r.unfairness;
            ++n[pair.hmr][point];
            if (point == DesignPoint::Mask) {
                ws_mask_all += r.weightedSpeedup;
                ++ws_mask_n;
            }
        }
    }
    out.digest = digest.value();

    const auto mean = [&](std::map<int, std::map<DesignPoint, double>> &m,
                          int hmr, DesignPoint p) {
        return safeDiv(m[hmr][p], n[hmr][p]);
    };
    const double shared1 = mean(ws, 1, DesignPoint::SharedTlb);
    const double mask1 = mean(ws, 1, DesignPoint::Mask);
    const double ideal1 = mean(ws, 1, DesignPoint::Ideal);
    out.values["ws_mask"] = safeDiv(ws_mask_all, ws_mask_n);
    out.values["mask_gain_1hmr"] = safeDiv(mask1, shared1);
    out.values["gap_recovered_1hmr"] =
        safeDiv(mask1 - shared1, ideal1 - shared1);
    out.values["unfairness_mask_1hmr"] =
        mean(unfair, 1, DesignPoint::Mask);
    out.values["sweep.jobs"] = static_cast<double>(ids.size());
    out.values["sweep.alone_runs"] =
        static_cast<double>(sweep.aloneCacheSize());
    out.values["sweep.shared_sim_frac"] =
        safeDiv(out.agg.wallSeconds, run_s * sweep.jobs());
    return out;
}

// persist --------------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Simulated digests of a grid's results in submission order. */
std::vector<std::uint64_t>
gridDigests(const SweepRunner &sweep, const std::vector<std::size_t> &ids,
            PassResult &out, const char *step)
{
    std::vector<std::uint64_t> digests;
    for (const std::size_t id : ids) {
        ++out.attempted;
        if (sweep.outcome(id).status != SweepStatus::Ok) {
            ++out.failed;
            out.errors.push_back(std::string(step) + ": " +
                                 sweep.outcome(id).error);
            digests.push_back(0);
            continue;
        }
        digests.push_back(pairDigest(sweep.result(id)));
    }
    return digests;
}

PassResult
persistPass(const Context &ctx, int pass_index)
{
    const Windows w = windows(ctx);
    const std::vector<std::string> names = {"3DS", "BP"};
    const GpuConfig arch = ctx.arch();
    const GpuConfig cfg = applyDesignPoint(arch, DesignPoint::Mask);
    const std::uint64_t fp = configFingerprint(cfg);
    const std::string dir =
        ctx.workdir + "/persist-" + std::to_string(pass_index);
    fs::remove_all(dir);
    fs::create_directories(dir);

    PassResult out;
    const auto t0 = Clock::now();

    // 1. Periodic checkpoints, through the runner's checkpoint path;
    //    ten per measured window, so they are most of the run's time.
    CheckpointPolicy policy;
    policy.intervalCycles = w.measure / 10;
    policy.dir = dir;
    policy.keep = true;
    const std::string path = checkpointPath(
        policy, fp, names, w.warmup, w.measure);
    const GpuStats ckpt_stats = runWithCheckpoints(
        [&] { return std::make_unique<Gpu>(cfg, appsOf(names)); },
        policy, fp, path, w.warmup, w.measure);
    ++out.attempted;
    if (!runLooksSane(ckpt_stats, w.measure) ||
        ckpt_stats.ckptWrites == 0) {
        ++out.failed;
        out.errors.push_back("checkpointed run wrote no snapshots");
    }
    out.agg.add(ckpt_stats);
    out.values["ckpt_overhead"] =
        safeDiv(ckpt_stats.ckptWriteSeconds, ckpt_stats.wallSeconds);
    out.values["ckpt.writes"] = static_cast<double>(ckpt_stats.ckptWrites);
    out.values["snapshot.bytes"] =
        safeDiv(static_cast<double>(ckpt_stats.ckptBytes),
                static_cast<double>(ckpt_stats.ckptWrites));
    out.values["snapshot_mb"] = out.values["snapshot.bytes"] / 1e6;

    // 2. Resume the newest snapshot on a fresh Gpu; must be bit-exact.
    double read_s = 0.0, validate_s = 0.0, deserialize_s = 0.0;
    auto gpu = std::make_unique<Gpu>(cfg, appsOf(names));
    const std::string image = timed(read_s, [&] { return readFile(path); });
    std::uint64_t cycle = 0;
    const std::string_view payload = timed(validate_s, [&] {
        return validateSnapshotImage(image, fp, &cycle);
    });
    timed(deserialize_s, [&] {
        StateReader reader(payload, cycle);
        gpu->deserialize(reader);
    });
    if (gpu->snapshotCookie() == 0) {
        gpu->run(w.warmup - gpu->now());
        gpu->resetStats();
    }
    gpu->run(w.warmup + w.measure - gpu->now());
    const GpuStats resumed = gpu->collect();
    ++out.attempted;
    if (statsDigest(resumed) != statsDigest(ckpt_stats)) {
        ++out.failed;
        out.errors.push_back("resume from cycle " +
                             std::to_string(cycle) + " is not bit-exact");
    }
    out.values["resume_s"] = read_s + validate_s + deserialize_s;
    out.values["snapshot.validate_s"] = validate_s;
    out.values["snapshot.deserialize_s"] = deserialize_s;
    if (ctx.trace) {
        // Render and save at the restored state, timed per call; the
        // save minus the render is the file write.
        for (int i = 0; i < 3; ++i) {
            double render = 0.0, save = 0.0;
            timed(render, [&] { renderSnapshot(fp, *gpu); });
            timed(save, [&] {
                saveSnapshotFile(dir + "/probe.snap", fp, *gpu);
            });
            out.samples["snapshot.render_s"].push_back(render);
            out.samples["snapshot.save_s"].push_back(save);
        }
    }
    gpu.reset();

    // 3. Warm-start measure grid: file-backed warm cache + journal.
    const std::string journal = dir + "/journal.jsonl";
    // Four measure windows (1/5 .. 4/5 of w.measure) sharing one warmup.
    const RunOptions grid_base{w.warmup, w.measure};
    const auto submitGrid = [&](SweepRunner &sweep) {
        std::vector<std::size_t> ids;
        for (int q = 1; q <= 4; ++q) {
            SweepJob job;
            job.arch = arch;
            job.point = DesignPoint::Mask;
            job.benches = names;
            job.mode = SweepMode::SharedOnly;
            job.options = RunOptions{w.warmup, w.measure * q / 5};
            ids.push_back(sweep.submit(std::move(job)));
        }
        return ids;
    };
    SweepPolicy journaled;
    journaled.journalPath = journal;

    SweepRunner grid(grid_base, 1);
    grid.setPolicy(journaled);
    WarmPolicy warm;
    warm.enabled = true;
    warm.dir = dir + "/warm";
    fs::create_directories(warm.dir);
    grid.setWarmPolicy(warm);
    const std::vector<std::size_t> grid_ids = submitGrid(grid);
    double grid_s = 0.0;
    timed(grid_s, [&] { grid.run(); });
    const std::vector<std::uint64_t> expect =
        gridDigests(grid, grid_ids, out, "warm grid");
    for (const std::size_t id : grid_ids) {
        if (grid.outcome(id).status == SweepStatus::Ok)
            out.agg.add(grid.result(id).stats);
    }
    out.values["warm.hits"] = static_cast<double>(grid.warmStats().hits);
    out.values["warm.misses"] =
        static_cast<double>(grid.warmStats().misses);
    out.values["warm.grid_s"] = grid_s;

    // 4. The same grid again, entirely from the journal.
    SweepRunner reload(grid_base, 1);
    reload.setPolicy(journaled);
    const std::vector<std::size_t> reload_ids = submitGrid(reload);
    double reload_s = 0.0;
    timed(reload_s, [&] { reload.run(); });
    ++out.attempted;
    if (gridDigests(reload, reload_ids, out, "journal reload") != expect ||
        reload.journalHits() != reload_ids.size()) {
        ++out.failed;
        out.errors.push_back("journal reload differs from the grid");
    }
    out.values["journal.reload_s"] = reload_s;
    out.values["journal.bytes"] =
        static_cast<double>(fs::file_size(journal));

    // 5. The grid once more as the only worker of a fresh lease dir.
    SweepRunner dist(grid_base, 1);
    DistPolicy dist_policy;
    dist_policy.dir = dir + "/dist";
    dist_policy.worker = "w0";
    dist.setDistPolicy(dist_policy);
    const std::vector<std::size_t> dist_ids = submitGrid(dist);
    double dist_s = 0.0;
    timed(dist_s, [&] { dist.run(); });
    ++out.attempted;
    if (gridDigests(dist, dist_ids, out, "dist pass") != expect) {
        ++out.failed;
        out.errors.push_back("dist pass differs from the grid");
    }
    out.values["dist.grid_s"] = dist_s;
    out.values["dist.leases_claimed"] =
        static_cast<double>(dist.distStats().leasesClaimed);

    out.seconds = secondsSince(t0);

    if (ctx.trace) {
        // Result codec, per call, on the grid's results (outside the
        // pass time: the traced run reports it, the pass does not pay).
        for (const std::size_t id : grid_ids) {
            if (grid.outcome(id).status != SweepStatus::Ok)
                continue;
            double enc = 0.0, dec = 0.0;
            const std::string blob = timed(enc, [&] {
                return encodePairResult(grid.result(id));
            });
            const PairResult back =
                timed(dec, [&] { return decodePairResult(blob); });
            out.samples["codec.encode_s"].push_back(enc);
            out.samples["codec.decode_s"].push_back(dec);
            ++out.attempted;
            if (pairDigest(back) != pairDigest(grid.result(id))) {
                ++out.failed;
                out.errors.push_back("result codec round trip differs");
            }
        }
    }

    Digest digest;
    digest.stats(ckpt_stats);
    for (const std::uint64_t d : expect)
        digest.u(d);
    out.digest = digest.value();
    fs::remove_all(dir);
    return out;
}

PassResult
runPass(const Context &ctx, int pass_index)
{
    if (ctx.workload == "hotloop")
        return hotloopPass(ctx);
    if (ctx.workload == "fig11")
        return fig11Pass(ctx);
    return persistPass(ctx, pass_index);
}

// --- Setup probe -------------------------------------------------------

/**
 * Build what the workload needs up to its first simulated cycle, then
 * print the steady-clock instant (CLOCK_MONOTONIC, shared with the
 * launching process) and exit without simulating.
 */
int
probeSetup(const Context &ctx)
{
    const GpuConfig arch = ctx.arch();
    std::unique_ptr<SweepRunner> sweep;
    GpuConfig cfg;
    std::vector<std::string> names;
    if (ctx.workload == "hotloop") {
        const HotCase &c = hotCases().front();
        cfg = applyDesignPoint(arch, c.point);
        names = {c.first, c.second};
    } else if (ctx.workload == "fig11") {
        const Windows w = windows(ctx);
        sweep = std::make_unique<SweepRunner>(
            RunOptions{w.warmup, w.measure}, ctx.workers);
        for (const WorkloadPair &pair : workloadPairs()) {
            for (const DesignPoint point : kAllDesignPoints)
                sweep->submit({arch, point, {pair.first, pair.second}});
        }
        const WorkloadPair &first = workloadPairs().front();
        cfg = applyDesignPoint(arch, kAllDesignPoints[0]);
        names = {first.first, first.second};
    } else {
        cfg = applyDesignPoint(arch, DesignPoint::Mask);
        names = {"3DS", "BP"};
    }
    const Gpu gpu(cfg, appsOf(names));
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count();
    std::printf("first_cycle_ns %lld\n", static_cast<long long>(ns));
    return 0;
}

// --- Driver ------------------------------------------------------------

/**
 * Peak resident set of this program's own address space (VmHWM).
 * getrusage's ru_maxrss is not used: Linux carries the launching
 * process's high-water mark across exec into it.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB -> MiB
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

/** The benchmark sets every knob itself; stray MASK_* variables in
 *  the caller's environment would silently change what is measured. */
void
clearMaskEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; e != nullptr && *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("MASK_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: maskbench --workload <hotloop|fig11|persist> "
                 "--seed <n> [--seconds <s>] [--trace <0|1>] "
                 "[--workdir <dir>] [--tiny] [--probe-setup]\n");
}

int
run(int argc, char **argv)
{
    Context ctx;
    bool probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            ctx.workload = value();
        else if (a == "--seed")
            ctx.seed = std::stoull(value());
        else if (a == "--seconds")
            ctx.seconds = std::stod(value());
        else if (a == "--trace")
            ctx.trace = value() == "1";
        else if (a == "--workdir")
            ctx.workdir = value();
        else if (a == "--tiny")
            ctx.tiny = true;
        else if (a == "--probe-setup")
            probe = true;
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    if (ctx.workload != "hotloop" && ctx.workload != "fig11" &&
        ctx.workload != "persist") {
        usage();
        return 2;
    }
    if (!optimizedBuild() || sanitizerBuild() ||
        std::string(MASKBENCH_BUILD_TYPE) == "Debug") {
        std::fprintf(stderr,
                     "maskbench: refusing to report from a %s build "
                     "(optimized=%d, sanitizer=%d)\n",
                     MASKBENCH_BUILD_TYPE, optimizedBuild() ? 1 : 0,
                     sanitizerBuild() ? 1 : 0);
        return 3;
    }
    clearMaskEnvironment();
    // Fixed worker count, never above the host's CPUs.
    const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
    ctx.workers = static_cast<unsigned>(
        std::clamp<long>(cpus, 1, 4));
    if (probe)
        return probeSetup(ctx);
    if (ctx.workdir.empty()) {
        usage();
        return 2;
    }
    fs::create_directories(ctx.workdir);

    // Repeat passes until the time budget is spent, with at least
    // three. In the traced run, passes alternate untraced/traced so the
    // overhead estimate sees the same drift.
    std::vector<PassResult> plain, traced;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t digest = 0;
    bool have_digest = false;
    std::vector<std::string> errors;
    const auto t0 = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool tracing = ctx.trace && pass % 2 == 1;
        if (tracing)
            ::setenv("MASK_PROFILE_STAGES", "1", 1);
        else
            ::unsetenv("MASK_PROFILE_STAGES");
        PassResult r = runPass(ctx, pass);
        attempted += r.attempted + (have_digest ? 1 : 0);
        failed += r.failed;
        if (have_digest && r.digest != digest) {
            ++failed;
            errors.push_back("pass " + std::to_string(pass) +
                             " digest " + hex64(r.digest) +
                             " differs from " + hex64(digest));
        }
        digest = r.digest;
        have_digest = true;
        for (const std::string &e : r.errors)
            errors.push_back(e);
        std::fprintf(stderr,
                     "[maskbench] %s pass %d%s: %.3f s, digest %s\n",
                     ctx.workload.c_str(), pass,
                     tracing ? " (traced)" : "", r.seconds,
                     hex64(r.digest).c_str());
        (tracing ? traced : plain).push_back(std::move(r));
        const std::size_t need = ctx.trace ? 2 : 3;
        if (secondsSince(t0) >= ctx.seconds && plain.size() >= need &&
            (!ctx.trace || traced.size() >= need))
            break;
    }
    ::unsetenv("MASK_PROFILE_STAGES");
    for (const std::string &e : errors)
        std::fprintf(stderr, "[maskbench] FAILED: %s\n", e.c_str());

    const auto med = [](const std::vector<PassResult> &rs,
                        const std::function<double(const PassResult &)>
                            &f) {
        std::vector<double> v;
        for (const PassResult &r : rs)
            v.push_back(f(r));
        return median(v);
    };

    MetricSink m;
    if (!ctx.trace) {
        m.set("peak_rss_mb", peakRssMb(), "MB");
        m.set("sweep_s",
              med(plain, [](const PassResult &r) { return r.seconds; }),
              "s");
        m.set("sim_mcps",
              med(plain, [](const PassResult &r) { return r.agg.mcps(); }),
              "Mcyc/s");
        m.set("sim_minst_s", med(plain, [](const PassResult &r) {
                  return r.agg.minstPerSec();
              }),
              "Minst/s");
    } else {
        // Host time per layer: medians over the traced passes.
        for (std::size_t s = 0; s < Gpu::kNumStages; ++s) {
            m.set(std::string("stage.") + Gpu::stageName(s) + "_s",
                  med(traced,
                      [s](const PassResult &r) {
                          return r.agg.stageSeconds[s];
                      }),
                  "s");
        }
        m.set("gpu.loop_other_s", med(traced, [](const PassResult &r) {
                  return r.agg.wallSeconds - r.agg.stageTotal();
              }),
              "s");
        std::map<std::string, std::vector<double>> pooled;
        for (const PassResult &r : traced) {
            for (const auto &[name, v] : r.samples)
                pooled[name].insert(pooled[name].end(), v.begin(),
                                    v.end());
        }
        for (const char *name : {"gpu.ctor_s", "gpu.collect_s"}) {
            const std::vector<double> &v = pooled[name];
            m.set(std::string(name) + ".p50", median(v), "s");
            m.set(std::string(name) + ".tail", tailPercentile(v), "s");
        }
        m.set("gpu.samples",
              static_cast<double>(pooled["gpu.ctor_s"].size()), "count");
        const PassResult &last = traced.back();
        last.agg.emitExact(m);

        const auto value = [&](const char *name) {
            return med(traced, [name](const PassResult &r) {
                const auto it = r.values.find(name);
                return it != r.values.end() ? it->second : 0.0;
            });
        };
        for (const char *name :
             {"ws_mask", "mask_gain_1hmr", "gap_recovered_1hmr",
              "unfairness_mask_1hmr"})
            m.set(name, value(name), "x");
        m.set("ckpt_overhead", value("ckpt_overhead"), "ratio");
        m.set("resume_s", value("resume_s"), "s");
        m.set("snapshot_mb", value("snapshot_mb"), "MB");
        const double render = median(pooled["snapshot.render_s"]);
        const double save = median(pooled["snapshot.save_s"]);
        m.set("snapshot.render_s", render, "s");
        m.set("snapshot.write_s", save > render ? save - render : 0.0,
              "s");
        m.set("snapshot.validate_s", value("snapshot.validate_s"), "s");
        m.set("snapshot.deserialize_s", value("snapshot.deserialize_s"),
              "s");
        m.set("snapshot.bytes", value("snapshot.bytes"), "B");
        m.set("ckpt.writes", value("ckpt.writes"), "count");
        m.set("sweep.jobs", value("sweep.jobs"), "count");
        m.set("sweep.alone_runs", value("sweep.alone_runs"), "count");
        m.set("sweep.shared_sim_frac", value("sweep.shared_sim_frac"),
              "ratio");
        m.set("warm.hits", value("warm.hits"), "count");
        m.set("warm.misses", value("warm.misses"), "count");
        m.set("warm.grid_s", value("warm.grid_s"), "s");
        m.set("journal.reload_s", value("journal.reload_s"), "s");
        m.set("journal.bytes", value("journal.bytes"), "B");
        m.set("codec.encode_s", median(pooled["codec.encode_s"]), "s");
        m.set("codec.decode_s", median(pooled["codec.decode_s"]), "s");
        m.set("dist.grid_s", value("dist.grid_s"), "s");
        m.set("dist.leases_claimed", value("dist.leases_claimed"),
              "count");
        const double plain_s =
            med(plain, [](const PassResult &r) { return r.seconds; });
        const double traced_s =
            med(traced, [](const PassResult &r) { return r.seconds; });
        m.set("trace.overhead_frac",
              plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0, "ratio");
    }

    std::printf("{\"digest\": \"%s\", \"attempted\": %llu, "
                "\"failed\": %llu, \"passes\": %zu, \"workers\": %u, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"metrics\": %s}\n",
                hex64(digest).c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                plain.size() + traced.size(),
                ctx.workload == "fig11" ? ctx.workers : 1U,
                MASKBENCH_BUILD_TYPE, MASKBENCH_COMPILER,
                m.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "maskbench: %s\n", err.what());
        return 1;
    }
}

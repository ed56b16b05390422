#include "sim/runner.hh"

#include <cctype>
#include <cstdio>
#include <memory>

#include <sys/stat.h>

#include "common/env.hh"
#include "common/rate_limit.hh"
#include "metrics/metrics.hh"
#include "obs/registry.hh"
#include "sim/presets.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"

namespace mask {

namespace {

/**
 * Warm-fallback warnings, rate-limited (one warm directory full of
 * corrupt snapshots would otherwise emit one line per job per sweep).
 * Shared by the shared-run and alone-run fallback sites: they report
 * the same degradation class.
 */
WarnRateLimiter &
warmFallbackWarns()
{
    static WarnRateLimiter warns;
    return warns;
}

std::vector<AppDesc>
toAppDescs(const std::vector<std::string> &bench_names)
{
    std::vector<AppDesc> apps;
    apps.reserve(bench_names.size());
    for (const auto &name : bench_names)
        apps.push_back(AppDesc{&findBenchmark(name)});
    return apps;
}

/**
 * A hard invariant tripped mid-run: persist a deterministic repro
 * record, print the diagnostic block, and rethrow for the caller.
 */
[[noreturn]] void
captureCrash(const GpuConfig &arch, DesignPoint point,
             const std::vector<std::string> &benches,
             const RunOptions &options, const SimInvariantError &err)
{
    const CrashRepro repro = makeRepro(arch, point, benches,
                                       options.warmup,
                                       options.measure, err);
    const std::string path = reproFilePath();
    std::fputs(err.diagnostic().c_str(), stderr);
    try {
        writeRepro(path, repro);
        std::fprintf(stderr,
                     "repro written to %s (re-run with: crash_replay "
                     "--replay %s)\n",
                     path.c_str(), path.c_str());
    } catch (const std::exception &io) {
        std::fprintf(stderr, "failed to write repro file: %s\n",
                     io.what());
    }
    throw err;
}

/**
 * Per-job observability override (DESIGN.md §13): when
 * MASK_SWEEP_OBS_DIR is set, every shared run writes its timeseries
 * and trace to <dir>/<design>+<benches>.{timeseries.jsonl,trace.json}
 * instead of the global MASK_TIMESERIES/MASK_TRACE paths, so
 * concurrent sweep jobs never clobber each other. Interval and
 * category filter still come from the environment. Returns null
 * (no override) when the knob is unset.
 */
std::unique_ptr<obs::ScopedObsOverride>
makeJobObsOverride(DesignPoint point,
                   const std::vector<std::string> &benches)
{
    const std::string dir = envString("MASK_SWEEP_OBS_DIR");
    if (dir.empty())
        return nullptr;
    ::mkdir(dir.c_str(), 0777); // best-effort; fopen reports real failures

    std::string tag = designPointName(point);
    for (const auto &b : benches) {
        tag += "+";
        tag += b;
    }
    for (char &c : tag) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 ||
              c == '-' || c == '_' || c == '.' || c == '+'))
            c = '_';
    }

    obs::ObsOptions opts = obs::obsOptionsFromEnv();
    const std::string base = dir + "/" + tag;
    opts.timeseriesPath = base + ".timeseries.jsonl";
    opts.tracePath = base + ".trace.json";
    return std::make_unique<obs::ScopedObsOverride>(std::move(opts));
}

/**
 * True when the effective observability options would write any file
 * during this run. Warm starts skip the warmup window, which would
 * silently truncate those outputs — warm-eligible runs must be
 * obs-silent (alone runs always are: they install an empty override).
 */
bool
obsSinksActive()
{
    const obs::ObsOptions opts = obs::resolveObsOptions();
    return opts.timeseriesOn() || opts.traceOn();
}

} // namespace

std::string
runWarmup(const GpuConfig &cfg,
          const std::vector<std::string> &bench_names, Cycle warmup)
{
    Gpu gpu(cfg, toAppDescs(bench_names));
    gpu.run(warmup);
    return renderSnapshot(warmupFingerprint(cfg), gpu);
}

GpuStats
runMeasureFrom(std::string_view image, const GpuConfig &cfg,
               const std::vector<std::string> &bench_names,
               Cycle warmup, Cycle measure)
{
    Gpu gpu(cfg, toAppDescs(bench_names));
    const std::uint64_t cycle =
        restoreSnapshot(image, warmupFingerprint(cfg), gpu);
    if (cycle != warmup)
        throw SnapshotError("warm snapshot cycle " +
                                std::to_string(cycle) +
                                " does not match warmup window " +
                                std::to_string(warmup),
                            "header", cycle);
    gpu.resetStats();
    gpu.run(measure);
    return gpu.collect();
}

std::string
warmStateKey(std::uint64_t warmup_fingerprint,
             const std::vector<std::string> &bench_names, Cycle warmup)
{
    // The key doubles as the basename of file-backed warm snapshots
    // under MASK_SWEEP_WARM_DIR.
    return stateFileName("warm", warmup_fingerprint, bench_names,
                         {warmup});
}

double
AloneIpcCache::getOrCompute(const std::string &key,
                            const std::function<double()> &compute)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = slots_.find(key);
        if (it == slots_.end())
            break; // this thread computes
        if (it->second.ready)
            return it->second.value;
        // Another thread is computing this key; if it fails the slot
        // is erased and the loop falls through to retry.
        ready_.wait(lock);
    }
    slots_.emplace(key, Slot{});
    lock.unlock();
    try {
        const double value = compute();
        lock.lock();
        Slot &slot = slots_[key];
        slot.value = value;
        slot.ready = true;
        ready_.notify_all();
        return value;
    } catch (...) {
        lock.lock();
        slots_.erase(key);
        ready_.notify_all();
        throw;
    }
}

std::size_t
AloneIpcCache::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

GpuStats
Evaluator::runWindows(const GpuConfig &cfg,
                      const std::vector<std::string> &bench_names,
                      const std::vector<std::string> &ckpt_label)
{
    const CheckpointPolicy ckpt = checkpointPolicyFromEnv();
    if (warm_ != nullptr) {
        // Warm-eligible runs fork a shared warmed snapshot and
        // simulate only the measure window. Checkpointed or
        // obs-instrumented runs bypass: checkpoint resume owns the
        // snapshot files, and obs sinks must cover warmup too.
        if (ckpt.enabled() || obsSinksActive()) {
            warm_->noteBypass();
        } else {
            const std::string key = warmStateKey(
                warmupFingerprint(cfg), bench_names, options_.warmup);
            const std::string image =
                warm_->getOrWarm(key, options_.warmup, [&]() {
                    return runWarmup(cfg, bench_names, options_.warmup);
                });
            try {
                return runMeasureFrom(image, cfg, bench_names,
                                      options_.warmup, options_.measure);
            } catch (const SnapshotError &err) {
                if (const std::uint64_t n = warmFallbackWarns().tick()) {
                    std::fprintf(stderr,
                                 "mask: warm state %s rejected (%s); "
                                 "falling back to a fresh run "
                                 "(occurrence %llu%s)\n",
                                 key.c_str(), err.what(),
                                 static_cast<unsigned long long>(n),
                                 warmFallbackWarns().suppressNote());
                }
                warm_->invalidate(key);
                warm_->noteFallback();
            }
        }
    }
    const std::uint64_t fp = configFingerprint(cfg);
    const std::string path =
        ckpt.enabled() ? checkpointPath(ckpt, fp, ckpt_label,
                                        options_.warmup, options_.measure)
                       : std::string();
    return runWithCheckpoints(
        [&]() {
            return std::make_unique<Gpu>(cfg, toAppDescs(bench_names));
        },
        ckpt, fp, path, options_.warmup, options_.measure);
}

GpuStats
Evaluator::runShared(const GpuConfig &arch, DesignPoint point,
                     const std::vector<std::string> &bench_names)
{
    const GpuConfig cfg = applyDesignPoint(arch, point);
    // Alive for the whole run: the Gpu resolves its obs options at
    // construction, including rebuilds inside runWithCheckpoints.
    const auto obs_override = makeJobObsOverride(point, bench_names);
    // A hard crash (SIGSEGV/SIGABRT/...) during this run flushes the
    // same repro record an invariant failure would, via the
    // fatal-signal handlers; with MASK_CKPT_* checkpointing on, the
    // re-run resumes from the last periodic checkpoint file.
    const ScopedSignalRepro armed(
        makeRepro(arch, point, bench_names, options_.warmup,
                  options_.measure),
        reproFilePath());
    try {
        return runWindows(cfg, bench_names, bench_names);
    } catch (const SimInvariantError &err) {
        captureCrash(arch, point, bench_names, options_, err);
    }
}

double
Evaluator::aloneIpc(const GpuConfig &arch, DesignPoint point,
                    const std::string &bench, std::uint32_t cores)
{
    GpuConfig cfg = applyDesignPoint(arch, point);
    cfg.numCores = cores;
    // The alone run gives this app the whole (shrunken) GPU; shares
    // sized for the shared-run app count would be stale here.
    cfg.coreShares.clear();
    // Partitioning splits resources between apps and is inert with
    // one (the L2 and the address mapper read it only when apps > 1):
    // clearing it lets the Static alone runs share SharedTLB's slots.
    cfg.partition = PartitionConfig{};

    // Key on the structural fingerprint of the exact config the alone
    // run would use — never on arch.name, which benches reuse across
    // distinct parameter sets (two "maxwell" variants with different
    // TLB sizes must not share alone IPCs). Bench identity and window
    // sizes are the only inputs not captured by the config itself.
    const std::string key = std::to_string(configFingerprint(cfg)) +
                            "/" + bench + "/" +
                            std::to_string(options_.warmup) + "/" +
                            std::to_string(options_.measure);
    return aloneCache_->getOrCompute(key, [&]() {
        // Alone runs are memoized across jobs and threads; their
        // telemetry would race the shared runs' files, so the obs
        // layer is disabled for them (empty paths = everything off,
        // which also keeps them warm-eligible).
        const obs::ScopedObsOverride no_obs{obs::ObsOptions{}};
        const ScopedSignalRepro armed(
            makeRepro(cfg, point, {bench}, options_.warmup,
                      options_.measure),
            reproFilePath());
        try {
            return runWindows(cfg, {bench}, {"alone-" + bench}).ipc[0];
        } catch (const SimInvariantError &err) {
            captureCrash(cfg, point, {bench}, options_, err);
        }
    });
}

PairResult
Evaluator::evaluate(const GpuConfig &arch, DesignPoint point,
                    const std::vector<std::string> &bench_names)
{
    PairResult result;
    result.stats = runShared(arch, point, bench_names);
    result.sharedIpc = result.stats.ipc;

    const auto num_apps =
        static_cast<std::uint32_t>(bench_names.size());
    for (std::uint32_t a = 0; a < num_apps; ++a) {
        result.aloneIpc.push_back(
            aloneIpc(arch, point, bench_names[a],
                     coreShareOf(arch, num_apps, a)));
    }

    result.weightedSpeedup =
        weightedSpeedup(result.sharedIpc, result.aloneIpc);
    result.ipcThroughput = ipcThroughput(result.sharedIpc);
    result.unfairness = maxSlowdown(result.sharedIpc, result.aloneIpc);
    return result;
}

ReplayResult
replayRepro(const CrashRepro &repro)
{
    GpuConfig arch = archByName(repro.arch);
    arch.seed = repro.seed;
    arch.harden = repro.harden;
    const DesignPoint point = designPointByName(repro.design);

    ReplayResult out;
    try {
        const GpuConfig cfg = applyDesignPoint(arch, point);
        Gpu gpu(cfg, toAppDescs(repro.benches));
        gpu.run(repro.warmup);
        gpu.resetStats();
        gpu.run(repro.measure);
    } catch (const SimInvariantError &err) {
        out.reproduced = true;
        out.failCycle = err.cycle();
        out.module = err.module();
        out.detail = err.detail();
        out.sameCycle = err.cycle() == repro.failCycle;
        out.sameModule = err.module() == repro.module;
    }
    return out;
}

} // namespace mask

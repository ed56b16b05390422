#include "sim/runner.hh"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "common/rate_limit.hh"
#include "obs/registry.hh"
#include "sim/presets.hh"
#include "sim/snapshot.hh"
#include "sim/sweep.hh"

namespace mask {

namespace {

/**
 * Warm-fallback warnings, rate-limited (one warm directory full of
 * corrupt snapshots would otherwise emit one line per run per sweep).
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
 * Basename shared by identical runs: @p prefix, the fingerprint of the
 * final config @p cfg, @p benches and the windows.
 */
std::string
runName(std::string_view prefix, const GpuConfig &cfg,
        const std::vector<std::string> &benches,
        const RunOptions &options)
{
    return stateFileName(prefix, configFingerprint(cfg), benches,
                         {options.warmup, options.measure});
}

/**
 * Run only the warmup window of (cfg, bench_names) on a fresh Gpu and
 * render its snapshot image. The header carries warmupFingerprint(cfg)
 * — not configFingerprint — because any configuration with the same
 * warmup fingerprint may legally restore this image (they diverge only
 * in measure-only knobs).
 */
std::string
runWarmup(const GpuConfig &cfg,
          const std::vector<std::string> &bench_names, Cycle warmup)
{
    Gpu gpu(cfg, toAppDescs(bench_names));
    gpu.run(warmup);
    return renderSnapshot(warmupFingerprint(cfg), gpu);
}

/**
 * Restore @p image into a fresh Gpu built from @p cfg and run only the
 * measurement window: byte-identical to run(warmup); resetStats();
 * run(measure) (the SweepWarm tests and determinism leg 13 enforce
 * this). Throws SnapshotError when the image fails validation against
 * warmupFingerprint(cfg) or its header cycle differs from @p warmup.
 */
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

/**
 * Warmup + measure of @p benches on the final config @p cfg, writing
 * the telemetry files @p obs names: forked from @p warm when it is set
 * and the run is warm-eligible (no checkpointing, no telemetry), else
 * via runWithCheckpoints with checkpoint files named after
 * @p ckpt_label.
 */
GpuStats
runWindows(const GpuConfig &cfg,
           const std::vector<std::string> &bench_names,
           const std::vector<std::string> &ckpt_label,
           const obs::ObsOptions &obs, const RunOptions &options,
           const CheckpointPolicy &ckpt, WarmStateCache *warm)
{
    if (warm != nullptr) {
        // Warm-eligible runs fork a shared warmed snapshot and
        // simulate only the measure window. Checkpointed or
        // telemetry-writing runs bypass: checkpoint resume owns the
        // snapshot files, and telemetry must cover warmup too.
        if (ckpt.enabled() || obs.on()) {
            warm->noteBypass();
        } else {
            const std::string key = warmStateKey(
                warmupFingerprint(cfg), bench_names, options.warmup);
            const std::string image =
                warm->getOrWarm(key, options.warmup, [&]() {
                    return runWarmup(cfg, bench_names, options.warmup);
                });
            try {
                return runMeasureFrom(image, cfg, bench_names,
                                      options.warmup, options.measure);
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
                warm->invalidate(key);
                warm->noteFallback();
            }
        }
    }
    const std::uint64_t fp = configFingerprint(cfg);
    const std::string path =
        ckpt.enabled() ? checkpointPath(ckpt, fp, ckpt_label,
                                        options.warmup, options.measure)
                       : std::string();
    return runWithCheckpoints(
        [&]() {
            return std::make_unique<Gpu>(cfg, toAppDescs(bench_names),
                                         obs);
        },
        ckpt, fp, path, options.warmup, options.measure);
}

/**
 * Run @p body with @p repro armed at the repro path of the run named
 * @p name: a hard crash (SIGSEGV/SIGABRT/...) flushes it through the
 * fatal-signal handlers, and a tripped invariant writes it with the
 * failure filled in, prints the diagnostic block, and rethrows with
 * the path attached when the write succeeded. With MASK_CKPT_*
 * checkpointing on, the re-run resumes from the last checkpoint file.
 */
template <typename Body>
auto
withRepro(CrashRepro repro, const std::string &name, Body body)
{
    const std::string path = reproPath(name);
    const ScopedSignalRepro armed(repro, path);
    try {
        return body();
    } catch (const SimInvariantError &err) {
        repro.failCycle = err.cycle();
        repro.module = err.module();
        repro.detail = err.detail();
        std::fputs(err.diagnostic().c_str(), stderr);
        SimInvariantError out = err;
        try {
            writeRepro(path, repro);
            out.setReproPath(path);
            std::fprintf(stderr,
                         "repro written to %s (re-run with: crash_replay "
                         "--replay %s)\n",
                         path.c_str(), path.c_str());
        } catch (const std::exception &io) {
            std::fprintf(stderr, "failed to write repro file: %s\n",
                         io.what());
        }
        throw out;
    }
}

} // namespace

std::string
warmStateKey(std::uint64_t warmup_fingerprint,
             const std::vector<std::string> &bench_names, Cycle warmup)
{
    // The key doubles as the basename of the warm snapshot file under
    // WarmPolicy::dir.
    return stateFileName("warm", warmup_fingerprint, bench_names,
                         {warmup});
}

std::string
sharedRunName(const GpuConfig &arch, DesignPoint point,
              const std::vector<std::string> &benches,
              const RunOptions &options)
{
    return runName(designPointName(point), applyDesignPoint(arch, point),
                   benches, options);
}

std::string
aloneRunName(const GpuConfig &arch, DesignPoint point,
             const std::string &bench, std::uint32_t cores,
             const RunOptions &options)
{
    return runName("alone", aloneConfig(arch, point, cores), {bench},
                   options);
}

GpuStats
runShared(const GpuConfig &arch, DesignPoint point,
          const std::vector<std::string> &benches,
          const RunOptions &options, const CheckpointPolicy &ckpt,
          WarmStateCache *warm)
{
    const std::string name = sharedRunName(arch, point, benches, options);
    return withRepro(
        makeRepro(arch, point, benches, options.warmup, options.measure),
        name, [&]() {
            return runWindows(applyDesignPoint(arch, point), benches,
                              benches, obs::obsOptionsFromEnv(name),
                              options, ckpt, warm);
        });
}

double
runAlone(const GpuConfig &arch, DesignPoint point,
         const std::string &bench, std::uint32_t cores,
         const RunOptions &options, const CheckpointPolicy &ckpt,
         WarmStateCache *warm)
{
    return withRepro(
        makeRepro(arch, point, {bench}, options.warmup, options.measure,
                  cores),
        aloneRunName(arch, point, bench, cores, options), [&]() {
            return runWindows(aloneConfig(arch, point, cores), {bench},
                              {"alone-" + bench}, {}, options, ckpt,
                              warm)
                .ipc[0];
        });
}

ReplayResult
replayRepro(const CrashRepro &repro)
{
    GpuConfig arch = archByName(repro.arch);
    arch.seed = repro.seed;
    arch.harden = repro.harden;
    const DesignPoint point = designPointByName(repro.design);
    const GpuConfig cfg = repro.cores != 0
                              ? aloneConfig(arch, point, repro.cores)
                              : applyDesignPoint(arch, point);
    if (repro.fingerprint != 0 &&
        configFingerprint(cfg) != repro.fingerprint)
        throw std::runtime_error(
            "repro config fingerprint differs from preset '" +
            repro.arch + "' with the recorded design, cores, seed "
            "and hardening knobs: the failed run used another config, "
            "which a replay by name cannot rebuild");

    ReplayResult out;
    try {
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

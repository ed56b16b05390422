/**
 * @file
 * Host-side simulation throughput: mega-cycles/sec and requests/sec
 * for representative configurations, printed as one JSON object per
 * line (consumed by scripts/bench_perf.sh -> BENCH_throughput.json).
 *
 * This bench measures the SIMULATOR, not the simulated machine: its
 * output depends on host speed and is deliberately excluded from the
 * determinism checks.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_util.hh"
#include "common/env.hh"
#include "metrics/metrics.hh"
#include "sim/gpu.hh"
#include "sim/sweep_io.hh"

using namespace mask;

namespace {

void
emit(const char *label, DesignPoint point,
     const std::vector<std::string> &benches, const GpuStats &stats)
{
    std::printf("{\"case\": \"%s\", \"design\": \"%s\", \"apps\": %zu,"
                " \"cycles\": %llu, \"wall_seconds\": %.4f,"
                " \"mega_cycles_per_sec\": %.3f, \"requests\": %llu,"
                " \"requests_per_sec\": %.0f,"
                " \"pool_peak_live\": %zu,"
                " \"ckpt_writes\": %llu, \"ckpt_bytes\": %llu,"
                " \"ckpt_write_seconds\": %.4f,"
                " \"ckpt_overhead\": %.4f,"
                " \"sched_picks\": %llu,"
                " \"sched_banks_scanned\": %llu,"
                " \"scanned_per_pick\": %.3f,"
                " \"picks_per_cycle\": %.4f,"
                " \"data_retry_probes\": %llu,"
                " \"tlb_retry_probes\": %llu",
                label, designPointName(point), benches.size(),
                static_cast<unsigned long long>(stats.cycles),
                stats.wallSeconds, stats.megaCyclesPerSec(),
                static_cast<unsigned long long>(stats.requests),
                stats.requestsPerSec(), stats.poolPeakLive,
                static_cast<unsigned long long>(stats.ckptWrites),
                static_cast<unsigned long long>(stats.ckptBytes),
                stats.ckptWriteSeconds,
                checkpointOverhead(stats.ckptWriteSeconds,
                                   stats.wallSeconds),
                static_cast<unsigned long long>(stats.dramSchedPicks),
                static_cast<unsigned long long>(
                    stats.dramSchedBanksScanned),
                safeDiv(static_cast<double>(stats.dramSchedBanksScanned),
                        static_cast<double>(stats.dramSchedPicks)),
                safeDiv(static_cast<double>(stats.dramSchedPicks),
                        static_cast<double>(stats.cycles)),
                static_cast<unsigned long long>(stats.dataRetryProbes),
                static_cast<unsigned long long>(stats.tlbRetryProbes));
    // MASK_PROFILE_STAGES=1: per-stage wall-clock seconds (host-side,
    // observation-only).
    if (!stats.stageSeconds.empty()) {
        std::printf(", \"stage_seconds\": {");
        for (std::size_t i = 0; i < stats.stageSeconds.size(); ++i) {
            std::printf("%s\"%s\": %.4f", i == 0 ? "" : ", ",
                        Gpu::stageName(i), stats.stageSeconds[i]);
        }
        std::printf("}");
    }
    std::printf("}\n");
}

/**
 * Run one case with periodic checkpointing forced on (interval =
 * measure/8, snapshots in TMPDIR) so BENCH_throughput.json records the
 * serialization cost: ckpt_write_seconds, bytes per snapshot, and the
 * overhead fraction of wall time.
 */
GpuStats
runCheckpointed(Evaluator &eval, const GpuConfig &arch,
                DesignPoint point,
                const std::vector<std::string> &benches)
{
    const RunOptions options = bench::benchOptions();
    const std::string interval =
        std::to_string(std::max<Cycle>(1, options.measure / 8));
    ::setenv("MASK_CKPT_INTERVAL_CYCLES", interval.c_str(), 1);
    ::setenv("MASK_CKPT_DIR", envString("TMPDIR", "/tmp").c_str(), 1);
    const GpuStats stats = eval.runShared(arch, point, benches);
    ::unsetenv("MASK_CKPT_INTERVAL_CYCLES");
    ::unsetenv("MASK_CKPT_DIR");
    return stats;
}

/**
 * Warm-start sweep A/B: a measure-length grid whose four jobs share
 * one warmup fingerprint, run with the warm cache off then on. The
 * off leg simulates the (deliberately warmup-heavy) prefix four
 * times, the on leg once — wall-clock ratio and the warm counters go
 * to BENCH_throughput.json; the legs' results are byte-compared so a
 * speedup can never come at the cost of determinism. The cache-off
 * leg's work counters, summed over the grid, feed the same
 * host-independent gate as the other cases (check_sched_work.sh).
 */
void
runWarmSweep(const GpuConfig &arch,
             const std::vector<std::string> &names)
{
    using Clock = std::chrono::steady_clock;
    const RunOptions base = bench::benchOptions();
    RunOptions grid;
    grid.warmup = base.measure; // shared prefix dominates the grid
    grid.measure = base.measure;
    const std::vector<Cycle> measures = {
        std::max<Cycle>(1, base.measure / 4),
        std::max<Cycle>(1, base.measure / 2),
        std::max<Cycle>(1, 3 * base.measure / 4),
        base.measure,
    };

    WarmStateCache::Stats warm_stats;
    GpuStats work;
    auto leg = [&](bool warm_on, std::vector<std::string> &blobs) {
        SweepRunner sweep(grid, bench::benchJobs());
        WarmPolicy policy;
        policy.enabled = warm_on;
        sweep.setWarmPolicy(policy);
        std::vector<std::size_t> ids;
        for (const Cycle m : measures) {
            RunOptions options = grid;
            options.measure = m;
            SweepJob job;
            job.arch = arch;
            job.point = DesignPoint::Mask;
            job.benches = names;
            job.mode = SweepMode::SharedOnly;
            job.options = options;
            ids.push_back(sweep.submit(std::move(job)));
        }
        const auto t0 = Clock::now();
        sweep.run();
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        for (const std::size_t id : ids) {
            const GpuStats &s = sweep.result(id).stats;
            blobs.push_back(encodePairResult(sweep.result(id)));
            if (warm_on)
                continue;
            work.cycles += s.cycles;
            work.requests += s.requests;
            work.dramSchedPicks += s.dramSchedPicks;
            work.dramSchedBanksScanned += s.dramSchedBanksScanned;
            work.dataRetryProbes += s.dataRetryProbes;
            work.tlbRetryProbes += s.tlbRetryProbes;
        }
        if (warm_on)
            warm_stats = sweep.warmStats();
        return seconds;
    };

    std::vector<std::string> off_blobs;
    std::vector<std::string> on_blobs;
    bench::progress("perf warm-sweep (cache off)");
    const double off_seconds = leg(false, off_blobs);
    bench::progress("perf warm-sweep (cache on)");
    const double on_seconds = leg(true, on_blobs);
    const bool identical = off_blobs == on_blobs;
    if (!identical)
        bench::progress("warm-sweep: WARM RESULTS DIVERGED");

    std::printf(
        "{\"case\": \"warm-sweep\", \"design\": \"mask\","
        " \"apps\": %zu, \"grid_points\": %zu,"
        " \"warmup_cycles\": %llu, \"warm_off_seconds\": %.4f,"
        " \"warm_on_seconds\": %.4f, \"warm_speedup\": %.3f,"
        " \"warm_hits\": %llu, \"warm_misses\": %llu,"
        " \"warmup_cycles_saved\": %llu, \"warm_identical\": %s,"
        " \"cycles\": %llu, \"requests\": %llu, \"sched_picks\": %llu,"
        " \"sched_banks_scanned\": %llu, \"data_retry_probes\": %llu,"
        " \"tlb_retry_probes\": %llu}\n",
        names.size(), measures.size(),
        static_cast<unsigned long long>(grid.warmup), off_seconds,
        on_seconds, safeDiv(off_seconds, on_seconds),
        static_cast<unsigned long long>(warm_stats.hits),
        static_cast<unsigned long long>(warm_stats.misses),
        static_cast<unsigned long long>(warm_stats.warmupCyclesSaved),
        identical ? "true" : "false",
        static_cast<unsigned long long>(work.cycles),
        static_cast<unsigned long long>(work.requests),
        static_cast<unsigned long long>(work.dramSchedPicks),
        static_cast<unsigned long long>(work.dramSchedBanksScanned),
        static_cast<unsigned long long>(work.dataRetryProbes),
        static_cast<unsigned long long>(work.tlbRetryProbes));
}

int
run()
{
    Evaluator eval(bench::benchOptions());
    const GpuConfig arch = archByName("maxwell");
    const std::vector<WorkloadPair> pairs = bench::benchPairs();
    const WorkloadPair &pair = pairs.front();
    const std::vector<std::string> names = {pair.first, pair.second};

    struct Case
    {
        const char *label;
        DesignPoint point;
        std::vector<std::string> benches;
    };
    const std::vector<Case> cases = {
        {"alone", DesignPoint::SharedTlb, {pair.first}},
        {"pair-sharedtlb", DesignPoint::SharedTlb, names},
        {"pair-mask", DesignPoint::Mask, names},
        {"pair-ideal", DesignPoint::Ideal, names},
    };
    for (const Case &c : cases) {
        bench::progress(std::string("perf ") + c.label);
        emit(c.label, c.point,
             c.benches, eval.runShared(arch, c.point, c.benches));
    }

    // Same workload with periodic snapshots on: the delta against
    // "pair-mask" is the checkpointing cost.
    bench::progress("perf pair-mask-ckpt");
    emit("pair-mask-ckpt", DesignPoint::Mask, names,
         runCheckpointed(eval, arch, DesignPoint::Mask, names));

    // Warm-start sweep A/B (DESIGN.md §14).
    runWarmSweep(arch, names);
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}

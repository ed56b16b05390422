#include "bench_util.hh"

#include "common/env.hh"

namespace mask {
namespace bench {

RunOptions
benchOptions()
{
    RunOptions options;
    options.warmup = 24000;
    options.measure = 80000;
    if (envFlag("MASK_BENCH_FAST")) {
        options.warmup = 6000;
        options.measure = 20000;
    }
    if (const Cycle n = envU64("MASK_BENCH_CYCLES", 0)) {
        options.measure = n;
        options.warmup = std::max<Cycle>(4000, n / 4);
    }
    return options;
}

std::vector<WorkloadPair>
benchPairs()
{
    std::vector<WorkloadPair> pairs = workloadPairs();
    if (const std::uint64_t n = envU64("MASK_BENCH_PAIRS", 0);
        n > 0 && n < pairs.size())
        pairs.resize(static_cast<std::size_t>(n));
    return pairs;
}

unsigned
benchJobs()
{
    return sweepJobs();
}

SweepRunner
benchSweep()
{
    return SweepRunner(benchOptions(), benchJobs());
}

const std::vector<DesignPoint> &
reportedDesigns()
{
    static const std::vector<DesignPoint> designs = {
        DesignPoint::Static,    DesignPoint::PwCache,
        DesignPoint::SharedTlb, DesignPoint::MaskTlb,
        DesignPoint::MaskCache, DesignPoint::MaskDram,
        DesignPoint::Mask,
    };
    return designs;
}

void
banner(const char *figure, const char *description)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s — %s\n", figure, description);
    const RunOptions options = benchOptions();
    std::printf("(windows: %llu warmup + %llu measured cycles)\n",
                static_cast<unsigned long long>(options.warmup),
                static_cast<unsigned long long>(options.measure));
    std::printf("==================================================="
                "=========================\n");
}

void
progress(const std::string &what)
{
    std::fprintf(stderr, "[bench] %s\n", what.c_str());
}

std::string
fmt(double v, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

int
guardedMain(int (*body)())
{
    try {
        return body();
    } catch (const SimInvariantError &err) {
        std::fputs(err.diagnostic().c_str(), stderr);
        std::fprintf(stderr,
                     "invariant failure: replay deterministically "
                     "with: crash_replay --replay <repro file>\n");
        return 2;
    } catch (const ConfigError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
}

const PairResult *
okResult(const SweepRunner &sweep, std::size_t index)
{
    return sweep.outcome(index).status == SweepStatus::Ok
               ? &sweep.result(index)
               : nullptr;
}

std::string
failedCell(const SweepRunner &sweep, std::size_t index)
{
    return std::string("FAILED(") +
           sweepStatusName(sweep.outcome(index).status) + ")";
}

void
reportWarmCache(const SweepRunner &sweep)
{
    if (sweep.warmCache() == nullptr)
        return;
    const WarmStateCache::Stats warm = sweep.warmStats();
    std::fprintf(stderr,
                 "[warm] %llu hit%s, %llu miss%s, %llu warmup cycles "
                 "saved (%llu bypassed, %llu fallback%s, %llu "
                 "evicted)\n",
                 static_cast<unsigned long long>(warm.hits),
                 warm.hits == 1 ? "" : "s",
                 static_cast<unsigned long long>(warm.misses),
                 warm.misses == 1 ? "" : "es",
                 static_cast<unsigned long long>(
                     warm.warmupCyclesSaved),
                 static_cast<unsigned long long>(warm.bypasses),
                 static_cast<unsigned long long>(warm.fallbacks),
                 warm.fallbacks == 1 ? "" : "s",
                 static_cast<unsigned long long>(warm.evictions));
}

void
reportDistSweep(const SweepRunner &sweep)
{
    if (!sweep.distActive())
        return;
    const DistSweepStats &dist = sweep.distStats();
    std::fprintf(
        stderr,
        "[dist] worker %s: %llu job%s (%llu executed, %llu loaded "
        "from peers), %llu lease%s claimed, %llu stolen, %llu stale "
        "seen, %llu steal retr%s, %llu duplicate%s, %llu torn "
        "line%s, %llu abandoned, %llu wait poll%s\n",
        dist.worker.c_str(),
        static_cast<unsigned long long>(dist.jobs),
        dist.jobs == 1 ? "" : "s",
        static_cast<unsigned long long>(dist.executed),
        static_cast<unsigned long long>(dist.loadedRemote),
        static_cast<unsigned long long>(dist.leasesClaimed),
        dist.leasesClaimed == 1 ? "" : "s",
        static_cast<unsigned long long>(dist.leasesStolen),
        static_cast<unsigned long long>(dist.staleSeen),
        static_cast<unsigned long long>(dist.stealRetries),
        dist.stealRetries == 1 ? "y" : "ies",
        static_cast<unsigned long long>(dist.duplicates),
        dist.duplicates == 1 ? "" : "s",
        static_cast<unsigned long long>(dist.tornLines),
        dist.tornLines == 1 ? "" : "s",
        static_cast<unsigned long long>(dist.abandoned),
        static_cast<unsigned long long>(dist.waitPolls),
        dist.waitPolls == 1 ? "" : "s");
}

std::size_t
reportFailures(const SweepRunner &sweep)
{
    reportWarmCache(sweep);
    reportDistSweep(sweep);
    const std::size_t failed = sweep.failedJobs();
    if (failed == 0)
        return 0;
    std::printf("\n%zu of %zu sweep jobs did not complete:\n", failed,
                sweep.completedJobs());
    for (std::size_t i = 0; i < sweep.completedJobs(); ++i) {
        const SweepOutcome &outcome = sweep.outcome(i);
        if (outcome.status == SweepStatus::Ok)
            continue;
        std::printf("  job %zu: FAILED(%s) — %s\n", i,
                    sweepStatusName(outcome.status),
                    outcome.error.c_str());
        if (!outcome.reproPath.empty()) {
            std::printf("    repro: %s (crash_replay --replay %s)\n",
                        outcome.reproPath.c_str(),
                        outcome.reproPath.c_str());
        }
    }
    return failed;
}

} // namespace bench
} // namespace mask

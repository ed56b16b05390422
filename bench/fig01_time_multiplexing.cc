/**
 * @file
 * Figure 1: execution-time overhead of time multiplexing as the
 * number of concurrent processes grows (paper: measured on real K40 /
 * GTX 1080 GPUs; here: the time-multiplex model of DESIGN.md
 * substitution 2).
 */

#include "bench_util.hh"
#include "common/env.hh"
#include "sim/time_mux.hh"

using namespace mask;

namespace {

int
run()
{
    bench::banner("Figure 1",
                  "time-multiplexing overhead vs. process count");

    GpuConfig cfg = archByName("maxwell");
    cfg = applyDesignPoint(cfg, DesignPoint::SharedTlb);

    // Quantum and per-switch costs sized so that at 2 processes the
    // scheduling overhead is ~10% of useful work, growing with the
    // resident-process count (driver bookkeeping + state migration).
    TimeMuxOptions options;
    options.quantum = 20000;
    options.workPerProcess = 2500000;
    options.switchBaseCost = 500;
    options.switchPerProcessCost = 1500;
    if (envFlag("MASK_BENCH_FAST")) {
        options.workPerProcess = 400000;
        options.quantum = 8000;
    }

    // The paper's microbenchmark interleaves arithmetic with
    // loads/stores; NN is our closest equivalent.
    const BenchmarkParams &bench_kernel = findBenchmark("NN");

    std::printf("%-10s %14s %14s %10s\n", "processes", "serial(cyc)",
                "timemux(cyc)", "overhead");
    for (std::uint32_t procs = 2; procs <= 10; ++procs) {
        bench::progress("time multiplexing with " +
                        std::to_string(procs) + " processes");
        const TimeMuxResult r =
            runTimeMux(cfg, bench_kernel, procs, options);
        std::printf("%-10u %14llu %14llu %9.1f%%\n", procs,
                    static_cast<unsigned long long>(r.serialCycles),
                    static_cast<unsigned long long>(r.muxCycles),
                    100.0 * r.overhead());
    }
    std::printf("\nPaper (GTX 1080): 12%% at 2 processes rising to "
                "91%% at 10; expect the same rising shape.\n");
    return 0;
}

} // namespace

int
main()
{
    return bench::guardedMain(run);
}

/**
 * @file
 * Quickstart: run one two-application workload (3DS + HISTO) on the
 * three main design points and print the headline metrics the paper
 * reports — weighted speedup, IPC throughput, unfairness, and the TLB
 * behaviour that explains them.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "common/stats.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

namespace {

int
run()
{
    using namespace mask;

    const GpuConfig arch = archByName("maxwell");
    const std::vector<std::string> pair = {"3DS", "HISTO"};
    const DesignPoint points[] = {DesignPoint::SharedTlb, DesignPoint::Mask,
                                  DesignPoint::Ideal};
    SweepRunner sweep(bench::benchOptions());
    for (const DesignPoint point : points)
        sweep.submit({arch, point, pair});
    sweep.run();

    std::printf("Workload: 3DS_HISTO on %s (%u cores)\n",
                arch.name.c_str(), arch.numCores);
    std::printf("%-10s %8s %8s %8s %10s %10s %10s\n", "design", "WS",
                "IPC", "unfair", "L1TLBmiss", "L2TLBmiss", "walks");

    for (std::size_t i = 0; i < std::size(points); ++i) {
        const DesignPoint point = points[i];
        const PairResult &r = sweep.result(i); // rethrows a failure
        std::printf("%-10s %8.3f %8.3f %8.3f %10s %10s %10llu\n",
                    designPointName(point), r.weightedSpeedup,
                    r.ipcThroughput, r.unfairness,
                    pct(r.stats.l1Tlb.missRate()).c_str(),
                    pct(r.stats.l2Tlb.missRate()).c_str(),
                    static_cast<unsigned long long>(r.stats.walks));
    }
    return 0;
}

} // namespace

int
main()
{
    // A tripped hard invariant or a malformed knob surfaces as one
    // diagnostic on stderr (plus a crash-repro file written by the
    // runner) instead of an abort.
    return mask::bench::guardedMain(run);
}

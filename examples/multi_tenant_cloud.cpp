/**
 * @file
 * Multi-tenant cloud scenario: three tenants with different memory
 * behaviour share one GPU (the paper's motivating setting). Compares
 * the Static-partitioning product baseline (NVIDIA GRID / AMD FirePro
 * style), the SharedTLB MMU baseline, and MASK on throughput and
 * per-tenant slowdown (QoS).
 *
 *   ./build/examples/multi_tenant_cloud
 */

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "metrics/metrics.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

namespace {

int
run()
{
    using namespace mask;

    // A latency-sensitive inference tenant (small working set), an
    // analytics tenant (irregular, large footprint), and a scientific
    // batch job (streaming).
    const std::vector<std::string> tenants = {"LPS", "MUM", "HISTO"};
    const GpuConfig arch = archByName("maxwell");
    const DesignPoint points[] = {DesignPoint::Static,
                                  DesignPoint::SharedTlb,
                                  DesignPoint::Mask, DesignPoint::Ideal};
    SweepRunner sweep(bench::benchOptions());
    for (const DesignPoint point : points)
        sweep.submit({arch, point, tenants});
    sweep.run();

    std::printf("Tenants: LPS (inference-like), MUM (analytics-like),"
                " HISTO (batch streaming)\n\n");
    std::printf("%-10s %8s %10s | per-tenant slowdown (alone/shared)\n",
                "design", "WS", "unfairness");

    for (std::size_t p = 0; p < std::size(points); ++p) {
        const DesignPoint point = points[p];
        const PairResult &r = sweep.result(p); // rethrows a failure
        std::printf("%-10s %8.3f %10.3f |", designPointName(point),
                    r.weightedSpeedup, r.unfairness);
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            std::printf("  %s %.2fx", tenants[i].c_str(),
                        safeDiv(r.aloneIpc[i], r.sharedIpc[i]));
        }
        std::printf("\n");
    }

    std::printf("\nA cloud operator reads this as: MASK approaches "
                "Ideal throughput while keeping the worst tenant "
                "slowdown (QoS) below the static-partitioning "
                "product baseline.\n");
    return 0;
}

} // namespace

int
main()
{
    return mask::bench::guardedMain(run);
}

/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot paths:
 * TLB lookups, cache fills/lookups, DRAM channel scheduling, page
 * walk bookkeeping, and whole-GPU cycles.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "dram/banked_queue.hh"
#include "dram/dram.hh"
#include "sim/gpu.hh"
#include "tlb/tlb.hh"
#include "vm/page_table.hh"
#include "workload/suite.hh"

namespace {

using namespace mask;

void
BM_TlbLookupHit(benchmark::State &state)
{
    TlbConfig cfg;
    cfg.entries = 512;
    cfg.ways = 16;
    Tlb tlb(cfg);
    for (Vpn v = 0; v < 512; ++v)
        tlb.fill(1, v, v);
    Rng rng(1);
    for (auto _ : state) {
        Pfn pfn;
        benchmark::DoNotOptimize(tlb.lookup(1, rng.below(512), &pfn));
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbFillEvict(benchmark::State &state)
{
    TlbConfig cfg;
    cfg.entries = 512;
    cfg.ways = 16;
    Tlb tlb(cfg);
    Vpn v = 0;
    for (auto _ : state) {
        ++v;
        tlb.fill(1, v, v);
    }
}
BENCHMARK(BM_TlbFillEvict);

void
BM_CacheLookup(benchmark::State &state)
{
    SetAssocCache cache(1024, 16);
    Rng rng(2);
    for (std::uint64_t k = 0; k < 16384; ++k)
        cache.fill(k);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.lookup(rng.below(32768)));
}
BENCHMARK(BM_CacheLookup);

void
BM_PageTableWalkAddrs(benchmark::State &state)
{
    FrameAllocator frames(12);
    PageTable pt(1, 12, frames);
    Rng rng(3);
    for (int i = 0; i < 4096; ++i)
        pt.mapPage(rng.below(1 << 24));
    Rng lookup_rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.walkAddrs(lookup_rng.below(1 << 24)));
        if (state.iterations() % 4096 == 0)
            lookup_rng.seed(3);
    }
}
BENCHMARK(BM_PageTableWalkAddrs);

void
BM_DramChannelTick(benchmark::State &state)
{
    DramConfig cfg;
    RequestPool pool;
    Dram dram(cfg, MaskConfig{}, 7, DramSchedMode::FrFcfs, 1, false);
    Rng rng(4);
    Cycle t = 0;
    for (auto _ : state) {
        const ReqId id = pool.alloc();
        pool[id].paddr = rng.below(1 << 26) << 7;
        pool[id].type = ReqType::Data;
        if (dram.canEnqueue(pool[id]))
            dram.enqueue(id, pool[id], t);
        else
            pool.release(id);
        dram.tick(t++);
        auto &done = dram.completed();
        while (!done.empty()) {
            pool.release(done.front());
            done.pop_front();
        }
    }
}
BENCHMARK(BM_DramChannelTick);

/**
 * Steady-state FR-FCFS pick on a deep request buffer: pick, service
 * (row activate on a miss), refill. range(0) selects the indexed
 * BankedRequestQueue::pick vs the frFcfsPick rescan over an
 * age-ordered vector (pick, erase, push_back); range(1) the stream's
 * row locality (long open-row hit chains vs a new row nearly every
 * entry). The indexed pick should stay O(banks) regardless of depth
 * while the rescan degrades with queue depth x miss rate.
 */
void
BM_SchedPick(benchmark::State &state)
{
    const bool reference = state.range(0) != 0;
    const bool row_local = state.range(1) != 0;
    constexpr std::uint32_t kBanks = 16;
    constexpr std::uint32_t kDepth = 256;
    constexpr std::uint32_t kStarvationCap = 16;

    std::vector<DramBank> banks(kBanks);
    for (auto &b : banks)
        b.rowValid = true;
    BankedRequestQueue queue(kBanks);
    std::vector<DramQueueEntry> flat;
    Rng rng(11);
    ReqId next_id = 0;
    const auto makeEntry = [&] {
        DramQueueEntry e;
        e.id = next_id++;
        e.bank = static_cast<std::uint32_t>(rng.below(kBanks));
        e.row = row_local ? rng.below(2) : rng.below(1u << 20);
        return e;
    };
    for (std::uint32_t i = 0; i < kDepth; ++i) {
        if (reference)
            flat.push_back(makeEntry());
        else
            queue.push(makeEntry(), banks);
    }

    Cycle now = 0;
    std::uint64_t escalations = 0, scanned = 0;
    for (auto _ : state) {
        if (reference) {
            const int idx = frFcfsPick(flat, banks, now,
                                       kStarvationCap, &escalations);
            if (idx >= 0) {
                const DramQueueEntry e = flat[idx];
                flat.erase(flat.begin() + idx);
                banks[e.bank].openRow = e.row;
                flat.push_back(makeEntry());
            }
        } else {
            const std::uint32_t node = queue.pick(
                banks, now, kStarvationCap, &escalations, &scanned);
            if (node != BankedRequestQueue::kNil) {
                const DramQueueEntry e = queue.take(node);
                if (banks[e.bank].openRow != e.row) {
                    banks[e.bank].openRow = e.row;
                    queue.onRowChange(e.bank, banks);
                }
                queue.push(makeEntry(), banks);
            }
        }
        ++now;
    }
    if (!reference) {
        state.counters["scanned_per_pick"] = benchmark::Counter(
            static_cast<double>(scanned) /
            static_cast<double>(state.iterations()));
    }
}
BENCHMARK(BM_SchedPick)
    ->ArgNames({"reference", "rowlocal"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void
BM_GpuCycle(benchmark::State &state)
{
    GpuConfig cfg;
    cfg.numCores = static_cast<std::uint32_t>(state.range(0));
    cfg.warpsPerCore = 32;
    const BenchmarkParams &bench_app = findBenchmark("3DS");
    Gpu gpu(cfg, {AppDesc{&bench_app}});
    gpu.run(2000); // warm structures
    for (auto _ : state)
        gpu.tickOne();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GpuCycle)->Arg(4)->Arg(15)->Arg(30);

} // namespace

BENCHMARK_MAIN();

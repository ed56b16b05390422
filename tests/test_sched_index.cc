/**
 * @file
 * Differential tests for the incrementally indexed memory-scheduler
 * structures (DESIGN.md §12).
 *
 * The indexed implementations must be observationally identical to
 * flat reference models:
 *  - BankedRequestQueue::pick vs frFcfsPick over an age-ordered
 *    vector under randomized traffic, including tiny starvation caps
 *    (escalation and bypass bookkeeping are part of the contract),
 *    with hasRowHit and the kNil busy_until bound cross-checked;
 *  - DataRetryQueue vs a flat reference model under randomized
 *    park/remove churn;
 *  - a whole-GPU MASK run with a starvation cap of 1 escalates;
 *  - the work-counter gate: scheduler picks, banks scanned and retry
 *    probes of six fixed whole-GPU cases stay within a pinned baseline.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dram/dram.hh"
#include "sim/gpu.hh"
#include "sim/presets.hh"
#include "sim/retry_queue.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

namespace mask {
namespace {

// ---------------------------------------------------------------------
// BankedRequestQueue: indexed pick vs frFcfsPick over a flat vector
// ---------------------------------------------------------------------

/**
 * Drive the indexed queue and an age-ordered vector picked by
 * frFcfsPick with an identical randomized push/service stream. Every
 * step requires the same picked entry, escalation count and bypass
 * count on the taken entry, the same hasRowHit answer per bank, and on
 * a kNil pick a busy_until equal to the earliest readyAt over the
 * queued entries' banks (the channel's pick gate sleeps until then).
 * Every 256 steps the remaining (id, bypassed) sequences must match.
 */
void
driveTwinQueues(std::uint32_t num_banks, std::uint32_t cap,
                std::uint64_t seed, int steps)
{
    std::mt19937_64 rng(seed);
    std::vector<DramBank> banks(num_banks);
    BankedRequestQueue indexed(num_banks);
    std::vector<DramQueueEntry> flat;
    Cycle now = 0;
    ReqId next_id = 1;
    std::uint64_t cap_indexed = 0;
    std::uint64_t cap_flat = 0;
    int gated = 0; // kNil picks with entries queued

    for (int step = 0; step < steps; ++step) {
        now += rng() % 4;

        // Random arrivals: few distinct rows per bank so row hits,
        // bypasses and cap escalations all actually happen.
        const int arrivals = static_cast<int>(rng() % 4);
        for (int i = 0; i < arrivals && flat.size() < 64; ++i) {
            DramQueueEntry e;
            e.id = next_id++;
            e.bank = static_cast<std::uint32_t>(rng() % num_banks);
            e.row = rng() % 4;
            e.app = static_cast<AppId>(rng() % 2);
            e.type = (rng() % 2) != 0 ? ReqType::Data
                                      : ReqType::Translation;
            e.enqueueCycle = now;
            indexed.push(e, banks);
            flat.push_back(e);
        }

        for (std::uint32_t b = 0; b < num_banks; ++b) {
            const bool flat_hit = std::any_of(
                flat.begin(), flat.end(), [&](const DramQueueEntry &e) {
                    return e.bank == b && banks[b].rowValid &&
                           e.row == banks[b].openRow;
                });
            ASSERT_EQ(indexed.hasRowHit(b), flat_hit)
                << "bank " << b << " at step " << step;
        }

        if (step % 256 == 0) {
            std::vector<std::pair<ReqId, std::uint32_t>> in_age, in_flat;
            indexed.forEachAge([&](const DramQueueEntry &e) {
                in_age.emplace_back(e.id, e.bypassed);
            });
            for (const DramQueueEntry &e : flat)
                in_flat.emplace_back(e.id, e.bypassed);
            ASSERT_EQ(in_age, in_flat) << "at step " << step;
        }

        Cycle busy_until = kNeverCycle;
        const std::uint32_t ni = indexed.pick(
            banks, now, cap, &cap_indexed, nullptr, &busy_until);
        const int nf = frFcfsPick(flat, banks, now, cap, &cap_flat);
        ASSERT_EQ(ni == BankedRequestQueue::kNil, nf < 0)
            << "at step " << step;
        ASSERT_EQ(cap_indexed, cap_flat) << "at step " << step;
        if (ni == BankedRequestQueue::kNil) {
            Cycle earliest = kNeverCycle;
            for (const DramQueueEntry &e : flat)
                earliest = std::min(earliest, banks[e.bank].readyAt);
            ASSERT_EQ(busy_until, earliest) << "at step " << step;
            gated += flat.empty() ? 0 : 1;
            continue;
        }

        const DramQueueEntry ei = indexed.take(ni);
        const DramQueueEntry ef = flat[static_cast<std::size_t>(nf)];
        flat.erase(flat.begin() + nf);
        ASSERT_EQ(ei.id, ef.id) << "at step " << step;
        ASSERT_EQ(ei.bypassed, ef.bypassed) << "at step " << step;
        ASSERT_EQ(indexed.size(), flat.size());

        // Service: activate the row on a miss, occupy the bank.
        DramBank &bank = banks[ei.bank];
        const bool row_change =
            !bank.rowValid || bank.openRow != ei.row;
        bank.openRow = ei.row;
        bank.rowValid = true;
        bank.readyAt = now + (row_change ? 30 : 15);
        if (row_change)
            indexed.onRowChange(ei.bank, banks);
    }
    // The busy_until check must have seen a queue held by busy banks.
    EXPECT_GT(gated, 0);
}

TEST(BankedQueueDifferential, RandomTrafficMatchesReference)
{
    driveTwinQueues(8, 16, 0x5eed0001, 4000);
}

TEST(BankedQueueDifferential, TinyStarvationCapEscalates)
{
    // cap=1 and cap=2 force the escalation path constantly; the
    // indexed pick must count escalations exactly like the rescan.
    driveTwinQueues(4, 1, 0x5eed0002, 4000);
    driveTwinQueues(4, 2, 0x5eed0003, 4000);
}

TEST(BankedQueueDifferential, SingleBankDegenerate)
{
    driveTwinQueues(1, 4, 0x5eed0004, 2000);
}

// ---------------------------------------------------------------------
// DataRetryQueue vs a flat reference model
// ---------------------------------------------------------------------

struct ModelEntry
{
    std::uint64_t seq;
    std::uint64_t key;
    Addr vaddr;
};

TEST(DataRetryQueueDifferential, RandomChurnMatchesFlatModel)
{
    std::mt19937_64 rng(0xfeed1234);
    DataRetryQueue q;
    std::vector<ModelEntry> model; // kept in seq (arrival) order
    std::uint64_t next_seq = 0;

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = rng() % 3;
        if (op != 0 || model.empty()) {
            const std::uint64_t key = rng() % 16; // dense key space
            StalledAccess access;
            access.vaddr = rng();
            access.core = 0;
            access.warp = static_cast<WarpId>(rng() % 32);
            q.park(access, /*app=*/0, /*pfn=*/0, next_seq, key);
            model.push_back(ModelEntry{next_seq, key, access.vaddr});
            ++next_seq;
        } else {
            // Remove a random parked entry, located through its key
            // chain (the only lookup path the retry pass uses).
            const std::size_t victim = rng() % model.size();
            const ModelEntry m = model[victim];
            std::uint32_t node = q.chainHead(m.key);
            while (node != DataRetryQueue::kNil &&
                   q.at(node).seq != m.seq)
                node = q.chainNext(node);
            ASSERT_NE(node, DataRetryQueue::kNil);
            ASSERT_EQ(q.at(node).access.vaddr, m.vaddr);
            const bool emptied = q.remove(node);
            model.erase(model.begin() +
                        static_cast<std::ptrdiff_t>(victim));
            bool model_has_key = false;
            for (const ModelEntry &e : model)
                model_has_key |= e.key == m.key;
            ASSERT_EQ(emptied, !model_has_key);
            ASSERT_EQ(q.hasKey(m.key), model_has_key);
        }

        ASSERT_EQ(q.size(), model.size());
        if (step % 256 == 0) {
            // Arrival order and chain contents match the model.
            std::size_t i = 0;
            bool order_ok = true;
            q.forEachSeq([&](const DataRetryQueue::Entry &e) {
                order_ok &= i < model.size() &&
                            e.seq == model[i].seq &&
                            e.key == model[i].key;
                ++i;
            });
            ASSERT_TRUE(order_ok && i == model.size());
            for (std::uint64_t key = 0; key < 16; ++key) {
                std::uint64_t last_seq = 0;
                std::size_t chain_len = 0;
                for (std::uint32_t n = q.chainHead(key);
                     n != DataRetryQueue::kNil; n = q.chainNext(n)) {
                    ASSERT_EQ(q.at(n).key, key);
                    ASSERT_TRUE(chain_len == 0 ||
                                q.at(n).seq > last_seq)
                        << "chain not in arrival order";
                    last_seq = q.at(n).seq;
                    ++chain_len;
                }
                std::size_t model_len = 0;
                for (const ModelEntry &e : model)
                    model_len += e.key == key ? 1 : 0;
                ASSERT_EQ(chain_len, model_len) << "key " << key;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Whole-GPU: the starvation cap escalates in a MASK run
// ---------------------------------------------------------------------

BenchmarkParams
smallBench(const char *name, std::uint32_t cold,
           std::uint32_t run = 2)
{
    BenchmarkParams p;
    p.name = name;
    p.hotPages = 4;
    p.coldPages = cold;
    p.hotFraction = 0.1;
    p.pageRun = run;
    p.streamFraction = 0.6;
    p.blockWarps = 16;
    p.randWindow = 4;
    p.stepAccesses = 24;
    p.computeMean = 4;
    p.memDivergence = 2;
    p.lineReuse = 0.3;
    return p;
}

TEST(SchedReferenceEquivalence, TinyStarvationCapWholeGpu)
{
    GpuConfig cfg;
    cfg.numCores = 4;
    cfg.warpsPerCore = 16;
    cfg.l2 = CacheConfig{256 * 1024, 128, 8, 10, 4, 2, 64};
    cfg.l2Tlb = TlbConfig{128, 8, 10, 2, 64};
    cfg.dram.channels = 2;
    cfg.mask.epochCycles = 2000;
    cfg = applyDesignPoint(cfg, DesignPoint::Mask);
    cfg.dram.starvationCap = 1;
    const BenchmarkParams a = smallBench("a", 5000);
    const BenchmarkParams b = smallBench("b", 100, 8);
    Gpu gpu(cfg, {AppDesc{&a}, AppDesc{&b}});
    gpu.run(3000);
    gpu.resetStats();
    gpu.run(9000);
    // A cap of 1 must actually escalate, or the cap path went untested.
    EXPECT_GT(gpu.collect().dram.capEscalations, 0u);
}

// ---------------------------------------------------------------------
// Work-counter gate
// ---------------------------------------------------------------------

/**
 * Deterministic work of one fixed case. Wall-clock throughput depends
 * on the host; these counters are exact functions of the simulated
 * workload, so an unchanged simulator reproduces them on any host.
 */
struct WorkCounters
{
    std::string name;
    std::uint64_t cycles = 0;
    std::uint64_t requests = 0;
    std::uint64_t schedPicks = 0;
    std::uint64_t schedBanksScanned = 0;
    std::uint64_t dataRetryProbes = 0;
    std::uint64_t tlbRetryProbes = 0;

    WorkCounters &
    add(const GpuStats &s)
    {
        cycles += s.cycles;
        requests += s.requests;
        schedPicks += s.dramSchedPicks;
        schedBanksScanned += s.dramSchedBanksScanned;
        dataRetryProbes += s.dataRetryProbes;
        tlbRetryProbes += s.tlbRetryProbes;
        return *this;
    }
};

/**
 * Run the six cases on maxwell with the first workload pair and the
 * fast bench windows (6000 warmup + 20000 measured cycles), serially:
 * the first app alone and the pair under SharedTLB, MASK and Ideal,
 * MASK again checkpointing every measure/8 cycles, and a cache-off
 * MASK sweep over a 4-point measure grid that shares one long warmup,
 * summed over the grid.
 */
std::vector<WorkCounters>
runWorkCases()
{
    RunOptions options;
    options.warmup = 6000;
    options.measure = 20000;
    Evaluator eval(options);
    const GpuConfig arch = archByName("maxwell");
    const WorkloadPair pair = workloadPairs().front();
    const std::vector<std::string> names = {pair.first, pair.second};

    std::vector<WorkCounters> out;
    const auto shared = [&](const char *name, DesignPoint point,
                            const std::vector<std::string> &benches) {
        const GpuStats stats = eval.runShared(arch, point, benches);
        out.push_back(WorkCounters{name}.add(stats));
        return stats;
    };
    shared("alone", DesignPoint::SharedTlb, {pair.first});
    shared("pair-sharedtlb", DesignPoint::SharedTlb, names);
    shared("pair-mask", DesignPoint::Mask, names);
    shared("pair-ideal", DesignPoint::Ideal, names);
    ::setenv("MASK_CKPT_INTERVAL_CYCLES",
             std::to_string(options.measure / 8).c_str(), 1);
    // A private, empty directory: a checkpoint left by an earlier or
    // concurrent run would make this run resume mid-window.
    const std::filesystem::path ckpt_dir =
        std::filesystem::path(::testing::TempDir()) /
        ("sched_work_ckpt_" + std::to_string(::getpid()));
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    ::setenv("MASK_CKPT_DIR", ckpt_dir.c_str(), 1);
    EXPECT_GT(shared("pair-mask-ckpt", DesignPoint::Mask, names).ckptWrites,
              0u);
    ::unsetenv("MASK_CKPT_INTERVAL_CYCLES");
    ::unsetenv("MASK_CKPT_DIR");
    std::filesystem::remove_all(ckpt_dir);

    RunOptions grid;
    grid.warmup = options.measure;
    grid.measure = options.measure;
    SweepRunner sweep(grid, 1);
    sweep.setWarmPolicy(WarmPolicy{});
    std::vector<std::size_t> ids;
    for (const Cycle m : {options.measure / 4, options.measure / 2,
                          3 * options.measure / 4, options.measure}) {
        RunOptions job_options = grid;
        job_options.measure = m;
        ids.push_back(sweep.submit({arch, DesignPoint::Mask, names,
                                    SweepMode::SharedOnly, job_options}));
    }
    sweep.run();
    out.push_back(WorkCounters{"warm-sweep"});
    for (const std::size_t id : ids)
        out.back().add(sweep.result(id).stats);
    return out;
}

TEST(SchedWork, CountersWithinBaseline)
{
    // cycles and requests are simulation results: any change is a
    // behaviour change for the determinism gate, so they match
    // exactly. The work counters may shrink (re-pin them to lock the
    // gain in) but not grow past 5%, nor by more than 16 for counters
    // near zero.
    const std::vector<WorkCounters> baseline = {
        {"alone", 20000, 92736, 59160, 309298, 2694, 7781},
        {"pair-sharedtlb", 20000, 92526, 58700, 299275, 13739, 7900},
        {"pair-mask", 20000, 106710, 88916, 271184, 48115, 0},
        {"pair-ideal", 20000, 90080, 60701, 349247, 66685, 0},
        {"pair-mask-ckpt", 20000, 106710, 88916, 271184, 48115, 0},
        {"warm-sweep", 50000, 270686, 228318, 678359, 122786, 0},
    };
    const std::vector<WorkCounters> cur = runWorkCases();
    ASSERT_EQ(cur.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        const WorkCounters &b = baseline[i];
        const WorkCounters &c = cur[i];
        SCOPED_TRACE("case " + b.name);
        ASSERT_EQ(c.name, b.name);
        EXPECT_EQ(c.cycles, b.cycles) << "simulation result changed";
        EXPECT_EQ(c.requests, b.requests) << "simulation result changed";
        const auto within = [](const char *what, std::uint64_t now,
                               std::uint64_t ref) {
            const double bound = std::max(static_cast<double>(ref) * 1.05,
                                          static_cast<double>(ref + 16));
            EXPECT_LE(static_cast<double>(now), bound)
                << what << " grew: " << now << " vs baseline " << ref;
        };
        within("sched_picks", c.schedPicks, b.schedPicks);
        within("sched_banks_scanned", c.schedBanksScanned,
               b.schedBanksScanned);
        within("data_retry_probes", c.dataRetryProbes, b.dataRetryProbes);
        within("tlb_retry_probes", c.tlbRetryProbes, b.tlbRetryProbes);
    }
}

} // namespace
} // namespace mask

/**
 * @file
 * Unit and property tests for the DRAM model: address mapping,
 * FR-FCFS, bank timing, the MASK three-queue scheduler, and
 * exactly-once service.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/dram.hh"
#include "mask/dram_sched.hh"

namespace mask {
namespace {

DramConfig
testDram()
{
    DramConfig cfg;
    cfg.channels = 4;
    cfg.banksPerChannel = 4;
    return cfg;
}

MemRequest
dataReq(Addr paddr, AppId app = 0)
{
    MemRequest req;
    req.paddr = paddr;
    req.app = app;
    req.type = ReqType::Data;
    return req;
}

MemRequest
transReq(Addr paddr, AppId app = 0)
{
    MemRequest req = dataReq(paddr, app);
    req.type = ReqType::Translation;
    req.pwLevel = 4;
    return req;
}

// ---------------------------------------------------------------------
// AddressMapper
// ---------------------------------------------------------------------

TEST(AddressMapper, RowsAreContiguous)
{
    const DramConfig cfg = testDram();
    AddressMapper mapper(cfg, 7);
    // All lines of one 2KB row map to the same (channel, bank, row).
    const DramCoord first = mapper.map(0, 0);
    for (Addr a = 0; a < cfg.rowBytes; a += 128) {
        const DramCoord coord = mapper.map(a, 0);
        EXPECT_EQ(coord.channel, first.channel);
        EXPECT_EQ(coord.bank, first.bank);
        EXPECT_EQ(coord.row, first.row);
    }
    // The next row rotates to another channel.
    EXPECT_NE(mapper.map(cfg.rowBytes, 0).channel, first.channel);
}

TEST(AddressMapper, CoversAllChannelsAndBanks)
{
    const DramConfig cfg = testDram();
    AddressMapper mapper(cfg, 7);
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (Addr row = 0; row < 64; ++row) {
        const DramCoord coord = mapper.map(row * cfg.rowBytes, 0);
        seen.insert({coord.channel, coord.bank});
    }
    EXPECT_EQ(seen.size(),
              std::size_t{cfg.channels} * cfg.banksPerChannel);
}

TEST(AddressMapper, PartitionConfinesAppsToChannelSlices)
{
    const DramConfig cfg = testDram();
    AddressMapper mapper(cfg, 7, true, 2);
    for (Addr row = 0; row < 256; ++row) {
        const Addr addr = row * cfg.rowBytes;
        EXPECT_LT(mapper.map(addr, 0).channel, 2u);
        EXPECT_GE(mapper.map(addr, 1).channel, 2u);
    }
}

// ---------------------------------------------------------------------
// FR-FCFS pick
// ---------------------------------------------------------------------

DramQueueEntry
entry(ReqId id, std::uint32_t bank, std::uint64_t row, Cycle enq = 0)
{
    DramQueueEntry e;
    e.id = id;
    e.bank = bank;
    e.row = row;
    e.enqueueCycle = enq;
    return e;
}

TEST(FrFcfs, PrefersOldestRowHit)
{
    std::vector<DramBank> banks(2);
    banks[0].rowValid = true;
    banks[0].openRow = 7;
    std::vector<DramQueueEntry> queue = {
        entry(0, 0, 3), // older, conflict
        entry(1, 0, 7), // row hit
    };
    EXPECT_EQ(frFcfsPick(queue, banks, 0, 16), 1);
}

TEST(FrFcfs, FallsBackToOldest)
{
    std::vector<DramBank> banks(2);
    std::vector<DramQueueEntry> queue = {entry(0, 0, 3),
                                         entry(1, 1, 9)};
    EXPECT_EQ(frFcfsPick(queue, banks, 0, 16), 0);
}

TEST(FrFcfs, SkipsBusyBanks)
{
    std::vector<DramBank> banks(2);
    banks[0].readyAt = 100;
    std::vector<DramQueueEntry> queue = {entry(0, 0, 3),
                                         entry(1, 1, 9)};
    EXPECT_EQ(frFcfsPick(queue, banks, 50, 16), 1);
    EXPECT_EQ(frFcfsPick(queue, banks, 100, 16), 0);
}

TEST(FrFcfs, NothingServiceable)
{
    std::vector<DramBank> banks(1);
    banks[0].readyAt = 10;
    std::vector<DramQueueEntry> queue = {entry(0, 0, 3)};
    EXPECT_EQ(frFcfsPick(queue, banks, 5, 16), -1);
}

TEST(FrFcfs, StarvationCapForcesOldest)
{
    std::vector<DramBank> banks(1);
    banks[0].rowValid = true;
    banks[0].openRow = 7;
    std::vector<DramQueueEntry> queue = {
        entry(0, 0, 3), // conflict, keeps getting bypassed
        entry(1, 0, 7), // row hits
    };
    int forced = -1;
    for (int i = 0; i < 20; ++i) {
        const int pick = frFcfsPick(queue, banks, 0, 4);
        if (pick == 0) {
            forced = i;
            break;
        }
    }
    EXPECT_GE(forced, 4);
    EXPECT_NE(forced, -1) << "old conflict starved forever";
}

TEST(FrFcfs, StarvationCapEscalationsAreCounted)
{
    // Adversarial stream: one old row-conflict request parked behind
    // a steady supply of younger row hits. The cap must eventually
    // force the old request and each forced pick must be counted.
    DramConfig cfg = testDram();
    cfg.channels = 1;
    cfg.banksPerChannel = 1;
    cfg.queueEntries = 64;
    cfg.starvationCap = 4;
    RequestPool pool;
    Dram dram(cfg, MaskConfig{}, 7, DramSchedMode::FrFcfs, 1, false);

    const Addr row_hit_base = 0;              // row 0
    const Addr victim_addr = Addr{cfg.rowBytes}; // row 1, same bank

    Cycle t = 0;
    int in_flight = 0;
    auto issue = [&](Addr addr) {
        const ReqId id = pool.alloc();
        pool[id] = dataReq(addr);
        ASSERT_TRUE(dram.canEnqueue(pool[id]));
        dram.enqueue(id, pool[id], t);
        ++in_flight;
    };

    issue(row_hit_base); // opens row 0
    issue(victim_addr);  // conflict: parked behind the hit stream
    const ReqId victim = 1;

    bool victim_done = false;
    Addr next_line = 128;
    for (; t < 4000 && !victim_done; ++t) {
        // Keep a steady supply of row-0 hits queued (deep enough
        // that service-to-completion latency never drains the queue).
        while (in_flight < 10) {
            issue(row_hit_base + next_line);
            next_line = (next_line + 128) % cfg.rowBytes;
            if (next_line == 0)
                next_line = 128;
        }
        dram.tick(t);
        auto &done = dram.completed();
        while (!done.empty()) {
            const ReqId id = done.front();
            done.pop_front();
            victim_done |= (id == victim);
            --in_flight;
        }
    }

    EXPECT_TRUE(victim_done)
        << "starvation cap never forced the old conflict";
    EXPECT_GT(dram.aggregateStats().capEscalations, 0u);
}

// ---------------------------------------------------------------------
// DramChannel / Dram timing and service
// ---------------------------------------------------------------------

TEST(DramChannel, RowHitFasterThanConflict)
{
    const DramConfig cfg = testDram();
    RequestPool pool;
    Dram dram(cfg, MaskConfig{}, 7, DramSchedMode::FrFcfs, 1, false);

    // First access opens a row (closed bank: tRcd + tCl + tBurst).
    const ReqId a = pool.alloc();
    pool[a] = dataReq(0);
    dram.enqueue(a, pool[a], 0);
    Cycle t = 0;
    while (dram.completed().empty())
        dram.tick(t++);
    const Cycle first = t;
    dram.completed().clear();

    // Same row again: tCl + tBurst only.
    const ReqId b = pool.alloc();
    pool[b] = dataReq(128);
    dram.enqueue(b, pool[b], t);
    const Cycle start = t;
    while (dram.completed().empty())
        dram.tick(t++);
    const Cycle hit_latency = t - start;
    dram.completed().clear();

    // A far row in the same bank: precharge + activate, slower.
    const ReqId c = pool.alloc();
    const Addr conflict_addr =
        Addr{cfg.rowBytes} * cfg.channels * cfg.banksPerChannel * 8;
    ASSERT_EQ(dram.mapper().map(conflict_addr, 0).channel,
              dram.mapper().map(0, 0).channel);
    ASSERT_EQ(dram.mapper().map(conflict_addr, 0).bank,
              dram.mapper().map(0, 0).bank);
    pool[c] = dataReq(conflict_addr);
    dram.enqueue(c, pool[c], t);
    const Cycle start2 = t;
    while (dram.completed().empty())
        dram.tick(t++);
    const Cycle conflict_latency = t - start2;

    EXPECT_LT(hit_latency, first - 0);
    EXPECT_GT(conflict_latency, hit_latency);
}

TEST(Dram, EveryRequestServicedExactlyOnce)
{
    const DramConfig cfg = testDram();
    RequestPool pool;
    Dram dram(cfg, MaskConfig{}, 7, DramSchedMode::FrFcfs, 1, false);
    Rng rng(77);

    std::set<ReqId> outstanding;
    std::set<ReqId> done;
    Cycle t = 0;
    int issued = 0;
    while (issued < 500 || !outstanding.empty()) {
        if (issued < 500) {
            const ReqId id = pool.alloc();
            pool[id] = dataReq(rng.below(1 << 22) << 7);
            if (dram.canEnqueue(pool[id])) {
                dram.enqueue(id, pool[id], t);
                outstanding.insert(id);
                ++issued;
            } else {
                pool.release(id);
            }
        }
        dram.tick(t++);
        auto &completed = dram.completed();
        while (!completed.empty()) {
            const ReqId id = completed.front();
            completed.pop_front();
            EXPECT_TRUE(outstanding.count(id));
            EXPECT_FALSE(done.count(id)) << "double service";
            outstanding.erase(id);
            done.insert(id);
        }
        ASSERT_LT(t, 2000000u) << "DRAM stopped making progress";
    }
    EXPECT_EQ(done.size(), 500u);

    const DramChannelStats stats = dram.aggregateStats();
    EXPECT_EQ(stats.serviced[0], 500u);
    EXPECT_EQ(stats.serviced[1], 0u);
    EXPECT_EQ(stats.rowHits + stats.rowMisses + stats.rowConflicts,
              500u);
}

TEST(DramChannel, GoldenQueuePrioritizesTranslations)
{
    DramConfig cfg = testDram();
    MaskConfig mask_cfg;
    mask_cfg.goldenMaxDelay = 0; // strict priority for this test
    RequestPool pool;
    Dram dram(cfg, mask_cfg, 7, DramSchedMode::MaskQueues, 2, false);

    // Fill the normal queue with many data requests, then add one
    // translation request; the translation must finish before most
    // of the backlog despite arriving last.
    std::vector<ReqId> data;
    for (int i = 0; i < 50; ++i) {
        const ReqId id = pool.alloc();
        pool[id] = dataReq(Addr{0} + 128 * i, 1);
        dram.enqueue(id, pool[id], 0);
        data.push_back(id);
    }
    const ReqId trans = pool.alloc();
    pool[trans] = transReq(1 << 22, 0);
    ASSERT_TRUE(dram.canEnqueue(pool[trans]));
    dram.enqueue(trans, pool[trans], 0);

    Cycle t = 0;
    int data_before_translation = 0;
    bool translation_done = false;
    while (!translation_done && t < 100000) {
        dram.tick(t++);
        auto &completed = dram.completed();
        while (!completed.empty()) {
            const ReqId id = completed.front();
            completed.pop_front();
            if (id == trans)
                translation_done = true;
            else if (!translation_done)
                ++data_before_translation;
        }
    }
    ASSERT_TRUE(translation_done);
    EXPECT_LT(data_before_translation, 10)
        << "golden queue failed to prioritize the walk read";
}

TEST(DramChannel, SilverQuotaRoutesOnlyCurrentApp)
{
    DramConfig cfg = testDram();
    cfg.channels = 1;
    MaskConfig mask_cfg;
    RequestPool pool;
    DramChannel channel(cfg, mask_cfg, DramSchedMode::MaskQueues, 2);

    EXPECT_EQ(channel.silverApp(), 0);
    // App 0 data goes to silver until the quota; app 1 data to normal.
    for (int i = 0; i < 5; ++i) {
        const ReqId id = pool.alloc();
        pool[id] = dataReq(128 * i, 0);
        channel.enqueue(id, pool[id],
                        DramCoord{0, 0, static_cast<std::uint64_t>(i)},
                        0);
    }
    EXPECT_EQ(channel.silverSize(), 5u);
    const ReqId other = pool.alloc();
    pool[other] = dataReq(0, 1);
    channel.enqueue(other, pool[other], DramCoord{0, 1, 0}, 0);
    EXPECT_EQ(channel.normalSize(), 1u);
}

TEST(DramChannel, EpochRotatesSilverTurn)
{
    DramConfig cfg = testDram();
    MaskConfig mask_cfg;
    RequestPool pool;
    DramChannel channel(cfg, mask_cfg, DramSchedMode::MaskQueues, 3);
    EXPECT_EQ(channel.silverApp(), 0);
    channel.onEpoch();
    EXPECT_EQ(channel.silverApp(), 1);
    channel.onEpoch();
    EXPECT_EQ(channel.silverApp(), 2);
    channel.onEpoch();
    EXPECT_EQ(channel.silverApp(), 0);
}

TEST(DramChannel, TranslationQueueCapacity)
{
    DramConfig cfg = testDram();
    cfg.channels = 1;
    MaskConfig mask_cfg;
    mask_cfg.goldenQueueEntries = 2;
    RequestPool pool;
    DramChannel channel(cfg, mask_cfg, DramSchedMode::MaskQueues, 1);

    for (int i = 0; i < 2; ++i) {
        const ReqId id = pool.alloc();
        pool[id] = transReq(128 * i);
        ASSERT_TRUE(channel.canEnqueue(pool[id]));
        channel.enqueue(id, pool[id], DramCoord{0, 0, 0}, 0);
    }
    const ReqId id = pool.alloc();
    pool[id] = transReq(0);
    EXPECT_FALSE(channel.canEnqueue(pool[id]));
    // Data still accepted.
    pool[id].type = ReqType::Data;
    EXPECT_TRUE(channel.canEnqueue(pool[id]));
}

TEST(Dram, LatencyStatsSplitByType)
{
    const DramConfig cfg = testDram();
    RequestPool pool;
    Dram dram(cfg, MaskConfig{}, 7, DramSchedMode::FrFcfs, 1, false);
    const ReqId d = pool.alloc();
    pool[d] = dataReq(0);
    dram.enqueue(d, pool[d], 0);
    const ReqId x = pool.alloc();
    pool[x] = transReq(1 << 20);
    dram.enqueue(x, pool[x], 0);
    for (Cycle t = 0; t < 200; ++t)
        dram.tick(t);
    const DramChannelStats stats = dram.aggregateStats();
    EXPECT_EQ(stats.latency[0].count, 1u);
    EXPECT_EQ(stats.latency[1].count, 1u);
    EXPECT_GT(stats.busBusy[0], 0u);
    EXPECT_GT(stats.busBusy[1], 0u);
}

} // namespace
} // namespace mask

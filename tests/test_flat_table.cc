/** Unit tests for the open-addressed FlatTable. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.hh"
#include "common/rng.hh"

using namespace mask;

TEST(FlatTable, InsertFindErase)
{
    FlatTable<int> table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(42), nullptr);

    table.insert(42, 7);
    ASSERT_NE(table.find(42), nullptr);
    EXPECT_EQ(*table.find(42), 7);
    EXPECT_TRUE(table.contains(42));
    EXPECT_EQ(table.size(), 1u);

    EXPECT_TRUE(table.erase(42));
    EXPECT_FALSE(table.contains(42));
    EXPECT_FALSE(table.erase(42));
    EXPECT_TRUE(table.empty());
}

TEST(FlatTable, KeyZeroIsAValidKey)
{
    FlatTable<int> table;
    table.insert(0, 99);
    ASSERT_NE(table.find(0), nullptr);
    EXPECT_EQ(*table.find(0), 99);
    EXPECT_TRUE(table.erase(0));
    EXPECT_FALSE(table.contains(0));
}

TEST(FlatTable, TakeMovesValueOut)
{
    FlatTable<std::vector<int>> table;
    table.insert(5, std::vector<int>{1, 2, 3});
    std::vector<int> v;
    ASSERT_TRUE(table.take(5, v));
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(table.take(5, v)) << "absent key";
    EXPECT_FALSE(table.contains(5));
    EXPECT_EQ(table.size(), 0u);
}

TEST(FlatTable, GrowsPastInitialCapacityWithoutLosingEntries)
{
    FlatTable<std::uint64_t> table(4);
    for (std::uint64_t k = 1; k <= 1000; ++k)
        table.insert(k, k * k);
    EXPECT_EQ(table.size(), 1000u);
    for (std::uint64_t k = 1; k <= 1000; ++k) {
        ASSERT_NE(table.find(k), nullptr) << "key " << k;
        EXPECT_EQ(*table.find(k), k * k);
    }
}

TEST(FlatTable, EraseChurnDoesNotBreakProbeChains)
{
    FlatTable<int> table(8);
    // Insert / erase / reinsert churn at fixed size, the MSHR usage
    // pattern: backward-shift deletion must keep every surviving
    // entry reachable, never corrupt lookups.
    for (int round = 0; round < 200; ++round) {
        const std::uint64_t base =
            static_cast<std::uint64_t>(round) * 13;
        for (std::uint64_t k = 0; k < 8; ++k)
            table.insert(base + k, static_cast<int>(k));
        for (std::uint64_t k = 0; k < 8; ++k) {
            ASSERT_NE(table.find(base + k), nullptr);
            EXPECT_TRUE(table.erase(base + k));
        }
    }
    EXPECT_TRUE(table.empty());
}

TEST(FlatTable, MatchesUnorderedMapUnderRandomChurn)
{
    FlatTable<std::uint64_t> table;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    Rng rng(12345);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.below(512);
        const auto it = reference.find(key);
        if (it == reference.end()) {
            table.insert(key, key + 1);
            reference.emplace(key, key + 1);
        } else {
            ASSERT_NE(table.find(key), nullptr);
            EXPECT_EQ(*table.find(key), it->second);
            EXPECT_TRUE(table.erase(key));
            reference.erase(it);
        }
        ASSERT_EQ(table.size(), reference.size());
    }
    for (const auto &[key, value] : reference) {
        ASSERT_NE(table.find(key), nullptr);
        EXPECT_EQ(*table.find(key), value);
    }
}

TEST(FlatTable, DifferentialChurnAcrossWrapAroundWithTake)
{
    // Differential test against std::unordered_map with the key space
    // constrained so every home slot lands in the top three indices of
    // a fixed-capacity table: probe chains and backward-shift
    // deletions are forced to wrap from the top of the slot array back
    // to index 0, the trickiest path in removeAt(). Insertions are
    // capped below the growth threshold so the capacity (and with it
    // the engineered clustering) never changes mid-test.
    FlatTable<std::string> table(4);
    const std::size_t cap = table.capacity();
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; keys.size() < 24; ++k) {
        if ((mixHash64(k) & (cap - 1)) >= cap - 3)
            keys.push_back(k);
    }

    std::unordered_map<std::uint64_t, std::string> reference;
    Rng rng(0xC0FFEE);
    std::uint64_t generation = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t key = keys[rng.below(keys.size())];
        const bool present = reference.count(key) != 0;
        switch (rng.below(3)) {
          case 0: // insert (only when absent and below growth load)
            if (!present && reference.size() + 2 < (cap * 3) / 4) {
                const std::string value =
                    std::to_string(key) + "#" +
                    std::to_string(++generation);
                table.insert(key, value);
                reference.emplace(key, value);
            }
            break;
          case 1: // erase, present or not
            EXPECT_EQ(table.erase(key), present);
            reference.erase(key);
            break;
          case 2: { // take, present or not
            std::string got;
            EXPECT_EQ(table.take(key, got), present);
            if (present) {
                EXPECT_EQ(got, reference.at(key));
                reference.erase(key);
            }
            break;
          }
        }
        const std::string *found = table.find(key);
        if (reference.count(key) != 0) {
            ASSERT_NE(found, nullptr);
            EXPECT_EQ(*found, reference.at(key));
        } else {
            EXPECT_EQ(found, nullptr);
        }
        ASSERT_EQ(table.size(), reference.size());
        ASSERT_EQ(table.capacity(), cap) << "table grew unexpectedly";

        if (i % 1000 == 999) {
            // Full-content sweep: forEach must visit exactly the
            // reference's entries, each once, with current values.
            std::unordered_map<std::uint64_t, std::string> seen;
            table.forEach(
                [&](std::uint64_t k, const std::string &value) {
                    EXPECT_TRUE(seen.emplace(k, value).second)
                        << "key visited twice: " << k;
                });
            ASSERT_EQ(seen, reference);
        }
    }
}

TEST(FlatTable, ForEachVisitsEveryLiveEntryOnce)
{
    FlatTable<int> table;
    for (std::uint64_t k = 10; k < 20; ++k)
        table.insert(k, 1);
    table.erase(13);
    table.erase(17);

    std::uint64_t visited = 0;
    std::uint64_t key_sum = 0;
    table.forEach([&](std::uint64_t key, const int &value) {
        ++visited;
        key_sum += key;
        EXPECT_EQ(value, 1);
    });
    EXPECT_EQ(visited, 8u);
    // 10+..+19 minus 13 and 17.
    EXPECT_EQ(key_sum, 145u - 13u - 17u);
}

TEST(FlatTable, ClearResetsToEmpty)
{
    FlatTable<int> table;
    for (std::uint64_t k = 0; k < 100; ++k)
        table.insert(k, 1);
    table.clear();
    EXPECT_TRUE(table.empty());
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(table.contains(k));
    table.insert(3, 4);
    EXPECT_EQ(*table.find(3), 4);
}

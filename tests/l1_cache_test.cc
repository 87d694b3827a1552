/**
 * @file
 * Unit tests for the per-SM L1 data cache.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/l1_cache.hh"

namespace equalizer
{
namespace
{

class L1CacheTest : public ::testing::Test
{
  protected:
    L1CacheTest()
        : queue(cfg.smInjectQueueCap), energy(PowerConfig::gtx480()),
          l1(cfg, /*sm=*/0, queue, energy)
    {
    }

    /** Fill @p line; returns the warps it woke, in merge order. */
    std::vector<WarpId>
    fill(Addr line)
    {
        std::vector<WarpId> out;
        l1.fill(line, [&out](WarpId w) { out.push_back(w); });
        return out;
    }

    MemConfig cfg = MemConfig::gtx480();
    FlaggedQueue<MemAccess> queue;
    EnergyModel energy;
    L1Cache l1;
};

TEST_F(L1CacheTest, ColdMissIssuesRequest)
{
    EXPECT_EQ(l1.access(0, 0x1000, false), L1Cache::Result::MissIssued);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.front().lineAddr, 0x1000u);
    EXPECT_FALSE(queue.front().write);
    EXPECT_EQ(l1.misses(), 1u);
}

TEST_F(L1CacheTest, SecondaryMissMergesWithoutTraffic)
{
    l1.access(0, 0x1000, false);
    EXPECT_EQ(l1.access(1, 0x1000, false), L1Cache::Result::MissMerged);
    EXPECT_EQ(queue.size(), 1u); // no extra downstream request
    EXPECT_EQ(l1.misses(), 2u);
}

TEST_F(L1CacheTest, FillWakesAllWaitersAndCachesLine)
{
    l1.access(0, 0x1000, false);
    l1.access(1, 0x1000, false);
    const auto waiters = fill(0x1000);
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0], 0);
    EXPECT_EQ(waiters[1], 1);
    EXPECT_EQ(l1.access(2, 0x1000, false), L1Cache::Result::Hit);
    EXPECT_EQ(l1.hits(), 1u);
}

TEST_F(L1CacheTest, BlockedWhenMissQueueFull)
{
    // Fill the downstream queue with distinct lines.
    Addr a = 0;
    while (!queue.full()) {
        l1.access(0, a, false);
        a += 128;
    }
    EXPECT_EQ(l1.access(0, a, false), L1Cache::Result::Blocked);
    EXPECT_GT(l1.blocked(), 0u);
}

TEST_F(L1CacheTest, BlockedWhenMshrsExhausted)
{
    // MSHR capacity is smaller than what the queue alone would allow.
    MemConfig small = cfg;
    small.l1MshrEntries = 2;
    FlaggedQueue<MemAccess> big_queue(64);
    L1Cache tiny(small, 0, big_queue, energy);
    EXPECT_EQ(tiny.access(0, 0 * 128, false), L1Cache::Result::MissIssued);
    EXPECT_EQ(tiny.access(0, 1 * 128, false), L1Cache::Result::MissIssued);
    EXPECT_EQ(tiny.access(0, 2 * 128, false), L1Cache::Result::Blocked);
}

TEST_F(L1CacheTest, MergeListFullBlocks)
{
    MemConfig small = cfg;
    small.l1MaxMerges = 2;
    FlaggedQueue<MemAccess> big_queue(64);
    L1Cache tiny(small, 0, big_queue, energy);
    tiny.access(0, 0x1000, false);
    tiny.access(1, 0x1000, false);
    EXPECT_EQ(tiny.access(2, 0x1000, false), L1Cache::Result::Blocked);
}

TEST_F(L1CacheTest, StoresAreWriteThroughNoAllocate)
{
    EXPECT_EQ(l1.access(0, 0x2000, true), L1Cache::Result::Hit);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_TRUE(queue.front().write);
    // The store did not allocate: a subsequent load misses.
    EXPECT_EQ(l1.access(0, 0x2000, false), L1Cache::Result::MissIssued);
    EXPECT_EQ(l1.writes(), 1u);
}

TEST_F(L1CacheTest, StoreBlockedOnlyByQueueSpace)
{
    while (!queue.full())
        l1.access(0, 0x40000, true);
    EXPECT_EQ(l1.access(0, 0x40000, true), L1Cache::Result::Blocked);
}

TEST_F(L1CacheTest, EvictionHookSeesVictims)
{
    std::vector<std::pair<Addr, int>> evictions;
    l1.setEvictionHook([&evictions](Addr a, int owner) {
        evictions.emplace_back(a, owner);
    });
    // Fill one set (4 ways; same set every 64 lines): 5 lines to set 0.
    for (int i = 0; i < 5; ++i) {
        const Addr a = static_cast<Addr>(i) * 64 * 128;
        l1.access(static_cast<WarpId>(i), a, false);
        fill(a);
    }
    ASSERT_EQ(evictions.size(), 1u);
    EXPECT_EQ(evictions[0].first, 0u);
    EXPECT_EQ(evictions[0].second, 0); // owner = requesting warp
}

TEST_F(L1CacheTest, MissHookFiresOnEveryLoadMiss)
{
    int miss_count = 0;
    l1.setMissHook([&miss_count](WarpId, Addr) { ++miss_count; });
    l1.access(0, 0x1000, false); // primary
    l1.access(1, 0x1000, false); // merged
    fill(0x1000);
    l1.access(0, 0x1000, false); // hit: no callback
    EXPECT_EQ(miss_count, 2);
}

TEST_F(L1CacheTest, FlushDropsLinesAndMshrs)
{
    l1.access(0, 0x1000, false);
    fill(0x1000);
    l1.flush();
    EXPECT_EQ(l1.access(0, 0x1000, false), L1Cache::Result::MissIssued);
    EXPECT_EQ(l1.mshrOutstanding(), 1);
}

TEST_F(L1CacheTest, HitRateComputation)
{
    l1.access(0, 0x1000, false);
    fill(0x1000);
    l1.access(0, 0x1000, false);
    l1.access(0, 0x1000, false);
    EXPECT_NEAR(l1.hitRate(), 2.0 / 3.0, 1e-9);
}

TEST_F(L1CacheTest, EnergyEventsRecorded)
{
    const auto before = energy.eventCount(EnergyEvent::L1Access);
    l1.access(0, 0x1000, false);
    l1.access(0, 0x2000, true);
    EXPECT_EQ(energy.eventCount(EnergyEvent::L1Access), before + 2);
}

} // namespace
} // namespace equalizer

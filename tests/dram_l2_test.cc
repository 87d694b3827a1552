/**
 * @file
 * Unit tests for the DRAM partition and the L2 partition.
 */

#include <gtest/gtest.h>

#include "mem/l2_cache.hh"

namespace equalizer
{
namespace
{

MemAccess
makeLoad(Addr line_addr, SmId sm = 0, WarpId warp = 0)
{
    MemAccess a;
    a.lineAddr = line_addr;
    a.sm = sm;
    a.warp = warp;
    return a;
}

/** Address of the i-th line owned by partition 0 (lines stripe). */
Addr
partition0Line(const MemConfig &cfg, int i)
{
    return static_cast<Addr>(i) * static_cast<Addr>(cfg.numPartitions) *
           lineBytes;
}

// ------------------------------------------------------------------ DRAM

class DramTest : public ::testing::Test
{
  protected:
    DramTest() : energy(PowerConfig::gtx480()), dram(cfg, 0, energy) {}

    MemConfig cfg = MemConfig::gtx480();
    EnergyModel energy;
    DramPartition dram;

    /** Tick until a completion pops or max cycles pass. */
    std::optional<MemAccess>
    runUntilComplete(Cycle &now, Cycle max = 1000)
    {
        for (Cycle i = 0; i < max; ++i) {
            if (auto done = dram.tick(now))
                return done;
            ++now;
        }
        return std::nullopt;
    }
};

TEST_F(DramTest, FirstAccessIsRowMiss)
{
    Cycle now = 0;
    dram.submit(makeLoad(partition0Line(cfg, 0)), now);
    auto done = runUntilComplete(now);
    ASSERT_TRUE(done.has_value());
    // A row miss occupies the partition for dramRowMissCycles.
    EXPECT_EQ(now, cfg.dramRowMissCycles);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(energy.eventCount(EnergyEvent::DramActivate), 1u);
}

TEST_F(DramTest, SameRowBackToBackIsRowHit)
{
    Cycle now = 0;
    dram.submit(makeLoad(partition0Line(cfg, 0)), now);
    dram.submit(makeLoad(partition0Line(cfg, 1)), now); // same row
    runUntilComplete(now);
    const Cycle first_done = now;
    runUntilComplete(now);
    EXPECT_EQ(now - first_done, cfg.dramRowHitCycles);
    EXPECT_EQ(dram.rowHits(), 1u);
}

TEST_F(DramTest, FrFcfsPrefersRowHitOverOlder)
{
    Cycle now = 0;
    // Open row 0 by serving one access.
    dram.submit(makeLoad(partition0Line(cfg, 0)), now);
    runUntilComplete(now);
    ++now;

    // Queue: first an access to a *different* row, then one to the open
    // row. FR-FCFS should service the row hit first.
    const Addr other_row =
        partition0Line(cfg, cfg.linesPerRow * cfg.banksPerPartition);
    const Addr open_row = partition0Line(cfg, 1);
    dram.submit(makeLoad(other_row, 0, 10), now);
    dram.submit(makeLoad(open_row, 0, 20), now);
    auto first = runUntilComplete(now);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->warp, 20);
}

TEST_F(DramTest, QueueCapacityEnforced)
{
    for (std::size_t i = 0; i < cfg.dramQueueCap; ++i)
        EXPECT_TRUE(dram.submit(makeLoad(partition0Line(cfg, (int)i)), 0));
    EXPECT_TRUE(dram.full());
    EXPECT_FALSE(dram.submit(makeLoad(partition0Line(cfg, 99)), 0));
}

TEST_F(DramTest, AccessEnergyPerBurst)
{
    Cycle now = 0;
    dram.submit(makeLoad(partition0Line(cfg, 0)), now);
    dram.submit(makeLoad(partition0Line(cfg, 1)), now);
    runUntilComplete(now);
    runUntilComplete(now);
    EXPECT_EQ(energy.eventCount(EnergyEvent::DramAccess), 2u);
}

TEST_F(DramTest, BandwidthMatchesServiceInterval)
{
    // Saturate with same-row traffic; steady state is one access per
    // dramRowHitCycles.
    Cycle now = 0;
    int completed = 0;
    int submitted = 0;
    const Cycle horizon = 400;
    while (now < horizon) {
        while (!dram.full())
            dram.submit(makeLoad(partition0Line(cfg, submitted++ % 8)), now);
        if (dram.tick(now))
            ++completed;
        ++now;
    }
    const double per_access =
        static_cast<double>(horizon) / std::max(1, completed);
    EXPECT_NEAR(per_access, static_cast<double>(cfg.dramRowHitCycles), 0.5);
}

// -------------------------------------------------------------------- L2

class L2Test : public ::testing::Test
{
  protected:
    L2Test() : energy(PowerConfig::gtx480()), l2(cfg, 0, energy) {}

    /** Run cycles; collect any ready outputs. */
    std::vector<MemAccess>
    runCycles(Cycle count)
    {
        std::vector<MemAccess> out;
        for (Cycle i = 0; i < count; ++i) {
            l2.tick(now);
            while (auto r = l2.output().popReady(now))
                out.push_back(*r);
            ++now;
        }
        return out;
    }

    /** Load l2Ways more lines that map to set 0, evicting its LRU line. */
    void
    fillSet0()
    {
        const int stride = cfg.l2SetsPerPartition * cfg.numPartitions;
        for (int w = 1; w <= cfg.l2Ways; ++w) {
            l2.input().push(
                makeLoad(static_cast<Addr>(w) * static_cast<Addr>(stride) *
                         lineBytes),
                now);
            runCycles(100);
        }
    }

    MemConfig cfg = MemConfig::gtx480();
    EnergyModel energy;
    L2Partition l2;
    Cycle now = 0;
};

TEST_F(L2Test, MissGoesToDramAndReturns)
{
    l2.input().push(makeLoad(partition0Line(cfg, 0), 3, 7), now);
    const auto out = runCycles(200);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].sm, 3);
    EXPECT_EQ(out[0].warp, 7);
    EXPECT_EQ(l2.misses(), 1u);
}

TEST_F(L2Test, SecondAccessHits)
{
    const Addr a = partition0Line(cfg, 0);
    l2.input().push(makeLoad(a), now);
    runCycles(200);
    l2.input().push(makeLoad(a), now);
    const auto out = runCycles(200);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(l2.hits(), 1u);
}

TEST_F(L2Test, HitLatencyApplied)
{
    const Addr a = partition0Line(cfg, 0);
    l2.input().push(makeLoad(a), now);
    runCycles(200);

    const Cycle inject = now;
    l2.input().push(makeLoad(a), now);
    Cycle arrival = 0;
    for (Cycle i = 0; i < 200; ++i) {
        l2.tick(now);
        if (l2.output().popReady(now)) {
            arrival = now;
            break;
        }
        ++now;
    }
    EXPECT_EQ(arrival - inject, cfg.l2HitLatency);
}

TEST_F(L2Test, WritesAllocateDirtyAndProduceNoResponse)
{
    MemAccess store = makeLoad(partition0Line(cfg, 0));
    store.write = true;
    l2.input().push(store, now);
    const auto out = runCycles(100);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(l2.misses(), 1u);

    // Evicting the dirty line costs a writeback.
    fillSet0();
    EXPECT_EQ(l2.writebacks(), 1u);
}

TEST_F(L2Test, FillOfAStoredLineKeepsItDirty)
{
    // A load misses to DRAM; a store to the same line allocates it
    // dirty before that fill returns. The fill must not clean it.
    const Addr a = partition0Line(cfg, 0);
    l2.input().push(makeLoad(a), now);
    MemAccess store = makeLoad(a);
    store.write = true;
    l2.input().push(store, now);
    EXPECT_EQ(runCycles(200).size(), 1u);
    EXPECT_EQ(l2.misses(), 2u); // the store missed: it beat the fill
    fillSet0();
    EXPECT_EQ(l2.writebacks(), 1u);
}

TEST_F(L2Test, FlushDropsCachedLines)
{
    const Addr a = partition0Line(cfg, 0);
    l2.input().push(makeLoad(a), now);
    runCycles(200);
    l2.flush();
    l2.input().push(makeLoad(a), now);
    runCycles(200);
    EXPECT_EQ(l2.hits(), 0u);
    EXPECT_EQ(l2.misses(), 2u);
}

} // namespace
} // namespace equalizer

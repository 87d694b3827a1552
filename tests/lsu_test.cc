/**
 * @file
 * Unit tests for the load/store unit.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/lsu.hh"
#include "test_streams.hh"

namespace equalizer
{
namespace
{

using testing::loadInst;
using testing::storeInst;

class LsuTest : public ::testing::Test
{
  protected:
    LsuTest()
        : energy(PowerConfig::gtx480()), mem(cfg.mem, 1, energy),
          l1(cfg.mem, 0, mem.smInjectQueue(0), energy),
          lsu(cfg, 0, l1, mem)
    {
    }

    /** Warps whose L1-hit data the LSU hands back at @p now. */
    std::vector<WarpId>
    woken(Cycle now)
    {
        std::vector<WarpId> out;
        lsu.drainHitWakeups(now, [&out](WarpId w) { out.push_back(w); });
        return out;
    }

    GpuConfig cfg = GpuConfig::gtx480();
    EnergyModel energy;
    MemorySystem mem;
    L1Cache l1;
    LoadStoreUnit lsu;
};

TEST_F(LsuTest, AcceptsAtMostOnePerCycle)
{
    lsu.beginCycle();
    ASSERT_TRUE(lsu.canAccept());
    lsu.accept(0, loadInst(0x1000));
    EXPECT_FALSE(lsu.canAccept());
    lsu.beginCycle();
    EXPECT_TRUE(lsu.canAccept());
}

TEST_F(LsuTest, QueueDepthLimitsAcceptance)
{
    for (int i = 0; i < cfg.lsuQueueDepth; ++i) {
        lsu.beginCycle();
        ASSERT_TRUE(lsu.canAccept()) << "entry " << i;
        lsu.accept(i, loadInst(static_cast<Addr>(i) * 128));
    }
    lsu.beginCycle();
    EXPECT_FALSE(lsu.canAccept());
}

TEST_F(LsuTest, ProcessesTransactionsAtThroughput)
{
    WarpInstruction wide = loadInst(0);
    wide.transactionCount = 4;
    lsu.beginCycle();
    lsu.accept(0, wide);
    lsu.tick(1);
    EXPECT_EQ(lsu.transactionsIssued(),
              static_cast<std::uint64_t>(cfg.lsuThroughput));
    lsu.tick(2);
    EXPECT_EQ(lsu.transactionsIssued(), 4u);
    EXPECT_TRUE(lsu.empty());
}

TEST_F(LsuTest, WrappedLoadPresentsLinesInWrapOrder)
{
    WarpInstruction wrapped = loadInst(0x20000);
    wrapped.transactionCount = 4;
    wrapped.firstLine = 2;
    wrapped.wrapLines = 4;
    lsu.beginCycle();
    lsu.accept(0, wrapped);
    for (Cycle c = 1; c <= 4; ++c)
        lsu.tick(c);
    ASSERT_TRUE(lsu.empty());
    // Each primary miss enters the SM's injection queue in order.
    auto &q = mem.smInjectQueue(0);
    for (const Addr line : {2, 3, 0, 1}) {
        const auto access = q.pop();
        ASSERT_TRUE(access);
        EXPECT_EQ(access->lineAddr, 0x20000 + line * lineBytes);
    }
    EXPECT_TRUE(q.empty());
}

TEST_F(LsuTest, HitWakeupArrivesAfterL1Latency)
{
    // Prime the line so the access hits.
    l1.access(9, 0x3000, false);
    l1.fill(0x3000, [](WarpId) {});

    lsu.beginCycle();
    lsu.accept(3, loadInst(0x3000));
    lsu.tick(10);
    EXPECT_TRUE(woken(10).empty());
    const Cycle ready = 10 + cfg.mem.l1HitLatency;
    EXPECT_TRUE(woken(ready - 1).empty());
    const auto warps = woken(ready);
    ASSERT_EQ(warps.size(), 1u);
    EXPECT_EQ(warps[0], 3);
}

TEST_F(LsuTest, StreamedHitsAtFullThroughputFitTheWakeupRing)
{
    // At most lsuThroughput hits enter per cycle and each leaves
    // l1HitLatency cycles later, which is what sizes the wakeup ring.
    // Stream hits for three latencies; a ring too small for them trips
    // the overflow assert.
    const int lines = cfg.lsuThroughput;
    for (int t = 0; t < lines; ++t) {
        const Addr line = 0x8000 + static_cast<Addr>(t) * lineBytes;
        l1.access(9, line, false);
        l1.fill(line, [](WarpId) {});
    }
    WarpInstruction inst = loadInst(0x8000);
    inst.transactionCount = lines;

    const Cycle end = 3 * cfg.mem.l1HitLatency;
    std::uint64_t returned = 0;
    for (Cycle c = 1; c <= end; ++c) {
        lsu.beginCycle();
        returned += woken(c).size();
        ASSERT_TRUE(lsu.canAccept()) << "cycle " << c;
        lsu.accept(0, inst);
        lsu.tick(c);
    }
    const auto hits = static_cast<std::uint64_t>(lines) * end;
    EXPECT_EQ(lsu.transactionsIssued(), hits);
    // The last l1HitLatency cycles' hits are still in flight.
    EXPECT_EQ(hits - returned,
              static_cast<std::uint64_t>(lines) * cfg.mem.l1HitLatency);
}

TEST_F(LsuTest, HeadBlocksWhenDownstreamFull)
{
    // Fill the SM's injection queue directly.
    auto &q = mem.smInjectQueue(0);
    Addr a = 0x100000;
    while (!q.full()) {
        q.push(MemAccess{a, 0, 0, false, false});
        a += 128;
    }
    // Also exhaust nothing else; a store needs queue space and blocks.
    lsu.beginCycle();
    lsu.accept(0, storeInst(0x5000));
    lsu.tick(1);
    EXPECT_FALSE(lsu.empty());
    EXPECT_GT(lsu.blockedCycles(), 0u);
    // Drain one slot; the store proceeds.
    q.pop();
    lsu.tick(2);
    EXPECT_TRUE(lsu.empty());
}

TEST_F(LsuTest, TextureBypassesL1)
{
    WarpInstruction tex = loadInst(0x9000);
    tex.texture = true;
    lsu.beginCycle();
    lsu.accept(2, tex);
    lsu.tick(1);
    EXPECT_EQ(l1.hits() + l1.misses(), 0u);
    EXPECT_EQ(mem.texInjectQueue(0).size(), 1u);
}

TEST_F(LsuTest, ResetDropsPendingWork)
{
    lsu.beginCycle();
    lsu.accept(0, loadInst(0x1000));
    lsu.reset();
    EXPECT_TRUE(lsu.empty());
    lsu.beginCycle();
    EXPECT_TRUE(lsu.canAccept());
}

TEST_F(LsuTest, MissesGoDownstreamNotToWakeups)
{
    lsu.beginCycle();
    lsu.accept(1, loadInst(0x8000));
    lsu.tick(1);
    EXPECT_EQ(mem.smInjectQueue(0).size(), 1u);
    EXPECT_TRUE(woken(1000).empty());
}

} // namespace
} // namespace equalizer

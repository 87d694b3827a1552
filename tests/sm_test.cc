/**
 * @file
 * Unit tests for the streaming multiprocessor: block slots, CTA pausing,
 * warp-state classification, barriers and retirement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/sm.hh"
#include "test_streams.hh"

namespace equalizer
{
namespace
{

using testing::ScriptedKernel;
using testing::aluInst;
using testing::loadInst;
using testing::loadUse;
using testing::syncInst;

class SmTest : public ::testing::Test
{
  protected:
    SmTest()
        : energy(PowerConfig::gtx480()), mem(cfg.mem, 1, energy),
          sm(cfg, 0, mem, energy)
    {
    }

    /** One SM cycle with the memory system ticking alongside. */
    void
    step(int cycles = 1)
    {
        for (int i = 0; i < cycles; ++i) {
            ++memNow;
            mem.tick(memNow);
            sm.tick(memNow);
        }
    }

    GpuConfig cfg = GpuConfig::gtx480();
    EnergyModel energy;
    MemorySystem mem;
    StreamingMultiprocessor sm;
    Cycle memNow = 0;
};

KernelInfo
info(int blocks, int wcta, int max_blocks, const char *name = "test")
{
    KernelInfo k;
    k.name = name;
    k.totalBlocks = blocks;
    k.warpsPerBlock = wcta;
    k.maxBlocksPerSm = max_blocks;
    return k;
}

TEST_F(SmTest, BlockSlotCountRespectsOccupancyLimits)
{
    ScriptedKernel k(info(10, 8, 6), {aluInst()});
    sm.setKernel(&k);
    EXPECT_EQ(sm.blockSlotCount(), 6); // 48 warps / 8 per block

    ScriptedKernel wide(info(10, 24, 3), {aluInst()});
    sm.setKernel(&wide);
    EXPECT_EQ(sm.blockSlotCount(), 2); // warp capacity clamps 3 -> 2

    ScriptedKernel narrow(info(10, 2, 8), {aluInst()});
    sm.setKernel(&narrow);
    EXPECT_EQ(sm.blockSlotCount(), 8); // config cap

    // A kernel wider than the whole SM still gets one slot.
    ScriptedKernel huge(info(10, 64, 1), {aluInst()});
    sm.setKernel(&huge);
    EXPECT_EQ(sm.blockSlotCount(), 1);
}

TEST_F(SmTest, AssignBlockActivatesItsWarps)
{
    ScriptedKernel k(info(10, 4, 4), {aluInst(), aluInst()});
    sm.setKernel(&k);
    EXPECT_TRUE(sm.wantsBlock());
    sm.assignBlock(0);
    EXPECT_EQ(sm.residentBlocks(), 1);
    for (int w = 0; w < 4; ++w)
        EXPECT_TRUE(sm.warp(w).active);
    EXPECT_FALSE(sm.warp(4).active);
}

TEST_F(SmTest, PureAluKernelIssuesAtFullWidthAndShowsExcessAlu)
{
    std::vector<WarpInstruction> script(50, aluInst());
    ScriptedKernel k(info(10, 8, 2), script);
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    step(5);
    const auto counts = sm.sampleStates();
    EXPECT_EQ(counts.issued, cfg.issueWidth);
    // 16 ready warps, 2 issue slots: the rest are X_alu.
    EXPECT_EQ(counts.excessAlu, 16 - cfg.issueWidth);
    EXPECT_EQ(counts.active, 16);
}

TEST_F(SmTest, DependentChainCreatesWaitingWarps)
{
    // Each warp: ALU then a dependent ALU, repeatedly. The dependent
    // instruction waits ~aluDepLatency cycles.
    std::vector<WarpInstruction> script;
    for (int i = 0; i < 30; ++i) {
        script.push_back(aluInst(false));
        script.push_back(aluInst(true));
    }
    ScriptedKernel k(info(10, 4, 1), script);
    sm.setKernel(&k);
    sm.assignBlock(0);
    step(6);
    const auto counts = sm.sampleStates();
    EXPECT_GT(counts.waiting, 0);
}

TEST_F(SmTest, LoadUseStallsUntilDataReturns)
{
    ScriptedKernel k(info(10, 1, 1),
                     {loadInst(0x4000), loadUse(), aluInst()});
    sm.setKernel(&k);
    sm.assignBlock(0);
    step(2); // load issues
    EXPECT_GT(sm.warp(0).pendingLoads, 0);
    const auto counts = sm.sampleStates();
    EXPECT_EQ(counts.waiting, 1); // the dependent use waits
    step(400); // plenty for a DRAM round trip
    EXPECT_EQ(sm.warp(0).pendingLoads, 0);
}

TEST_F(SmTest, ExcessMemAppearsWhenLsuSaturates)
{
    // Every warp issues loads back to back; the LSU accepts one warp
    // instruction per cycle, so ready memory warps pile up as X_mem.
    std::vector<WarpInstruction> script;
    for (int i = 0; i < 40; ++i)
        script.push_back(loadInst(static_cast<Addr>(i) * 128));
    ScriptedKernel k(info(10, 8, 2),
                     [script](BlockId b, int w) {
                         auto s = script;
                         for (auto &inst : s)
                             inst.base +=
                                 static_cast<Addr>(b * 1000 + w * 100) * 4096;
                         return s;
                     });
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    bool saw_xmem = false;
    for (int i = 0; i < 50 && !saw_xmem; ++i) {
        step(1);
        saw_xmem = sm.sampleStates().excessMem > 0;
    }
    EXPECT_TRUE(saw_xmem);
}

TEST_F(SmTest, PausedBlocksAreExcludedFromCounters)
{
    std::vector<WarpInstruction> script(2000, aluInst());
    ScriptedKernel k(info(10, 8, 2), script);
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    step(2);
    EXPECT_EQ(sm.sampleStates().active, 16);

    sm.setTargetBlocks(1);
    EXPECT_EQ(sm.unpausedBlocks(), 1);
    EXPECT_EQ(sm.residentBlocks(), 2);
    step(1);
    EXPECT_EQ(sm.sampleStates().active, 8);

    sm.setTargetBlocks(2);
    EXPECT_EQ(sm.unpausedBlocks(), 2);
    step(1);
    EXPECT_EQ(sm.sampleStates().active, 16);
}

TEST_F(SmTest, PausesYoungestBlockFirst)
{
    std::vector<WarpInstruction> script(2000, aluInst());
    ScriptedKernel k(info(10, 8, 2), script);
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    sm.setTargetBlocks(1);
    // Block in slot 1 (assigned last) is the paused one.
    EXPECT_FALSE(sm.warp(0).paused);
    EXPECT_TRUE(sm.warp(8).paused);
}

TEST_F(SmTest, TargetBlocksClampedToValidRange)
{
    ScriptedKernel k(info(10, 8, 4), {aluInst()});
    sm.setKernel(&k);
    sm.setTargetBlocks(100);
    EXPECT_EQ(sm.targetBlocks(), sm.blockSlotCount());
    sm.setTargetBlocks(-3);
    EXPECT_EQ(sm.targetBlocks(), 1);
}

TEST_F(SmTest, WantsBlockHonorsTargetAndPausedBlocks)
{
    std::vector<WarpInstruction> script(2000, aluInst());
    ScriptedKernel k(info(10, 8, 4), script);
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    EXPECT_TRUE(sm.wantsBlock());
    sm.setTargetBlocks(2);
    EXPECT_FALSE(sm.wantsBlock());
    sm.setTargetBlocks(1); // one block paused now
    sm.setTargetBlocks(3); // unpauses it; still below target, no paused
    EXPECT_TRUE(sm.wantsBlock());
}

TEST_F(SmTest, BlockCompletionFreesSlot)
{
    ScriptedKernel k(info(10, 2, 2), {aluInst(), aluInst()});
    sm.setKernel(&k);
    sm.assignBlock(7);
    step(10);
    EXPECT_TRUE(sm.idle());
    EXPECT_TRUE(sm.hasFreeSlot());
    EXPECT_EQ(sm.blocksCompleted(), 1u);
}

TEST_F(SmTest, CompletionUnpausesAPausedBlock)
{
    // Two short blocks, then pause one; when the active one finishes,
    // the paused one resumes without a new assignment (paper IV-B).
    ScriptedKernel k(info(10, 2, 2), {aluInst(), aluInst(), aluInst()});
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    sm.setTargetBlocks(1);
    EXPECT_EQ(sm.unpausedBlocks(), 1);
    step(20);
    // Block 0 finished; block 1 was unpaused and finished too.
    EXPECT_TRUE(sm.idle());
    EXPECT_EQ(sm.blocksCompleted(), 2u);
}

TEST_F(SmTest, BarrierParksWarpsUntilAllArrive)
{
    // Warp 0 has extra work before the barrier; warp 1 reaches it fast.
    ScriptedKernel k(info(10, 2, 1), [](BlockId, int w) {
        std::vector<WarpInstruction> s;
        const int pre = w == 0 ? 12 : 1;
        for (int i = 0; i < pre; ++i)
            s.push_back(aluInst());
        s.push_back(syncInst());
        s.push_back(aluInst());
        return s;
    });
    sm.setKernel(&k);
    sm.assignBlock(0);
    step(3);
    // Warp 1 is parked at the barrier while warp 0 still computes.
    EXPECT_TRUE(sm.warp(1).atBarrier);
    EXPECT_FALSE(sm.warp(0).atBarrier);
    EXPECT_GT(sm.sampleStates().barrier, 0);
    step(30);
    EXPECT_TRUE(sm.idle()); // everyone released and retired
}

TEST_F(SmTest, OutcomeTotalsAccumulate)
{
    std::vector<WarpInstruction> script(100, aluInst());
    ScriptedKernel k(info(10, 8, 1), script);
    sm.setKernel(&k);
    sm.assignBlock(0);
    step(10);
    const auto &totals = sm.outcomeTotals();
    EXPECT_GT(totals.issued, 0);
    EXPECT_GT(totals.active, 0);
    sm.resetStats();
    EXPECT_EQ(sm.outcomeTotals().issued, 0);
}

TEST_F(SmTest, MemIssueFilterThrottlesWarps)
{
    std::vector<WarpInstruction> script;
    for (int i = 0; i < 50; ++i)
        script.push_back(loadInst(static_cast<Addr>(i) * 128));
    ScriptedKernel k(info(10, 4, 1), script);
    sm.setKernel(&k);
    sm.setMemIssueFilter([](WarpId w) { return w == 0; });
    sm.assignBlock(0);
    step(8);
    // Only warp 0 ever issues memory instructions.
    EXPECT_GT(sm.warp(0).pendingLoads, 0);
    for (int w = 1; w < 4; ++w)
        EXPECT_EQ(sm.warp(w).pendingLoads, 0);
}

TEST_F(SmTest, InstructionsIssuedCountsAllWarps)
{
    ScriptedKernel k(info(10, 2, 2), {aluInst(), aluInst(), aluInst()});
    sm.setKernel(&k);
    sm.assignBlock(0);
    sm.assignBlock(1);
    step(30);
    EXPECT_EQ(sm.instructionsIssued(), 4u * 3u);
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the GPU top level: work distribution, clocking, VF requests,
 * metrics and determinism.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_top.hh"
#include "test_streams.hh"

namespace equalizer
{
namespace
{

using testing::ScriptedKernel;
using testing::aluInst;
using testing::loadInst;
using testing::loadUse;

KernelInfo
info(int blocks, int wcta, int max_blocks, const char *name = "t")
{
    KernelInfo k;
    k.name = name;
    k.totalBlocks = blocks;
    k.warpsPerBlock = wcta;
    k.maxBlocksPerSm = max_blocks;
    return k;
}

GpuConfig
smallGpu(int sms = 4)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = sms;
    return cfg;
}

TEST(GpuTop, RunsTrivialKernelToCompletion)
{
    GpuTop gpu(smallGpu());
    ScriptedKernel k(info(8, 2, 2), {aluInst(), aluInst()});
    const RunMetrics m = gpu.runKernel(k);
    EXPECT_GT(m.smCycles, 0u);
    EXPECT_GT(m.memCycles, 0u);
    EXPECT_EQ(m.instructions, 8u * 2u * 2u);
    EXPECT_GT(m.seconds, 0.0);
    EXPECT_GT(m.totalJoules(), 0.0);
}

TEST(GpuTop, DistributesBlocksBreadthFirst)
{
    GpuTop gpu(smallGpu(4));
    // 6 long blocks over 4 SMs with capacity 4 each: breadth-first means
    // SMs get 2,2,1,1 — never 4,2,0,0.
    std::vector<WarpInstruction> script(3000, aluInst());
    ScriptedKernel k(info(6, 2, 4), script);
    std::vector<int> resident;
    bool captured = false;
    gpu.setCycleObserver([&](GpuTop &g) {
        if (captured)
            return;
        captured = true;
        for (int s = 0; s < g.numSms(); ++s)
            resident.push_back(g.sm(s).residentBlocks());
    });
    gpu.runKernel(k);
    ASSERT_EQ(resident.size(), 4u);
    EXPECT_EQ(resident[0], 2);
    EXPECT_EQ(resident[1], 2);
    EXPECT_EQ(resident[2], 1);
    EXPECT_EQ(resident[3], 1);
}

TEST(GpuTop, DeterministicAcrossRuns)
{
    auto run_once = [] {
        GpuTop gpu(smallGpu());
        std::vector<WarpInstruction> script;
        for (int i = 0; i < 64; ++i) {
            script.push_back(loadInst(static_cast<Addr>(i) * 128));
            script.push_back(loadUse());
            script.push_back(aluInst());
        }
        ScriptedKernel k(info(12, 4, 4), script);
        return gpu.runKernel(k);
    };
    const RunMetrics a = run_once();
    const RunMetrics b = run_once();
    EXPECT_EQ(a.smCycles, b.smCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.dynamicJoules, b.dynamicJoules);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
}

TEST(GpuTop, VfRequestAppliesAfterVrmDelay)
{
    GpuTop gpu(smallGpu());
    std::vector<WarpInstruction> script(3000, aluInst());
    ScriptedKernel k(info(8, 2, 2), script);

    bool requested = false;
    Cycle request_cycle = 0;
    Cycle applied_cycle = 0;
    gpu.setCycleObserver([&](GpuTop &g) {
        const Cycle c = g.smDomain().cycle();
        if (!requested && c == 100) {
            g.requestVfState(PowerDomain::Sm, VfState::High);
            requested = true;
            request_cycle = c;
        }
        if (requested && applied_cycle == 0 &&
            g.smDomain().state() == VfState::High) {
            applied_cycle = c;
        }
    });
    gpu.runKernel(k);
    ASSERT_TRUE(requested);
    ASSERT_GT(applied_cycle, 0u);
    const Cycle delay = applied_cycle - request_cycle;
    EXPECT_GE(delay, vrmTransitionSmCycles);
    EXPECT_LE(delay, vrmTransitionSmCycles + 4);
}

TEST(GpuTop, HigherSmFrequencyFinishesComputeKernelFaster)
{
    std::vector<WarpInstruction> script(400, aluInst());
    ScriptedKernel k(info(16, 8, 4), script);

    GpuTop normal(smallGpu());
    const RunMetrics base = normal.runKernel(k);

    GpuTop boosted(smallGpu());
    boosted.requestVfState(PowerDomain::Sm, VfState::High);
    const RunMetrics fast = boosted.runKernel(k);

    EXPECT_LT(fast.seconds, base.seconds);
    // Issue-bound kernel: time scales ~1/f.
    EXPECT_NEAR(base.seconds / fast.seconds, 1.15, 0.03);
}

TEST(GpuTop, MetricsResidencyCoversRunTime)
{
    GpuTop gpu(smallGpu());
    std::vector<WarpInstruction> script(500, aluInst());
    ScriptedKernel k(info(8, 4, 4), script);
    const RunMetrics m = gpu.runKernel(k);
    Tick total = 0;
    for (int i = 0; i < numVfStates; ++i)
        total += m.smResidency[static_cast<std::size_t>(i)];
    EXPECT_NEAR(m.seconds,
                static_cast<double>(total) /
                    static_cast<double>(ticksPerSecond),
                1e-12);
}

TEST(GpuTop, ConsecutiveInvocationsAccumulateIndependentMetrics)
{
    GpuTop gpu(smallGpu());
    ScriptedKernel k(info(8, 2, 2), {aluInst(), aluInst()});
    const RunMetrics a = gpu.runKernel(k);
    const RunMetrics b = gpu.runKernel(k);
    EXPECT_EQ(a.instructions, b.instructions);
    // Second invocation metrics are a fresh delta, not cumulative.
    EXPECT_NEAR(static_cast<double>(a.smCycles),
                static_cast<double>(b.smCycles),
                static_cast<double>(a.smCycles) * 0.2 + 16.0);
}

TEST(GpuTop, SetAllTargetBlocksPropagates)
{
    GpuTop gpu(smallGpu());
    std::vector<WarpInstruction> script(1000, aluInst());
    ScriptedKernel k(info(64, 4, 8), script);
    bool checked = false;
    gpu.setCycleObserver([&](GpuTop &g) {
        if (checked || g.smDomain().cycle() != 50)
            return;
        checked = true;
        g.setAllTargetBlocks(2);
        for (int s = 0; s < g.numSms(); ++s)
            EXPECT_EQ(g.sm(s).targetBlocks(), 2);
    });
    gpu.runKernel(k);
    EXPECT_TRUE(checked);
}

TEST(GpuTop, MemoryClockTicksFasterThanSmClock)
{
    GpuTop gpu(smallGpu());
    std::vector<WarpInstruction> script(200, aluInst());
    ScriptedKernel k(info(8, 4, 4), script);
    const RunMetrics m = gpu.runKernel(k);
    const double ratio = static_cast<double>(m.memCycles) /
                         static_cast<double>(m.smCycles);
    EXPECT_NEAR(ratio, 924.0 / 700.0, 0.02);
}

TEST(GpuTopDeath, CycleLimitPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            GpuTop gpu(smallGpu(1));
            std::vector<WarpInstruction> script(100000, aluInst());
            ScriptedKernel k(info(64, 8, 8, "runaway"), script);
            gpu.runKernel(k, /*max_sm_cycles=*/500);
        },
        "cycle limit");
}

/** Each warp slot is one bit of the SM's 64-bit warp-state masks. */
TEST(GpuTopDeath, MoreThan64WarpSlotsIsFatal)
{
    GpuConfig cfg = smallGpu(1);
    cfg.maxWarpsPerSm = 64;
    GpuTop fits(cfg); // the limit itself is accepted
    cfg.maxWarpsPerSm = 65;
    EXPECT_EXIT(GpuTop{cfg}, ::testing::ExitedWithCode(1),
                "maxWarpsPerSm = 65: an SM holds at most 64 warp slots");
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the comparison baselines: StaticPolicy, DynCTA and CCWS.
 */

#include <gtest/gtest.h>

#include "baselines/ccws.hh"
#include "baselines/dyncta.hh"
#include "baselines/static_policy.hh"
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

GpuConfig
smallGpu(int sms = 4)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = sms;
    return cfg;
}

KernelInfo
info(int blocks, int wcta, int max_blocks, const char *name)
{
    KernelInfo k;
    k.name = name;
    k.totalBlocks = blocks;
    k.warpsPerBlock = wcta;
    k.maxBlocksPerSm = max_blocks;
    return k;
}

/** Each warp loops @p reps times over its private 24-line working set. */
ScriptedKernel::ScriptFn
thrashLoop(int reps)
{
    return [reps](BlockId b, int w) {
        std::vector<WarpInstruction> s;
        const Addr base = (static_cast<Addr>(b) * 8 + static_cast<Addr>(w))
                          << 20;
        for (int rep = 0; rep < reps; ++rep)
            for (int l = 0; l < 24; ++l) {
                s.push_back(loadInst(base + static_cast<Addr>(l) * 128));
                s.push_back(loadUse());
            }
        return s;
    };
}

// ---------------------------------------------------------- StaticPolicy

TEST(StaticPolicy, AppliesOperatingPointsAtLaunch)
{
    GpuTop gpu(smallGpu());
    StaticPolicy policy("test", VfState::High, VfState::Low);
    gpu.setController(&policy);
    std::vector<WarpInstruction> script(3000, aluInst());
    ScriptedKernel k(info(8, 4, 4, "t"), script);
    gpu.runKernel(k);
    EXPECT_EQ(gpu.smDomain().state(), VfState::High);
    EXPECT_EQ(gpu.memDomain().state(), VfState::Low);
}

TEST(StaticPolicy, AppliesBlockTarget)
{
    GpuTop gpu(smallGpu());
    StaticPolicy policy("blocks-2", VfState::Normal, VfState::Normal, 2);
    gpu.setController(&policy);
    std::vector<WarpInstruction> script(2000, aluInst());
    ScriptedKernel k(info(64, 4, 8, "t"), script);
    bool checked = false;
    gpu.setCycleObserver([&](GpuTop &g) {
        if (checked || g.smDomain().cycle() % 100 != 50)
            return;
        checked = true;
        for (int s = 0; s < g.numSms(); ++s) {
            EXPECT_EQ(g.sm(s).targetBlocks(), 2);
            EXPECT_LE(g.sm(s).unpausedBlocks(), 2);
        }
    });
    gpu.runKernel(k);
    EXPECT_TRUE(checked);
    EXPECT_EQ(policy.name(), "blocks-2");
}

TEST(StaticPolicy, FewerBlocksRunsSlowerOnLatencyBoundKernel)
{
    // Serial dependence chains: one block (4 warps) cannot cover the
    // ALU result latency, so throttling concurrency costs time.
    std::vector<WarpInstruction> script(800, aluInst(true));
    ScriptedKernel k(info(64, 4, 8, "t"), script);

    GpuTop full(smallGpu());
    StaticPolicy max_policy("max", VfState::Normal, VfState::Normal);
    full.setController(&max_policy);
    const auto base = full.runKernel(k);

    GpuTop throttled(smallGpu());
    StaticPolicy one("blocks-1", VfState::Normal, VfState::Normal, 1);
    throttled.setController(&one);
    const auto slow = throttled.runKernel(k);

    EXPECT_GT(slow.seconds, base.seconds * 1.5);
}

// ---------------------------------------------------------------- DynCTA

TEST(DynCta, ReducesBlocksUnderMemoryStall)
{
    GpuTop gpu(smallGpu());
    DynCta dyncta;
    gpu.setController(&dyncta);

    ScriptedKernel k(info(64, 4, 8, "mem"), testing::privateLoads(400));
    int min_target = 8;
    gpu.setCycleObserver([&](GpuTop &g) {
        min_target = std::min(min_target, g.sm(0).targetBlocks());
    });
    gpu.runKernel(k);
    EXPECT_LT(min_target, 8);
    EXPECT_GT(dyncta.blockChanges(), 0u);
}

TEST(DynCta, LeavesComputeKernelAlone)
{
    GpuTop gpu(smallGpu());
    DynCta dyncta;
    gpu.setController(&dyncta);
    std::vector<WarpInstruction> script(20000, aluInst());
    ScriptedKernel k(info(16, 4, 4, "comp"), script);
    int min_target = 8;
    gpu.setCycleObserver([&](GpuTop &g) {
        min_target = std::min(min_target, g.sm(0).targetBlocks());
    });
    gpu.runKernel(k);
    // Compute kernels have few memory stalls: no throttling.
    EXPECT_EQ(min_target, 4);
}

TEST(DynCta, NameIsStable)
{
    DynCta d;
    EXPECT_EQ(d.name(), "dyncta");
}

// ------------------------------------------------------------------ CCWS

TEST(Ccws, DetectsLostLocalityAndThrottles)
{
    GpuTop gpu(smallGpu(1));
    Ccws ccws;
    gpu.setController(&ccws);

    // Each warp loops over a private working set much larger than its
    // fair share of the L1: classic inter-warp thrashing.
    ScriptedKernel k(info(8, 8, 8, "thrash"), thrashLoop(60));
    gpu.runKernel(k);
    EXPECT_GT(ccws.lostLocalityEvents(), 0u);
}

TEST(Ccws, AllowedWarpsNeverBelowMinimum)
{
    GpuTop gpu(smallGpu(1));
    CcwsConfig cfg;
    cfg.minAllowedWarps = 2;
    Ccws ccws(cfg);
    gpu.setController(&ccws);
    ScriptedKernel k(info(8, 8, 8, "thrash2"), thrashLoop(40));
    int min_allowed = 1000;
    gpu.setCycleObserver([&](GpuTop &g) {
        if (g.smDomain().cycle() % 64 == 0)
            min_allowed = std::min(min_allowed, ccws.allowedWarps(0));
    });
    gpu.runKernel(k);
    EXPECT_GE(min_allowed, cfg.minAllowedWarps);
}

TEST(Ccws, NoThrottlingWithoutLocalityLoss)
{
    GpuTop gpu(smallGpu(1));
    Ccws ccws;
    gpu.setController(&ccws);
    // Streaming kernel: misses, but never re-references evicted lines.
    ScriptedKernel k(info(8, 8, 8, "stream"), [](BlockId b, int w) {
        std::vector<WarpInstruction> s;
        const Addr base = (static_cast<Addr>(b) * 8 + static_cast<Addr>(w))
                          << 24;
        for (int i = 0; i < 200; ++i) {
            s.push_back(loadInst(base + static_cast<Addr>(i) * 128));
            s.push_back(loadUse());
        }
        return s;
    });
    int min_allowed = 1000;
    gpu.setCycleObserver([&](GpuTop &g) {
        if (g.smDomain().cycle() % 64 == 0)
            min_allowed = std::min(min_allowed, ccws.allowedWarps(0));
    });
    gpu.runKernel(k);
    EXPECT_EQ(ccws.lostLocalityEvents(), 0u);
    // 6 resident blocks (48-warp SM limit) x 8 warps, never throttled.
    EXPECT_EQ(min_allowed, 48);
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the Equalizer runtime: sampler, frequency manager, and the
 * engine's closed-loop behaviour on scripted workloads.
 */

#include <gtest/gtest.h>

#include "equalizer/equalizer.hh"
#include "equalizer/frequency_manager.hh"
#include "equalizer/sampler.hh"
#include "gpu/gpu_top.hh"
#include <algorithm>

#include "test_streams.hh"

namespace equalizer
{
namespace
{

using testing::ScriptedKernel;
using testing::aluInst;

// --------------------------------------------------------------- Sampler

TEST(Sampler, AveragesAccumulatedSamples)
{
    WarpStateSampler s;
    WarpStateCounts a;
    a.active = 40;
    a.waiting = 20;
    a.excessAlu = 10;
    a.excessMem = 4;
    WarpStateCounts b;
    b.active = 20;
    b.waiting = 10;
    b.excessAlu = 0;
    b.excessMem = 2;
    s.accumulate(a);
    s.accumulate(b);
    const EpochCounters avg = s.average();
    EXPECT_EQ(avg.samples, 2);
    EXPECT_DOUBLE_EQ(avg.nActive, 30.0);
    EXPECT_DOUBLE_EQ(avg.nWaiting, 15.0);
    EXPECT_DOUBLE_EQ(avg.nAlu, 5.0);
    EXPECT_DOUBLE_EQ(avg.nMem, 3.0);
}

TEST(Sampler, EmptyEpochAveragesToZero)
{
    WarpStateSampler s;
    const EpochCounters avg = s.average();
    EXPECT_EQ(avg.samples, 0);
    EXPECT_DOUBLE_EQ(avg.nActive, 0.0);
}

TEST(Sampler, ResetStartsFreshEpoch)
{
    WarpStateSampler s;
    WarpStateCounts c;
    c.active = 48;
    s.accumulate(c);
    s.reset();
    EXPECT_EQ(s.samples(), 0);
    EXPECT_EQ(s.rawActive(), 0);
}

TEST(Sampler, RawCountersFitHardwareWidth)
{
    // 32 samples of 48 warps: max raw value 1536 fits 11 bits (paper).
    WarpStateSampler s;
    WarpStateCounts c;
    c.active = 48;
    c.waiting = 48;
    c.excessAlu = 48;
    c.excessMem = 48;
    for (int i = 0; i < 32; ++i)
        s.accumulate(c);
    EXPECT_EQ(s.rawActive(), 1536);
    EXPECT_LT(s.rawActive(), 1 << 11);
}

// ----------------------------------------------------- FrequencyManager

TEST(FrequencyManager, StrictMajorityWins)
{
    FrequencyManager fm(5);
    for (int i = 0; i < 3; ++i)
        fm.submit(i, VfState::High, VfState::Normal);
    for (int i = 3; i < 5; ++i)
        fm.submit(i, VfState::Low, VfState::Normal);
    EXPECT_EQ(fm.majorityTarget(false, VfState::Normal), VfState::High);
    EXPECT_EQ(fm.majorityTarget(true, VfState::Low), VfState::Normal);
}

TEST(FrequencyManager, NoStrictMajorityHoldsCurrent)
{
    FrequencyManager fm(4);
    fm.submit(0, VfState::High, VfState::Normal);
    fm.submit(1, VfState::High, VfState::Normal);
    fm.submit(2, VfState::Low, VfState::Normal);
    fm.submit(3, VfState::Low, VfState::Normal);
    // 2-2 split: hold the fallback.
    EXPECT_EQ(fm.majorityTarget(false, VfState::Normal), VfState::Normal);
}

TEST(FrequencyManager, NoVotesHoldsCurrent)
{
    FrequencyManager fm(3);
    EXPECT_EQ(fm.votesReceived(), 0);
    EXPECT_EQ(fm.majorityTarget(false, VfState::Low), VfState::Low);
}

TEST(FrequencyManager, ResolveStepsOneLevelAndClearsBallot)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = 3;
    GpuTop gpu(cfg);
    FrequencyManager fm(3);
    for (int i = 0; i < 3; ++i)
        fm.submit(i, VfState::High, VfState::Low);
    fm.resolve(gpu);
    EXPECT_EQ(fm.votesReceived(), 0);
    EXPECT_EQ(fm.transitionsRequested(), 2u);
    // The domains have pending transitions toward the one-step targets.
    EXPECT_TRUE(gpu.smDomain().transitionPending());
    EXPECT_TRUE(gpu.memDomain().transitionPending());
}

TEST(FrequencyManager, ResolveWithoutVotesDoesNothing)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = 2;
    GpuTop gpu(cfg);
    FrequencyManager fm(2);
    fm.resolve(gpu);
    EXPECT_EQ(fm.transitionsRequested(), 0u);
    EXPECT_FALSE(gpu.smDomain().transitionPending());
}

// --------------------------------------------------------- Engine loops

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

/** A long pure-ALU kernel: X_alu >> W_cta on every SM. */
ScriptedKernel
computeKernel(const char *name = "compute")
{
    std::vector<WarpInstruction> script(30000, aluInst());
    return ScriptedKernel(info(16, 4, 4, name), script);
}

TEST(EqualizerEngine, DetectsComputeKernelAndBoostsSmInPerfMode)
{
    GpuTop gpu(smallGpu());
    EqualizerEngine eq(
        EqualizerConfig{EqualizerMode::Performance, 128, 4096, 3, 2.0});
    gpu.setController(&eq);

    std::vector<Tendency> tendencies;
    eq.setEpochTrace([&](const EqualizerEpochRecord &r) {
        tendencies.push_back(r.tendency);
    });

    auto k = computeKernel();
    gpu.runKernel(k);

    ASSERT_GE(tendencies.size(), 3u);
    int compute_epochs = 0;
    for (auto t : tendencies)
        compute_epochs += t == Tendency::ComputeHeavy ? 1 : 0;
    EXPECT_GT(compute_epochs, static_cast<int>(tendencies.size()) / 2);
    EXPECT_EQ(gpu.smDomain().state(), VfState::High);
    EXPECT_EQ(gpu.memDomain().state(), VfState::Normal);
}

TEST(EqualizerEngine, ComputeKernelInEnergyModeLowersMemory)
{
    GpuTop gpu(smallGpu());
    EqualizerEngine eq(
        EqualizerConfig{EqualizerMode::Energy, 128, 4096, 3, 2.0});
    gpu.setController(&eq);
    auto k = computeKernel();
    gpu.runKernel(k);
    EXPECT_EQ(gpu.smDomain().state(), VfState::Normal);
    EXPECT_EQ(gpu.memDomain().state(), VfState::Low);
}

TEST(EqualizerEngine, EpochsResolveAtConfiguredCadence)
{
    GpuTop gpu(smallGpu());
    EqualizerEngine eq(
        EqualizerConfig{EqualizerMode::Performance, 128, 4096, 3, 2.0});
    gpu.setController(&eq);
    auto k = computeKernel();
    const RunMetrics m = gpu.runKernel(k);
    const auto expected = m.smCycles / 4096;
    EXPECT_NEAR(static_cast<double>(eq.epochsResolved()),
                static_cast<double>(expected), 1.5);
}

TEST(EqualizerEngine, HysteresisDelaysBlockChanges)
{
    // A memory-hammering kernel that keeps nMem above W_cta: the first
    // block-count change must come only after `hysteresis` epochs.
    GpuTop gpu(smallGpu());
    EqualizerEngine eq(
        EqualizerConfig{EqualizerMode::Performance, 128, 4096, 3, 2.0});
    gpu.setController(&eq);

    std::vector<double> blocks_per_epoch;
    eq.setEpochTrace([&](const EqualizerEpochRecord &r) {
        blocks_per_epoch.push_back(r.meanTargetBlocks);
    });

    ScriptedKernel k(info(64, 4, 8, "membound"), testing::privateLoads(500));
    gpu.runKernel(k);

    ASSERT_GE(blocks_per_epoch.size(), 4u);
    // Epochs 1 and 2 must still be at the maximum (8); a change can
    // appear at epoch 3 at the earliest.
    EXPECT_DOUBLE_EQ(blocks_per_epoch[0], 8.0);
    EXPECT_DOUBLE_EQ(blocks_per_epoch[1], 8.0);
    EXPECT_GT(eq.blockChanges(), 0u);
}

TEST(EqualizerEngine, RemembersBlockTargetsAcrossInvocations)
{
    GpuTop gpu(smallGpu());
    EqualizerEngine eq(
        EqualizerConfig{EqualizerMode::Performance, 128, 4096, 3, 2.0});
    gpu.setController(&eq);

    // Same memory-bound kernel as above, run twice under the same name.
    ScriptedKernel k(info(64, 4, 8, "remember"), testing::privateLoads(500));

    std::vector<double> targets;
    eq.setEpochTrace([&targets](const EqualizerEpochRecord &r) {
        targets.push_back(r.meanTargetBlocks);
    });
    gpu.runKernel(k);
    ASSERT_FALSE(targets.empty());
    double min_target = 8.0;
    for (double v : targets)
        min_target = std::min(min_target, v);
    EXPECT_LT(min_target, 8.0); // a decrease happened
    const double end_of_first = targets.back();

    targets.clear();
    gpu.runKernel(k);
    ASSERT_FALSE(targets.empty());
    // The second invocation starts from the carried-over target: its
    // first epoch can differ from the end of the first invocation only
    // by whatever that epoch itself changed (at most one step). (The
    // absolute value may be back at max: the drain tail legitimately
    // raises the target again when bandwidth stops being saturated.)
    EXPECT_NEAR(targets.front(), end_of_first, 1.0);
}

TEST(EqualizerEngine, NameReflectsMode)
{
    EqualizerEngine p(
        EqualizerConfig{EqualizerMode::Performance, 128, 4096, 3, 2.0});
    EqualizerEngine e(
        EqualizerConfig{EqualizerMode::Energy, 128, 4096, 3, 2.0});
    EXPECT_EQ(p.name(), "equalizer-perf");
    EXPECT_EQ(e.name(), "equalizer-energy");
}

} // namespace
} // namespace equalizer

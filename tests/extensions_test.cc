/**
 * @file
 * Tests for the model extensions: shared memory with bank conflicts,
 * branch-divergence energy scaling, operand-collector port limits,
 * DRAM interface power-down, and concurrent kernel execution.
 */

#include <gtest/gtest.h>

#include "gpu/gpu_top.hh"
#include "kernels/synthetic_kernel.hh"
#include "equalizer/equalizer.hh"
#include "test_streams.hh"

namespace equalizer
{
namespace
{

using testing::ScriptedKernel;
using testing::aluInst;
using testing::loadInst;

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

GpuConfig
smallGpu(int sms = 2)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = sms;
    return cfg;
}

WarpInstruction
sharedInst(int conflict_ways = 1)
{
    WarpInstruction i;
    i.op = OpClass::Shared;
    i.conflictWays = conflict_ways;
    return i;
}

// ---------------------------------------------------------- shared memory

TEST(SharedMemory, AccessesNeverTouchTheMemorySystem)
{
    GpuTop gpu(smallGpu(1));
    std::vector<WarpInstruction> script;
    for (int i = 0; i < 50; ++i) {
        script.push_back(sharedInst());
        script.push_back(aluInst(true));
    }
    ScriptedKernel k(info(2, 4, 2, "smem"), script);
    const RunMetrics m = gpu.runKernel(k);
    EXPECT_EQ(m.l1Hits + m.l1Misses, 0u);
    EXPECT_EQ(m.dramAccesses, 0u);
    EXPECT_GT(gpu.energy().eventCount(EnergyEvent::SmSharedAccess), 0u);
}

TEST(SharedMemory, BankConflictsSerializeThePipe)
{
    auto run_with_conflicts = [](int ways) {
        GpuTop gpu(smallGpu(1));
        std::vector<WarpInstruction> script;
        for (int i = 0; i < 60; ++i)
            script.push_back(sharedInst(ways));
        ScriptedKernel k(info(2, 8, 2, "smem-conflict"), script);
        return gpu.runKernel(k).seconds;
    };
    const double clean = run_with_conflicts(1);
    const double conflicted = run_with_conflicts(8);
    // 8-way conflicts occupy the pipe 8x longer per access.
    EXPECT_GT(conflicted, clean * 3.0);
}

TEST(SharedMemory, ConsumerWaitsForSmemLatency)
{
    GpuTop gpu(smallGpu(1));
    // One warp, one shared access + dependent ALU: runtime is dominated
    // by smemLatency, not by a DRAM round trip.
    std::vector<WarpInstruction> script = {sharedInst(), aluInst(true)};
    ScriptedKernel k(info(1, 1, 1, "smem-dep"), script);
    const RunMetrics m = gpu.runKernel(k);
    EXPECT_GE(m.smCycles, gpu.config().smemLatency);
    EXPECT_LT(m.smCycles, gpu.config().smemLatency + 40);
}

// ------------------------------------------------------------- divergence

TEST(Divergence, PartialLaneMasksCutAluEnergyNotTime)
{
    auto run_with_lanes = [](int lanes) {
        GpuTop gpu(smallGpu(1));
        std::vector<WarpInstruction> script;
        for (int i = 0; i < 400; ++i) {
            WarpInstruction a = aluInst();
            a.activeLanes = lanes;
            script.push_back(a);
        }
        ScriptedKernel k(info(2, 4, 2, "div"), script);
        const RunMetrics m = gpu.runKernel(k);
        return std::pair<double, double>{
            m.seconds, gpu.energy().dynamicJoules(EnergyEvent::SmAluOp)};
    };
    const auto full = run_with_lanes(32);
    const auto half = run_with_lanes(16);
    EXPECT_NEAR(half.first, full.first, full.first * 0.02);
    EXPECT_NEAR(half.second / full.second, 0.5, 0.02);
}

// ----------------------------------------------------- register-file ports

TEST(RegisterFilePorts, FewPortsThrottleDualIssue)
{
    auto run_with_ports = [](int ports) {
        GpuConfig cfg = smallGpu(1);
        cfg.regReadPorts = ports;
        GpuTop gpu(cfg);
        std::vector<WarpInstruction> script(500, aluInst());
        ScriptedKernel k(info(4, 8, 4, "ports"), script);
        return gpu.runKernel(k).ipc();
    };
    const double wide = run_with_ports(8);
    const double narrow = run_with_ports(3); // one ALU issue per cycle
    EXPECT_NEAR(wide, 2.0, 0.1);
    EXPECT_NEAR(narrow, 1.0, 0.1);
}

// ------------------------------------------------------- DRAM power-down

TEST(DramPowerDown, IdlePartitionsEnterLowPowerState)
{
    MemConfig cfg = MemConfig::gtx480();
    cfg.dramPowerDownIdleCycles = 50;
    EnergyModel energy;
    DramPartition dram(cfg, 0, energy);
    Cycle now = 0;
    for (; now < 300; ++now)
        dram.tick(now);
    EXPECT_TRUE(dram.poweredDown());
    // Idle 300 cycles with threshold 50: ~250 powered-down cycles.
    EXPECT_GT(dram.poweredDownCycles(), 200u);
    EXPECT_LT(dram.poweredDownCycles(), 260u);
}

TEST(DramPowerDown, WakeupCostsExtraCycles)
{
    MemConfig cfg = MemConfig::gtx480();
    cfg.dramPowerDownIdleCycles = 50;
    EnergyModel energy;
    DramPartition dram(cfg, 0, energy);
    Cycle now = 0;
    for (; now < 200; ++now)
        dram.tick(now);
    ASSERT_TRUE(dram.poweredDown());

    MemAccess a;
    a.lineAddr = 0;
    dram.submit(a, now);
    Cycle done_at = 0;
    for (; now < 400 && done_at == 0; ++now)
        if (dram.tick(now))
            done_at = now;
    ASSERT_GT(done_at, 0u);
    // Row miss + power-up penalty.
    EXPECT_GE(done_at - 200, cfg.dramRowMissCycles + cfg.dramPowerUpCycles);
    EXPECT_FALSE(dram.poweredDown());
}

TEST(DramPowerDown, DisabledWhenThresholdIsZero)
{
    MemConfig cfg = MemConfig::gtx480();
    cfg.dramPowerDownIdleCycles = 0;
    EnergyModel energy;
    DramPartition dram(cfg, 0, energy);
    for (Cycle now = 0; now < 500; ++now)
        dram.tick(now);
    EXPECT_FALSE(dram.poweredDown());
    EXPECT_EQ(dram.poweredDownCycles(), 0u);
}

TEST(DramPowerDown, ReducesStaticEnergyOfComputeKernels)
{
    EnergyModel e;
    std::array<Tick, numVfStates> res{};
    res[static_cast<int>(VfState::Normal)] = ticksPerSecond;
    const double active = e.staticJoules(res, res, 0.0);
    const double mostly_down = e.staticJoules(res, res, 0.8);
    EXPECT_LT(mostly_down, active);
    const double saved = active - mostly_down;
    const double expected =
        e.dramStandbyWatts(VfState::Normal) * 0.8 *
        (1.0 - e.config().dramPowerDownFactor);
    EXPECT_NEAR(saved, expected, 1e-9);
}

// -------------------------------------------------- concurrent execution

TEST(ConcurrentKernels, PartitionsSmsAndCompletesBoth)
{
    GpuTop gpu(smallGpu(4));
    std::vector<WarpInstruction> alu_script(300, aluInst());
    ScriptedKernel a(info(8, 4, 4, "ka"), alu_script);
    std::vector<WarpInstruction> mem_script;
    for (int i = 0; i < 60; ++i) {
        mem_script.push_back(
            loadInst(static_cast<Addr>(i) * 128 * 7));
        mem_script.push_back(testing::loadUse());
    }
    ScriptedKernel b(info(8, 4, 4, "kb"), mem_script);

    gpu.configureTenants({{"t0"}, {"t1"}});
    gpu.enqueueKernel(0, a);
    gpu.enqueueKernel(1, b);
    const RunMetrics m = gpu.runTenants();
    EXPECT_EQ(m.kernel, "concurrent:ka:kb");
    const auto expected = 8u * 4u * 300u + 8u * 4u * 120u;
    EXPECT_EQ(m.instructions, expected);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_TRUE(gpu.sm(s).idle());
}

TEST(ConcurrentKernels, MixedRunKeepsPerSmBlockTuningIndependent)
{
    // An Equalizer-controlled co-run: the cache-thrashing kernel's SMs
    // reduce their block target while the compute kernel's SMs stay at
    // maximum — per-SM decisions, as the paper motivates.
    GpuTop gpu(smallGpu(4));

    std::vector<WarpInstruction> alu_script(20000, aluInst());
    ScriptedKernel comp(info(8, 4, 8, "comp"), alu_script);

    ScriptedKernel thrash(info(32, 4, 8, "thrash"), testing::privateLoads(500));

    EqualizerEngine eq(
        EqualizerConfig{EqualizerMode::Performance, 128, 4096, 3, 2.0});
    gpu.setController(&eq);

    int min_thrash_target = 8;
    int min_comp_target = 8;
    gpu.setCycleObserver([&](GpuTop &g) {
        // SMs 0,2 run 'comp'; SMs 1,3 run 'thrash'.
        min_comp_target =
            std::min(min_comp_target, g.sm(0).targetBlocks());
        min_thrash_target =
            std::min(min_thrash_target, g.sm(1).targetBlocks());
    });
    gpu.configureTenants({{"comp"}, {"thrash"}});
    gpu.enqueueKernel(0, comp);
    gpu.enqueueKernel(1, thrash);
    gpu.runTenants();

    EXPECT_LT(min_thrash_target, 8);
    EXPECT_EQ(min_comp_target, 8);
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Cross-cutting property tests: conservation laws and invariants that
 * must hold for arbitrary traffic/workloads, swept with parameterized
 * gtest.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "equalizer/decision.hh"
#include "gpu/gpu_top.hh"
#include "mem/memory_system.hh"
#include "sim/clock_domain.hh"
#include "test_streams.hh"

namespace equalizer
{
namespace
{

using testing::ScriptedKernel;
using testing::aluInst;
using testing::loadInst;
using testing::loadUse;
using testing::storeInst;
using testing::syncInst;

// -------------------------------------------- memory-request conservation

/**
 * Every load injected into the memory system comes back exactly once,
 * regardless of traffic pattern.
 */
class MemConservation : public ::testing::TestWithParam<std::uint64_t>
{
};

/** Every response for SM @p sm ready by @p now, in queue order. */
std::vector<MemAccess>
drainAll(MemorySystem &mem, SmId sm, Cycle now)
{
    std::vector<MemAccess> out;
    mem.drainReadyResponses(
        sm, now, [&out](const MemAccess &r) { out.push_back(r); });
    return out;
}

TEST_P(MemConservation, EveryLoadGetsExactlyOneResponse)
{
    const MemConfig cfg = MemConfig::gtx480();
    EnergyModel energy;
    constexpr int num_sms = 3;
    MemorySystem mem(cfg, num_sms, energy);
    Rng rng(GetParam());

    std::map<Addr, int> outstanding; // line -> pending responses
    int injected = 0;
    int returned = 0;
    Cycle now = 0;

    for (int step = 0; step < 6000; ++step) {
        ++now;
        // Random injection mix: loads, stores, hot/cold lines.
        if (injected < 600 && rng.chance(0.4)) {
            const int sm = static_cast<int>(rng.below(num_sms));
            auto &q = mem.smInjectQueue(sm);
            if (!q.full()) {
                MemAccess a;
                a.sm = sm;
                a.warp = static_cast<WarpId>(rng.below(48));
                a.write = rng.chance(0.25);
                // Cluster addresses so L2 hits, row hits and misses mix.
                a.lineAddr = rng.below(160) * lineBytes;
                if (q.push(a) && !a.write) {
                    ++injected;
                    ++outstanding[a.lineAddr];
                }
            }
        }
        mem.tick(now);
        for (int sm = 0; sm < num_sms; ++sm) {
            for (const auto &resp : drainAll(mem, sm, now)) {
                ASSERT_FALSE(resp.write);
                auto it = outstanding.find(resp.lineAddr);
                ASSERT_NE(it, outstanding.end())
                    << "unexpected response for " << resp.lineAddr;
                if (--it->second == 0)
                    outstanding.erase(it);
                ++returned;
            }
        }
    }
    // Drain fully.
    for (int extra = 0; extra < 5000 && returned < injected; ++extra) {
        ++now;
        mem.tick(now);
        for (int sm = 0; sm < num_sms; ++sm)
            returned += static_cast<int>(drainAll(mem, sm, now).size());
    }
    EXPECT_EQ(returned, injected);
    EXPECT_TRUE(outstanding.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemConservation,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------------------------ GPU liveness/accounting

/**
 * Random scripted kernels always run to completion, issue exactly the
 * number of instructions they contain, and leave no pending loads.
 */
class GpuLiveness : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GpuLiveness, RandomKernelsDrainCompletely)
{
    Rng rng(GetParam());
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = 3;
    GpuTop gpu(cfg);

    const int wcta = 1 + static_cast<int>(rng.below(8));
    const int blocks = 4 + static_cast<int>(rng.below(12));
    const int len = 40 + static_cast<int>(rng.below(120));

    KernelInfo info;
    info.name = "random";
    info.totalBlocks = blocks;
    info.warpsPerBlock = wcta;
    info.maxBlocksPerSm = 1 + static_cast<int>(rng.below(8));

    const std::uint64_t kernel_seed = rng.next();
    auto make_script = [kernel_seed, len](BlockId b, int w) {
        Rng wr(kernel_seed ^ (static_cast<std::uint64_t>(b) << 20) ^
               static_cast<std::uint64_t>(w));
        std::vector<WarpInstruction> s;
        const Addr base =
            (static_cast<Addr>(b) * 64 + static_cast<Addr>(w)) << 22;
        for (int i = 0; i < len; ++i) {
            const double dice = wr.uniform();
            if (dice < 0.25) {
                s.push_back(loadInst(base + wr.below(64) * lineBytes));
            } else if (dice < 0.32) {
                s.push_back(storeInst(base + wr.below(64) * lineBytes));
            } else if (dice < 0.40) {
                s.push_back(loadUse());
            } else if (dice < 0.44) {
                s.push_back(syncInst());
            } else {
                s.push_back(aluInst(wr.chance(0.5)));
            }
        }
        return s;
    };
    ScriptedKernel k(info, make_script);

    // Barriers are consumed at release, never issued, so the expected
    // issue count excludes Sync instructions.
    std::uint64_t expected = 0;
    for (int b = 0; b < blocks; ++b)
        for (int w = 0; w < wcta; ++w)
            for (const auto &inst : make_script(b, w))
                expected += inst.op == OpClass::Sync ? 0 : 1;

    const RunMetrics m = gpu.runKernel(k, /*max_sm_cycles=*/3'000'000);
    EXPECT_EQ(m.instructions, expected);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_TRUE(gpu.sm(s).idle());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuLiveness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

// --------------------------------------------------- residency invariant

/** Residency always sums to elapsed time across random VF churn. */
class ResidencyConservation : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ResidencyConservation, ResidencySumsToElapsedTime)
{
    Rng rng(GetParam());
    ClockDomain d("t", 1e9);
    Tick last_edge = 0;
    for (int i = 0; i < 3000; ++i) {
        if (rng.chance(0.05)) {
            d.scheduleState(static_cast<VfState>(rng.below(3)),
                            d.nextEdge() + rng.below(5) * d.period());
        }
        last_edge = d.advance();
    }
    EXPECT_EQ(d.totalTime(), last_edge);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidencyConservation,
                         ::testing::Values(101u, 202u, 303u));

// ------------------------------------------------------ decision algebra

/** The decision function is scale-consistent in its thresholds. */
class DecisionScale : public ::testing::TestWithParam<int>
{
};

TEST_P(DecisionScale, WctaBoundaryIsExact)
{
    const int wcta = GetParam();
    DecisionInputs in;
    in.wCta = wcta;
    in.numBlocks = 4;
    in.maxBlocks = 8;
    in.counters.nActive = 40;
    in.counters.nWaiting = 0;

    // Exactly W_cta is not enough; epsilon above is.
    in.counters.nMem = wcta;
    EXPECT_NE(decide(in).tendency, Tendency::MemoryHeavy);
    in.counters.nMem = wcta + 0.01;
    EXPECT_EQ(decide(in).tendency, Tendency::MemoryHeavy);

    in.counters.nMem = 0;
    in.counters.nAlu = wcta;
    EXPECT_NE(decide(in).tendency, Tendency::ComputeHeavy);
    in.counters.nAlu = wcta + 0.01;
    EXPECT_EQ(decide(in).tendency, Tendency::ComputeHeavy);
}

INSTANTIATE_TEST_SUITE_P(Wctas, DecisionScale,
                         ::testing::Values(2, 4, 6, 8, 16, 24));

// ----------------------------------------------------- energy monotonicity

/** More events never reduce energy; higher V never reduces per-event cost. */
TEST(EnergyMonotonicity, EnergyGrowsWithWorkAndVoltage)
{
    EnergyModel low;
    EnergyModel high;
    low.setDomainStates(VfState::Low, VfState::Low);
    high.setDomainStates(VfState::High, VfState::High);
    for (int i = 0; i < 100; ++i) {
        low.record(EnergyEvent::SmAluOp);
        high.record(EnergyEvent::SmAluOp);
        EXPECT_LT(low.dynamicJoules(), high.dynamicJoules());
    }
    const double before = low.dynamicJoules();
    low.record(EnergyEvent::DramAccess);
    EXPECT_GT(low.dynamicJoules(), before);
}

} // namespace
} // namespace equalizer

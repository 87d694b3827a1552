/**
 * @file
 * Tests for multi-tenant SM sharing (docs/MULTI_TENANT.md): partition
 * exclusivity, the token-bucket SM-utilization limiter, per-tenant
 * trace gauges, queued-invocation relaunch and mid-co-run checkpoint
 * round-trips.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu/gpu_top.hh"
#include "harness/co_run.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "test_streams.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"

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

/** A compute-bound script long enough for block lifetime to dominate. */
std::vector<WarpInstruction>
denseScript(int length = 64)
{
    std::vector<WarpInstruction> script;
    for (int i = 0; i < length; ++i)
        script.push_back(aluInst(true));
    return script;
}

/** Field-by-field RunMetrics equality (bitwise, including doubles). */
void
expectSameMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.smCycles, b.smCycles);
    EXPECT_EQ(a.memCycles, b.memCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.dynamicJoules, b.dynamicJoules);
    EXPECT_EQ(a.staticJoules, b.staticJoules);
    EXPECT_EQ(a.outcomeTotals.active, b.outcomeTotals.active);
    EXPECT_EQ(a.outcomeTotals.waiting, b.outcomeTotals.waiting);
    EXPECT_EQ(a.outcomeTotals.issued, b.outcomeTotals.issued);
    EXPECT_EQ(a.outcomeTotals.excessAlu, b.outcomeTotals.excessAlu);
    EXPECT_EQ(a.outcomeTotals.excessMem, b.outcomeTotals.excessMem);
    EXPECT_EQ(a.outcomeTotals.barrier, b.outcomeTotals.barrier);
    EXPECT_EQ(a.outcomeTotals.unaccounted, b.outcomeTotals.unaccounted);
    EXPECT_EQ(a.outcomeCycles, b.outcomeCycles);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.dramRowHits, b.dramRowHits);
    EXPECT_EQ(a.dramPowerDownFraction, b.dramPowerDownFraction);
    EXPECT_EQ(a.fastForwardedCycles, b.fastForwardedCycles);
    for (int i = 0; i < numVfStates; ++i) {
        const auto s = static_cast<std::size_t>(i);
        EXPECT_EQ(a.smResidency[s], b.smResidency[s]);
        EXPECT_EQ(a.memResidency[s], b.memResidency[s]);
    }
}

// ------------------------------------------------------------- partition

TEST(MultiTenantPartition, RoundRobinInterleavesAndCoversAllSms)
{
    GpuTop gpu(smallGpu(7));
    gpu.configureTenants({{"a", 1.0}, {"b", 1.0}, {"c", 1.0}},
                         PartitionPolicy::RoundRobin);
    ASSERT_EQ(gpu.numTenants(), 3);

    std::vector<int> owner(7, -1);
    for (int t = 0; t < 3; ++t) {
        for (int s : gpu.tenant(t).smSet()) {
            EXPECT_EQ(owner[static_cast<std::size_t>(s)], -1)
                << "SM " << s << " owned twice";
            owner[static_cast<std::size_t>(s)] = t;
        }
    }
    for (int s = 0; s < 7; ++s)
        EXPECT_EQ(owner[static_cast<std::size_t>(s)], s % 3);

    gpu.configureTenants({});
    EXPECT_FALSE(gpu.explicitTenants());
    EXPECT_EQ(gpu.numTenants(), 1);
    EXPECT_EQ(gpu.tenant(0).smSet().size(), 7u);
}

TEST(MultiTenantPartition, BlockedStripesAreContiguousAndExclusive)
{
    GpuTop gpu(smallGpu(7));
    gpu.configureTenants({{"a", 1.0}, {"b", 1.0}},
                         PartitionPolicy::Blocked);

    std::vector<int> owner(7, -1);
    for (int t = 0; t < 2; ++t) {
        for (int s : gpu.tenant(t).smSet()) {
            EXPECT_EQ(owner[static_cast<std::size_t>(s)], -1);
            owner[static_cast<std::size_t>(s)] = t;
        }
    }
    // Stripes are contiguous: once the owner steps up it never drops.
    for (int s = 1; s < 7; ++s) {
        EXPECT_NE(owner[static_cast<std::size_t>(s)], -1);
        EXPECT_GE(owner[static_cast<std::size_t>(s)],
                  owner[static_cast<std::size_t>(s - 1)]);
    }
    EXPECT_EQ(partitionPolicyFromName("rr"), PartitionPolicy::RoundRobin);
    EXPECT_EQ(partitionPolicyFromName("blocked"),
              PartitionPolicy::Blocked);
    gpu.configureTenants({});
}

TEST(MultiTenantPartition, InvocationsNeverLeaveTheirSmSet)
{
    GpuTop gpu(smallGpu(4));
    gpu.configureTenants({{"a", 1.0}, {"b", 1.0}},
                         PartitionPolicy::RoundRobin);

    ScriptedKernel ka(info(40, 2, 4, "pa"), denseScript());
    ScriptedKernel kb(info(40, 2, 4, "pb"), denseScript());
    gpu.enqueueKernel(0, ka);
    gpu.enqueueKernel(1, kb);

    int violations = 0;
    gpu.setCycleObserver([&violations](GpuTop &g) {
        for (int s = 0; s < g.numSms(); ++s) {
            const int idx = g.invocationOnSm(s);
            if (idx < 0)
                continue;
            const auto &inv = g.invocations()[
                static_cast<std::size_t>(idx)];
            // RoundRobin on 4 SMs: tenant 0 owns {0, 2}, 1 owns {1, 3}.
            if (inv.tenantId() != s % 2)
                ++violations;
        }
    });
    const RunMetrics m = gpu.runTenants();
    gpu.setCycleObserver(nullptr);
    gpu.configureTenants({});

    EXPECT_EQ(violations, 0);
    EXPECT_EQ(m.kernel, "concurrent:pa:pb");
    for (const auto &inv : gpu.invocations())
        EXPECT_EQ(inv.blocksCompleted(), 40u);
}

// --------------------------------------------------------------- limiter

TEST(MultiTenantLimiter, HalfLimitHoldsDispatchShareNearHalf)
{
    GpuTop gpu(smallGpu(4));
    gpu.configureTenants({{"capped", 0.5}, {"free", 1.0}},
                         PartitionPolicy::RoundRobin);
    ASSERT_TRUE(gpu.tenant(0).limited());
    ASSERT_FALSE(gpu.tenant(1).limited());

    ScriptedKernel ka(info(800, 2, 8, "la"), denseScript());
    ScriptedKernel kb(info(800, 2, 8, "lb"), denseScript());
    gpu.enqueueKernel(0, ka);
    gpu.enqueueKernel(1, kb);

    // Sample both dispatch counters the first time the unlimited
    // tenant crosses 400 blocks -- late enough that the initial
    // burst-capacity fill has washed out, early enough that both
    // grids still have work, so the rates are directly comparable.
    std::uint64_t capped_at_mark = 0, free_at_mark = 0;
    gpu.setCycleObserver([&](GpuTop &g) {
        if (free_at_mark == 0 && g.tenant(1).dispatchedBlocks() >= 400) {
            capped_at_mark = g.tenant(0).dispatchedBlocks();
            free_at_mark = g.tenant(1).dispatchedBlocks();
        }
    });
    gpu.runTenants();
    gpu.setCycleObserver(nullptr);

    ASSERT_GT(free_at_mark, 0u);
    const double share = static_cast<double>(capped_at_mark) /
                         static_cast<double>(free_at_mark);
    EXPECT_GE(share, 0.45) << capped_at_mark << " vs " << free_at_mark;
    EXPECT_LE(share, 0.55) << capped_at_mark << " vs " << free_at_mark;

    // The limiter throttles occupancy, not completion: both grids
    // drain fully, and the capped tenant logs throttled cycles.
    EXPECT_GT(gpu.tenant(0).limitedCycles(), 0u);
    EXPECT_EQ(gpu.tenant(1).limitedCycles(), 0u);
    for (const auto &inv : gpu.invocations())
        EXPECT_EQ(inv.blocksCompleted(), 800u);

    // Occupancy over the whole run also sits near the cap.
    const double occ = gpu.tenant(0).occupancyShare();
    EXPECT_GE(occ, 0.40);
    EXPECT_LE(occ, 0.60);
    gpu.configureTenants({});
}

TEST(MultiTenantLimiter, UnlimitedTenantAccruesNoDebt)
{
    GpuTop gpu(smallGpu(2));
    gpu.configureTenants({{"a", 1.0}, {"b", 1.0}},
                         PartitionPolicy::RoundRobin);
    ScriptedKernel ka(info(30, 2, 4, "da"), denseScript());
    ScriptedKernel kb(info(30, 2, 4, "db"), denseScript());
    gpu.enqueueKernel(0, ka);
    gpu.enqueueKernel(1, kb);
    gpu.runTenants();
    EXPECT_EQ(gpu.tenant(0).limiterDebt(), 0.0);
    EXPECT_EQ(gpu.tenant(0).limitedCycles(), 0u);
    EXPECT_EQ(gpu.tenant(1).limiterDebt(), 0.0);
    gpu.configureTenants({});
}

// ------------------------------------------------------ tenant gauges

TEST(MultiTenant, CoRunTraceDefinesTenantGauges)
{
    const std::vector<CoRunTenant> tenants = {
        {"lbm", 0.5, "t0"},
        {"kmn", 1.0, "t1"},
    };
    MemoryTraceSink sink;
    TraceConfig tcfg;
    tcfg.epochCycles = 2048;
    Tracer tracer(tcfg, sink);
    GpuTop gpu(GpuConfig::gtx480());
    gpu.setTracer(&tracer);
    runCoRun(gpu, tenants);
    gpu.setTracer(nullptr);
    tracer.finish();

    // The per-tenant gauges are defined in the stream.
    const std::vector<std::uint8_t> bytes = sink.serialize();
    const std::string blob(bytes.begin(), bytes.end());
    EXPECT_NE(blob.find("tenant.t0.dispatched_blocks"),
              std::string::npos);
    EXPECT_NE(blob.find("tenant.t1.occupancy_share"), std::string::npos);
    EXPECT_NE(blob.find("tenant.t0.limiter_debt"), std::string::npos);
}

// ------------------------------------------------------ queued relaunch

TEST(MultiTenant, QueuedInvocationsRelaunchUntilDrained)
{
    GpuTop gpu(smallGpu(2));
    gpu.configureTenants({{"a", 1.0}, {"b", 1.0}},
                         PartitionPolicy::RoundRobin);

    ScriptedKernel a0(info(12, 2, 4, "qa0"), denseScript());
    ScriptedKernel a1(info(18, 2, 4, "qa1"), denseScript());
    ScriptedKernel b0(info(15, 2, 4, "qb0"), denseScript());
    gpu.enqueueKernel(0, a0);
    gpu.enqueueKernel(0, a1);
    gpu.enqueueKernel(1, b0);

    const RunMetrics m = gpu.runTenants();
    EXPECT_EQ(m.kernel, "concurrent:qa0:qb0");

    // Tenant 0 ran both queued invocations back to back on its SM.
    ASSERT_EQ(gpu.invocations().size(), 3u);
    std::uint64_t tenant0_blocks = 0;
    for (const auto &inv : gpu.invocations()) {
        EXPECT_FALSE(inv.active());
        if (inv.tenantId() == 0)
            tenant0_blocks += inv.blocksCompleted();
    }
    EXPECT_EQ(tenant0_blocks, 30u);
    EXPECT_EQ(gpu.tenant(0).dispatchedBlocks(), 30u);
    EXPECT_EQ(gpu.tenant(1).dispatchedBlocks(), 15u);
    gpu.configureTenants({});
}

// ------------------------------------------------- mid-co-run checkpoint

TEST(MultiTenantCheckpoint, MidCoRunRoundTripIsBitIdentical)
{
    const GpuConfig gcfg = GpuConfig::gtx480();
    const KernelParams &pa = KernelZoo::byName("sgemm").params;
    const KernelParams &pb = KernelZoo::byName("lbm").params;
    const Cycle save_cycle = 9000;

    auto configure = [](GpuTop &g) {
        g.configureTenants({{"a", 0.75}, {"b", 1.0}},
                           PartitionPolicy::RoundRobin);
    };

    // Uninterrupted reference co-run.
    RunMetrics ref;
    std::uint64_t ref_dispatched[2] = {0, 0};
    {
        GpuTop gpu(gcfg);
        configure(gpu);
        SyntheticKernel ka(pa, 0), kb(pb, 0);
        gpu.enqueueKernel(0, ka);
        gpu.enqueueKernel(1, kb);
        ref = gpu.runTenants();
        ref_dispatched[0] = gpu.tenant(0).dispatchedBlocks();
        ref_dispatched[1] = gpu.tenant(1).dispatchedBlocks();
    }

    // Donor run, checkpointed mid-co-run.
    std::vector<std::uint8_t> saved;
    {
        GpuTop donor(gcfg);
        configure(donor);
        SyntheticKernel ka(pa, 0), kb(pb, 0);
        donor.enqueueKernel(0, ka);
        donor.enqueueKernel(1, kb);
        donor.setCycleObserver([&saved, save_cycle](GpuTop &g) {
            if (saved.empty() && g.smDomain().cycle() == save_cycle)
                saved = g.saveStateBuffer();
        });
        const RunMetrics donor_m = donor.runTenants();
        expectSameMetrics(ref, donor_m);
    }
    ASSERT_FALSE(saved.empty());

    // Restore into a fresh device and finish.
    {
        GpuTop gpu(gcfg);
        gpu.loadStateBuffer(saved);
        ASSERT_TRUE(gpu.midKernel());
        ASSERT_EQ(gpu.numTenants(), 2);
        ASSERT_TRUE(gpu.explicitTenants());
        ASSERT_EQ(gpu.invocations().size(), 2u);

        SyntheticKernel ka(pa, 0), kb(pb, 0);
        const RunMetrics resumed = gpu.resumeTenants({&ka, &kb});
        expectSameMetrics(ref, resumed);
        EXPECT_EQ(gpu.tenant(0).dispatchedBlocks(), ref_dispatched[0]);
        EXPECT_EQ(gpu.tenant(1).dispatchedBlocks(), ref_dispatched[1]);
    }
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the synthetic kernel generator and the Table II roster.
 */

#include <gtest/gtest.h>

#include <set>

#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "mem/mem_access.hh"

namespace equalizer
{
namespace
{

KernelParams
simpleParams()
{
    KernelParams p;
    p.name = "unit";
    p.warpsPerBlock = 4;
    p.maxBlocksPerSm = 4;
    p.totalBlocks = 8;
    p.instrsPerWarp = 200;
    PhaseParams ph;
    ph.aluPerMem = 4.0;
    ph.reuseFraction = 0.5;
    ph.workingSetBytes = 1024;
    ph.transactionsPerLoad = 2;
    p.phases = {ph};
    return p;
}

std::vector<WarpInstruction>
drain(InstructionStream &s)
{
    std::vector<WarpInstruction> out;
    WarpInstruction inst;
    while (s.next(inst))
        out.push_back(inst);
    return out;
}

TEST(SyntheticKernel, StreamsAreDeterministic)
{
    const SyntheticKernel k(simpleParams());
    auto a = drain(*k.makeWarpStream(3, 1));
    auto b = drain(*k.makeWarpStream(3, 1));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].transactionCount, b[i].transactionCount);
        EXPECT_EQ(a[i].lineAddr(0), b[i].lineAddr(0));
        EXPECT_EQ(a[i].dependsOnPrev, b[i].dependsOnPrev);
    }
}

TEST(SyntheticKernel, DifferentWarpsDiffer)
{
    const SyntheticKernel k(simpleParams());
    auto a = drain(*k.makeWarpStream(0, 0));
    auto b = drain(*k.makeWarpStream(0, 1));
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].op != b[i].op ||
                  a[i].lineAddr(0) != b[i].lineAddr(0);
    EXPECT_TRUE(differs);
}

TEST(SyntheticKernel, StreamLengthMatchesParams)
{
    const SyntheticKernel k(simpleParams());
    EXPECT_EQ(drain(*k.makeWarpStream(0, 0)).size(), 200u);
}

TEST(SyntheticKernel, AllAddressesAreLineAligned)
{
    const SyntheticKernel k(simpleParams());
    for (const auto &inst : drain(*k.makeWarpStream(1, 2))) {
        if (inst.op != OpClass::Mem)
            continue;
        for (int t = 0; t < inst.transactionCount; ++t)
            EXPECT_EQ(inst.lineAddr(t) % lineBytes, 0u);
    }
}

TEST(SyntheticKernel, MixRoughlyMatchesAluPerMem)
{
    auto p = simpleParams();
    p.instrsPerWarp = 5000;
    const SyntheticKernel k(p);
    int alu = 0;
    int mem = 0;
    for (const auto &inst : drain(*k.makeWarpStream(0, 0))) {
        if (inst.op == OpClass::Mem)
            ++mem;
        else
            ++alu;
    }
    EXPECT_NEAR(static_cast<double>(alu) / mem, 4.0, 0.5);
}

TEST(SyntheticKernel, LoadsCreateDownstreamDependency)
{
    auto p = simpleParams();
    p.phases[0].storeFraction = 0.0;
    const SyntheticKernel k(p);
    const auto insts = drain(*k.makeWarpStream(0, 0));
    // Every load must be followed by a dependsOnLoads consumer before
    // the next memory instruction ends the iteration... within a few
    // instructions (loadDepDistance bounded by the iteration length).
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].op != OpClass::Mem)
            continue;
        bool found_use = false;
        for (std::size_t j = i + 1; j < insts.size() && !found_use; ++j) {
            if (insts[j].op == OpClass::Mem)
                break;
            found_use = insts[j].dependsOnLoads;
        }
        if (i + 1 < insts.size() && insts[i + 1].op != OpClass::Mem) {
            EXPECT_TRUE(found_use) << "load at " << i << " never consumed";
        }
    }
}

TEST(SyntheticKernel, WorkingSetAddressesStayInWorkingSet)
{
    auto p = simpleParams();
    p.phases[0].reuseFraction = 1.0;
    p.phases[0].storeFraction = 0.0;
    p.instrsPerWarp = 2000;
    const SyntheticKernel k(p);
    std::set<Addr> distinct;
    for (const auto &inst : drain(*k.makeWarpStream(0, 0)))
        if (inst.op == OpClass::Mem)
            for (int t = 0; t < inst.transactionCount; ++t)
                distinct.insert(inst.lineAddr(t));
    // 1 kB working set = 8 lines.
    EXPECT_EQ(distinct.size(), 8u);
}

TEST(SyntheticKernel, WorkingSetLoadsWrapAroundTheSet)
{
    // 4 lines per load over a 6-line working set: every other load
    // straddles the end of the set and continues at its first line.
    auto p = simpleParams();
    p.phases[0].reuseFraction = 1.0;
    p.phases[0].storeFraction = 0.0;
    p.phases[0].transactionsPerLoad = 4;
    p.phases[0].workingSetBytes = 6 * lineBytes;
    const SyntheticKernel k(p);
    Addr ws_base = 0;
    std::int64_t ptr = 0;
    int straddles = 0;
    for (const auto &inst : drain(*k.makeWarpStream(0, 0))) {
        if (inst.op != OpClass::Mem)
            continue;
        if (ptr == 0)
            ws_base = inst.lineAddr(0);
        ASSERT_EQ(inst.transactionCount, 4);
        for (int t = 0; t < 4; ++t)
            EXPECT_EQ(inst.lineAddr(t),
                      ws_base + static_cast<Addr>((ptr + t) % 6) * lineBytes);
        straddles += ptr % 6 + 4 > 6 ? 1 : 0;
        ptr += 4;
    }
    EXPECT_GT(straddles, 0);
}

TEST(SyntheticKernel, StreamingAddressesNeverRepeat)
{
    auto p = simpleParams();
    p.phases[0].reuseFraction = 0.0;
    p.phases[0].storeFraction = 0.0;
    const SyntheticKernel k(p);
    std::set<Addr> seen;
    for (const auto &inst : drain(*k.makeWarpStream(0, 0))) {
        if (inst.op != OpClass::Mem)
            continue;
        for (int t = 0; t < inst.transactionCount; ++t) {
            EXPECT_TRUE(seen.insert(inst.lineAddr(t)).second);
        }
    }
}

TEST(SyntheticKernel, InvocationModifiersApply)
{
    auto p = simpleParams();
    InvocationMod longer;
    longer.lengthScale = 2.0;
    InvocationMod shorter;
    shorter.lengthScale = 0.5;
    shorter.blocksScale = 0.5;
    p.invocations = {longer, shorter};

    const SyntheticKernel inv0(p, 0);
    const SyntheticKernel inv1(p, 1);
    EXPECT_EQ(drain(*inv0.makeWarpStream(0, 0)).size(), 400u);
    EXPECT_EQ(drain(*inv1.makeWarpStream(0, 0)).size(), 100u);
    EXPECT_EQ(inv0.info().totalBlocks, 8);
    EXPECT_EQ(inv1.info().totalBlocks, 4);
}

TEST(SyntheticKernel, ReuseOverrideReplacesPhaseValue)
{
    auto p = simpleParams();
    p.phases[0].reuseFraction = 0.0;
    p.phases[0].storeFraction = 0.0;
    p.instrsPerWarp = 3000;
    InvocationMod reuse_all;
    reuse_all.reuseOverride = 1.0;
    p.invocations = {reuse_all};
    const SyntheticKernel k(p, 0);
    std::set<Addr> distinct;
    for (const auto &inst : drain(*k.makeWarpStream(0, 0)))
        if (inst.op == OpClass::Mem)
            for (int t = 0; t < inst.transactionCount; ++t)
                distinct.insert(inst.lineAddr(t));
    EXPECT_LE(distinct.size(), 8u);
}

TEST(SyntheticKernel, LoadImbalanceLengthensEarlyBlocks)
{
    auto p = simpleParams();
    p.longBlocks = 1;
    p.longBlockFactor = 10.0;
    const SyntheticKernel k(p);
    EXPECT_EQ(drain(*k.makeWarpStream(0, 0)).size(), 2000u);
    EXPECT_EQ(drain(*k.makeWarpStream(1, 0)).size(), 200u);
}

TEST(SyntheticKernel, SyncInstructionsEmittedAtInterval)
{
    auto p = simpleParams();
    p.phases[0].syncEvery = 20;
    p.instrsPerWarp = 400;
    const SyntheticKernel k(p);
    int syncs = 0;
    for (const auto &inst : drain(*k.makeWarpStream(0, 0)))
        syncs += inst.op == OpClass::Sync ? 1 : 0;
    EXPECT_NEAR(syncs, 400 / 21, 3);
}

TEST(SyntheticKernel, PhasesChangeTheMix)
{
    KernelParams p = simpleParams();
    PhaseParams compute;
    compute.weight = 0.5;
    compute.aluPerMem = 20.0;
    PhaseParams memory;
    memory.weight = 0.5;
    memory.aluPerMem = 1.0;
    p.phases = {compute, memory};
    p.instrsPerWarp = 4000;
    const SyntheticKernel k(p);
    const auto insts = drain(*k.makeWarpStream(0, 0));
    auto mem_fraction = [&insts](std::size_t from, std::size_t to) {
        int mem = 0;
        for (std::size_t i = from; i < to; ++i)
            mem += insts[i].op == OpClass::Mem ? 1 : 0;
        return static_cast<double>(mem) / static_cast<double>(to - from);
    };
    EXPECT_LT(mem_fraction(0, 2000), 0.1);
    EXPECT_GT(mem_fraction(2000, 4000), 0.3);
}

// ------------------------------------------------------------------- Zoo

TEST(KernelZoo, HasAll27Kernels)
{
    EXPECT_EQ(KernelZoo::all().size(), 27u);
}

TEST(KernelZoo, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &n : KernelZoo::names())
        EXPECT_TRUE(names.insert(n).second) << "duplicate " << n;
}

TEST(KernelZoo, CategoryRosterMatchesPaperFigures)
{
    EXPECT_EQ(KernelZoo::namesInCategory(KernelCategory::Compute).size(),
              9u);
    EXPECT_EQ(KernelZoo::namesInCategory(KernelCategory::Memory).size(),
              5u);
    EXPECT_EQ(KernelZoo::namesInCategory(KernelCategory::Cache).size(), 7u);
    EXPECT_EQ(
        KernelZoo::namesInCategory(KernelCategory::Unsaturated).size(),
        6u);
}

TEST(KernelZoo, TableTwoSpotChecks)
{
    // W_cta and max blocks straight from the paper's Table II.
    const auto &bfs = KernelZoo::byName("bfs-2").params;
    EXPECT_EQ(bfs.warpsPerBlock, 16);
    EXPECT_EQ(bfs.maxBlocksPerSm, 3);
    EXPECT_EQ(bfs.invocationCount(), 12);

    const auto &cutcp = KernelZoo::byName("cutcp").params;
    EXPECT_EQ(cutcp.warpsPerBlock, 6);
    EXPECT_EQ(cutcp.maxBlocksPerSm, 8);

    const auto &lbm = KernelZoo::byName("lbm").params;
    EXPECT_EQ(lbm.warpsPerBlock, 4);
    EXPECT_EQ(lbm.maxBlocksPerSm, 7);

    const auto &kmn = KernelZoo::byName("kmn").params;
    EXPECT_EQ(kmn.warpsPerBlock, 8);
    EXPECT_EQ(kmn.maxBlocksPerSm, 6);
}

TEST(KernelZoo, SpmvIsCacheSensitivePerFigures)
{
    EXPECT_EQ(KernelZoo::byName("spmv").params.category,
              KernelCategory::Cache);
}

TEST(KernelZoo, Leuko1UsesTexturePath)
{
    const auto &p = KernelZoo::byName("leuko-1").params;
    EXPECT_TRUE(p.phases[0].texture);
}

TEST(KernelZoo, Prtcl2HasLoadImbalance)
{
    const auto &p = KernelZoo::byName("prtcl-2").params;
    EXPECT_GT(p.longBlocks, 0);
    EXPECT_GT(p.longBlockFactor, 1.0);
}

TEST(KernelZoo, FractionsAreSane)
{
    for (const auto &e : KernelZoo::all()) {
        EXPECT_GT(e.appFraction, 0.0);
        EXPECT_LE(e.appFraction, 1.0);
    }
}

TEST(KernelZooDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(KernelZoo::byName("nope"), ::testing::ExitedWithCode(1),
                "unknown kernel");
}

/** Every zoo kernel produces valid, finite warp streams. */
class ZooStreams : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ZooStreams, StreamsAreValidAndFinite)
{
    const auto &entry = KernelZoo::byName(GetParam());
    const SyntheticKernel k(entry.params, 0);
    auto stream = k.makeWarpStream(0, 0);
    WarpInstruction inst;
    std::int64_t count = 0;
    while (stream->next(inst)) {
        ++count;
        ASSERT_LT(count, 1'000'000);
        if (inst.op == OpClass::Mem) {
            ASSERT_GE(inst.transactionCount, 1);
            ASSERT_LE(inst.transactionCount, maxTransactionsPerInst);
        }
    }
    EXPECT_GT(count, 0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ZooStreams,
                         ::testing::ValuesIn(KernelZoo::names()));

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the experiment harness: metrics math, policies, the runner
 * and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/policies.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"

namespace equalizer
{
namespace
{

// ----------------------------------------------------------------- math

TEST(HarnessMath, SpeedupAndEnergyHelpers)
{
    RunMetrics base;
    base.seconds = 2.0;
    base.dynamicJoules = 6.0;
    base.staticJoules = 4.0;
    RunMetrics fast;
    fast.seconds = 1.0;
    fast.dynamicJoules = 8.0;
    fast.staticJoules = 3.0;
    EXPECT_DOUBLE_EQ(speedupOver(base, fast), 2.0);
    EXPECT_DOUBLE_EQ(energyEfficiencyOver(base, fast), 10.0 / 11.0);
    EXPECT_NEAR(energyIncreaseOver(base, fast), 0.1, 1e-12);
}

TEST(HarnessMath, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(HarnessMath, MetricsAccumulate)
{
    RunMetrics a;
    a.seconds = 1.0;
    a.smCycles = 100;
    a.instructions = 10;
    a.l1Hits = 5;
    RunMetrics b = a;
    a += b;
    EXPECT_DOUBLE_EQ(a.seconds, 2.0);
    EXPECT_EQ(a.smCycles, 200u);
    EXPECT_EQ(a.instructions, 20u);
    EXPECT_EQ(a.l1Hits, 10u);
}

// ------------------------------------------------------------- policies

TEST(Policies, NamesAreStable)
{
    EXPECT_EQ(policies::baseline().name, "baseline");
    EXPECT_EQ(policies::smHigh().name, "sm-high");
    EXPECT_EQ(policies::smLow().name, "sm-low");
    EXPECT_EQ(policies::memHigh().name, "mem-high");
    EXPECT_EQ(policies::memLow().name, "mem-low");
    EXPECT_EQ(policies::staticBlocks(3).name, "blocks-3");
    EXPECT_EQ(policies::equalizer(EqualizerMode::Performance).name,
              "equalizer-perf");
    EXPECT_EQ(policies::equalizer(EqualizerMode::Energy).name,
              "equalizer-energy");
    EXPECT_EQ(policies::dynCta().name, "dyncta");
    EXPECT_EQ(policies::ccws().name, "ccws");
}

TEST(Policies, ByNameResolvesEveryCommandLineName)
{
    for (const char *name :
         {"baseline", "sm-high", "sm-low", "mem-high", "mem-low",
          "blocks-4", "equalizer-perf", "equalizer-energy", "dyncta",
          "ccws"})
        EXPECT_EQ(policies::byName(name).name, name);
}

TEST(PoliciesDeath, ByNameRejectsUnknownNamesAndBadBlockCounts)
{
    EXPECT_EXIT(policies::byName("blocks-x"), ::testing::ExitedWithCode(1),
                "policy 'blocks-x' needs a whole block count");
    EXPECT_EXIT(policies::byName("blocks-"), ::testing::ExitedWithCode(1),
                "policy 'blocks-' needs a whole block count");
    EXPECT_EXIT(policies::byName("blocks-2x"),
                ::testing::ExitedWithCode(1), "whole block count");
    EXPECT_EXIT(policies::byName("turbo"), ::testing::ExitedWithCode(1),
                "unknown policy 'turbo'");
}

TEST(Policies, BaselineBuildsNoController)
{
    EXPECT_EQ(policies::baseline().build(), nullptr);
}

TEST(Policies, NonBaselineBuildsController)
{
    auto c = policies::equalizer(EqualizerMode::Energy).build();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->name(), "equalizer-energy");
}

// ---------------------------------------------------------------- runner

TEST(Runner, RunsAllInvocationsOfAKernel)
{
    // A downscaled bfs-2 keeps this test quick but multi-invocation.
    KernelParams p = KernelZoo::byName("bfs-2").params;
    p.totalBlocks = 15;
    p.instrsPerWarp = 60;
    ExperimentRunner runner;
    const auto result = runner.run(p, policies::baseline());
    EXPECT_EQ(result.invocations.size(), 12u);
    double sum = 0.0;
    for (const auto &inv : result.invocations)
        sum += inv.seconds;
    EXPECT_NEAR(result.total.seconds, sum, 1e-12);
}

TEST(Runner, CacheReturnsIdenticalResults)
{
    KernelParams p = KernelZoo::byName("sgemm").params;
    p.totalBlocks = 12;
    p.instrsPerWarp = 100;
    p.name = "sgemm-mini";
    ExperimentRunner runner;
    const auto a = runner.run(p, policies::baseline());
    const auto b = runner.run(p, policies::baseline());
    EXPECT_EQ(a.total.smCycles, b.total.smCycles);
    EXPECT_DOUBLE_EQ(a.total.dynamicJoules, b.total.dynamicJoules);
}

TEST(Runner, InstrumentHookReceivesGpuAndController)
{
    KernelParams p = KernelZoo::byName("sgemm").params;
    p.totalBlocks = 12;
    p.instrsPerWarp = 100;
    p.name = "sgemm-mini2";
    ExperimentRunner runner;
    bool saw_gpu = false;
    bool controller_null = true;
    runner.run(p, policies::dynCta(),
               [&](GpuTop &gpu, GpuController *ctrl) {
                   saw_gpu = gpu.numSms() > 0;
                   controller_null = ctrl == nullptr;
               });
    EXPECT_TRUE(saw_gpu);
    EXPECT_FALSE(controller_null);
}

TEST(Runner, RunByNameResolvesRosterEntries)
{
    ExperimentRunner runner;
    GpuConfig tiny = GpuConfig::gtx480();
    ExperimentRunner small(tiny);
    // Just resolve; use the smallest kernel for speed.
    const auto result = small.runByName("histo-2", policies::baseline());
    EXPECT_EQ(result.kernel, "histo-2");
    EXPECT_GT(result.total.smCycles, 0u);
}

// ---------------------------------------------------------------- report

TEST(Report, FmtAndPct)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(pct(0.1234, 1), "12.3%");
}

TEST(Report, TableAlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "2.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(ReportDeath, MismatchedRowPanics)
{
    TablePrinter t({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "cells");
}

} // namespace
} // namespace equalizer

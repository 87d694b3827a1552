/**
 * @file
 * Tests for the autotune subsystem (docs/AUTOTUNE.md): occupancy
 * calculator boundary cases, the epsilon-Pareto frontier, structural
 * monotonicity of the fitted model across the synthetic zoo, and the
 * model-guided sweep's determinism and exactness contracts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include "autotune/autotuner.hh"
#include "autotune/features.hh"
#include "autotune/model.hh"
#include "autotune/occupancy.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"

using namespace equalizer;

namespace
{

SmResources
gtx480Sm()
{
    return SmResources::fromConfig(GpuConfig::gtx480());
}

/** A plan over bp-1's tail with a small explicit grid. */
SweepPlan
smallPlan(SweepStrategy strategy)
{
    SweepPlan plan;
    plan.kernel = KernelZoo::byName("bp-1").params;
    plan.kernel.invocations.assign(3, InvocationMod{});
    plan.strategy = strategy;
    plan.prefixPolicy = policies::baseline();
    plan.prefixInvocations = 2;
    plan.grid.smStates = {VfState::Low, VfState::High};
    plan.grid.memStates = {VfState::Normal};
    plan.grid.blocks = {1, 2};
    return plan;
}

} // namespace

// --------------------------------------------------------------------
// Occupancy calculator

TEST(Occupancy, BlockSlotLimited)
{
    // One warp per block, no other pressure: the 8 block slots bind
    // long before the 48 warp slots.
    BlockRequirements block;
    block.warpsPerBlock = 1;
    const OccupancyResult r = computeOccupancy(gtx480Sm(), block);
    EXPECT_EQ(r.blocksPerSm, 8);
    EXPECT_EQ(r.limiter, OccupancyLimiter::BlockSlots);
    EXPECT_EQ(r.activeWarps, 8);
    EXPECT_NEAR(r.occupancy, 8.0 / 48.0, 1e-12);
}

TEST(Occupancy, WarpLimited)
{
    // 16 warps per block: 48 / 16 = 3 blocks, under the 8 block slots.
    BlockRequirements block;
    block.warpsPerBlock = 16;
    const OccupancyResult r = computeOccupancy(gtx480Sm(), block);
    EXPECT_EQ(r.blocksPerSm, 3);
    EXPECT_EQ(r.limiter, OccupancyLimiter::Warps);
    EXPECT_EQ(r.activeWarps, 48);
    EXPECT_NEAR(r.occupancy, 1.0, 1e-12);
}

TEST(Occupancy, RegisterLimited)
{
    // 8 warps x 32 regs x 32 threads = 8192 registers per block out of
    // a 32 K file: 4 blocks, tighter than warps (48/8 = 6) and slots.
    BlockRequirements block;
    block.warpsPerBlock = 8;
    block.regsPerThread = 32;
    const OccupancyResult r = computeOccupancy(gtx480Sm(), block);
    EXPECT_EQ(r.blocksPerSm, 4);
    EXPECT_EQ(r.limiter, OccupancyLimiter::Registers);
}

TEST(Occupancy, RegisterAllocGranularityRoundsUp)
{
    // 33 regs/thread = 1056 per warp, which rounds up to 1088 in
    // 64-register units: 4 warps -> 4352/block -> 7 blocks, not the 7.7
    // a granularity-free division would suggest.
    BlockRequirements block;
    block.warpsPerBlock = 4;
    block.regsPerThread = 33;
    const OccupancyResult r = computeOccupancy(gtx480Sm(), block);
    EXPECT_EQ(r.blocksPerSm, 7);
    EXPECT_EQ(r.limiter, OccupancyLimiter::Registers);
}

TEST(Occupancy, SharedMemLimited)
{
    // 16 KiB of shared memory per block out of 48 KiB: 3 blocks,
    // tighter than warps (48/4 = 12) and block slots.
    BlockRequirements block;
    block.warpsPerBlock = 4;
    block.smemPerBlock = 16384;
    const OccupancyResult r = computeOccupancy(gtx480Sm(), block);
    EXPECT_EQ(r.blocksPerSm, 3);
    EXPECT_EQ(r.limiter, OccupancyLimiter::SharedMem);
}

TEST(Occupancy, TieBreaksInDeclarationOrder)
{
    // Block slots and warps both allow exactly 3: the reported limiter
    // is the earlier-declared one (BlockSlots).
    SmResources sm = gtx480Sm();
    sm.maxBlocks = 3;
    BlockRequirements block;
    block.warpsPerBlock = 16;
    const OccupancyResult r = computeOccupancy(sm, block);
    EXPECT_EQ(r.blocksPerSm, 3);
    EXPECT_EQ(r.limiter, OccupancyLimiter::BlockSlots);
}

TEST(OccupancyDeath, RejectsImpossibleInputs)
{
    const SmResources sm = gtx480Sm();

    BlockRequirements zero_warps;
    zero_warps.warpsPerBlock = 0;
    EXPECT_DEATH(computeOccupancy(sm, zero_warps), "warpsPerBlock");

    BlockRequirements too_wide;
    too_wide.warpsPerBlock = 64; // > 48 warp slots: never fits
    EXPECT_DEATH(computeOccupancy(sm, too_wide), "does not fit");

    BlockRequirements reg_hog;
    reg_hog.warpsPerBlock = 1;
    reg_hog.regsPerThread = 4096; // 131072 regs > the 32 K file
    EXPECT_DEATH(computeOccupancy(sm, reg_hog), "register");

    BlockRequirements smem_hog;
    smem_hog.warpsPerBlock = 1;
    smem_hog.smemPerBlock = 65536; // > 48 KiB pool
    EXPECT_DEATH(computeOccupancy(sm, smem_hog), "shared-memory");

    SmResources no_slots = sm;
    no_slots.maxWarps = 0;
    BlockRequirements ok;
    ok.warpsPerBlock = 1;
    EXPECT_DEATH(computeOccupancy(no_slots, ok), "slots");
}

TEST(Occupancy, WavesForGrid)
{
    // lbm: 120 blocks over 15 SMs = 8 per SM; at 4 concurrent = 2
    // waves, at 7 concurrent = 2 waves, at 8 = 1.
    EXPECT_EQ(wavesForGrid(120, 15, 4), 2);
    EXPECT_EQ(wavesForGrid(120, 15, 7), 2);
    EXPECT_EQ(wavesForGrid(120, 15, 8), 1);
    EXPECT_EQ(wavesForGrid(1, 15, 8), 1);
    EXPECT_DEATH(wavesForGrid(120, 0, 4), "positive");
}

TEST(Occupancy, EffectiveMaxBlocksRespectsTableTwoAcrossZoo)
{
    // The sweepable CTA axis never exceeds the kernel's Table II
    // residency limit or the device block slots, and always admits at
    // least one block.
    const GpuConfig cfg = GpuConfig::gtx480();
    for (const auto &entry : KernelZoo::all()) {
        const int eff = effectiveMaxBlocks(cfg, entry.params);
        EXPECT_GE(eff, 1) << entry.params.name;
        EXPECT_LE(eff, entry.params.maxBlocksPerSm) << entry.params.name;
        EXPECT_LE(eff, cfg.maxBlocksPerSm) << entry.params.name;
    }
}

// --------------------------------------------------------------------
// Pareto frontier

TEST(Pareto, ExactFrontierDropsDominatedPoints)
{
    // (1,3) and (3,1) trade off; (2,2) survives too (neither beats it
    // on both axes); (4,4) is dominated by everything.
    const std::vector<std::pair<double, double>> pts = {
        {1.0, 3.0}, {3.0, 1.0}, {2.0, 2.0}, {4.0, 4.0}};
    const std::vector<std::size_t> f = paretoFrontier(pts, 0.0);
    EXPECT_EQ(f, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Pareto, AxisMinimaAlwaysSurvive)
{
    const std::vector<std::pair<double, double>> pts = {
        {1.0, 100.0}, {100.0, 1.0}, {50.0, 50.0}};
    const std::vector<std::size_t> f = paretoFrontier(pts, 0.0);
    ASSERT_GE(f.size(), 2u);
    EXPECT_EQ(f[0], 0u);
    EXPECT_EQ(f[1], 1u);
}

TEST(Pareto, SlackKeepsNearFrontierPoints)
{
    // (1.04, 1.04) is strictly dominated by (1, 1) but within a 5%
    // band on both axes, so slack 0.05 keeps it and slack 0 drops it.
    const std::vector<std::pair<double, double>> pts = {
        {1.0, 1.0}, {1.04, 1.04}, {2.0, 2.0}};
    EXPECT_EQ(paretoFrontier(pts, 0.0),
              (std::vector<std::size_t>{0}));
    EXPECT_EQ(paretoFrontier(pts, 0.05),
              (std::vector<std::size_t>{0, 1}));
}

TEST(ParetoDeath, RejectsNegativeSlack)
{
    EXPECT_DEATH(paretoFrontier({{1.0, 1.0}}, -0.1), "non-negative");
}

// --------------------------------------------------------------------
// Model monotonicity across the synthetic zoo

namespace
{

/**
 * Analytic ground-truth samples spanning the VF grid and CTA axis,
 * with per-kernel constants derived from the zoo entry so every fit
 * sees a different surface shape.
 */
std::vector<MeasuredSample>
zooShapedSamples(const KernelParams &params, int max_cta)
{
    const double mem_share =
        1e-4 * (1.0 + params.warpsPerBlock / 8.0);
    const double alu_share = 1e-4 * (1.0 + params.instrsPerWarp / 500.0);
    const double wave_share = 5e-5 * params.totalBlocks / 60.0;

    std::vector<MeasuredSample> samples;
    for (VfState sm : {VfState::Low, VfState::Normal, VfState::High}) {
        for (VfState mem :
             {VfState::Low, VfState::Normal, VfState::High}) {
            for (int c = 1; c <= max_cta; ++c) {
                const double x = frequencyScale(sm);
                const double m = frequencyScale(mem);
                MeasuredSample s;
                s.point = OperatingPoint{sm, mem, c};
                s.seconds = mem_share / m + alu_share / x +
                            wave_share / (c * m);
                s.joules = 0.01 + 0.004 * x * x + 0.003 * m * m +
                           5.0 * s.seconds;
                samples.push_back(s);
            }
        }
    }
    return samples;
}

} // namespace

TEST(Model, MonotonicInFrequenciesAcrossZoo)
{
    // Non-negative coefficients over {1/m, 1/x, ...} bases make this
    // structural: raising either clock never predicts a slowdown, and
    // predicted SM cycles never shrink when the SM clock rises.
    const GpuConfig cfg = GpuConfig::gtx480();
    const std::vector<VfState> order = {VfState::Low, VfState::Normal,
                                        VfState::High};
    for (const auto &entry : KernelZoo::all()) {
        const int max_cta = effectiveMaxBlocks(cfg, entry.params);
        const SweepModel model = SweepModel::fit(
            zooShapedSamples(entry.params, max_cta), cfg.smNominalHz);
        EXPECT_LT(model.fitErrorSeconds(), 0.05) << entry.params.name;

        for (int c = 1; c <= max_cta; ++c) {
            for (std::size_t i = 1; i < order.size(); ++i) {
                for (VfState other : order) {
                    const OperatingPoint slow{order[i - 1], other, c};
                    const OperatingPoint fast{order[i], other, c};
                    EXPECT_LE(model.predictSeconds(fast),
                              model.predictSeconds(slow) + 1e-12)
                        << entry.params.name << " sm-axis cta " << c;
                    EXPECT_GE(model.predictCycles(fast),
                              model.predictCycles(slow) - 1e-9)
                        << entry.params.name << " cycles cta " << c;

                    const OperatingPoint mem_slow{other, order[i - 1],
                                                  c};
                    const OperatingPoint mem_fast{other, order[i], c};
                    EXPECT_LE(model.predictSeconds(mem_fast),
                              model.predictSeconds(mem_slow) + 1e-12)
                        << entry.params.name << " mem-axis cta " << c;
                }
            }
        }
    }
}

TEST(ModelDeath, RejectsEmptyFit)
{
    EXPECT_DEATH(SweepModel::fit({}, 700e6), "at least one");
}

// --------------------------------------------------------------------
// Grid expansion and probe selection

TEST(SweepGridExpansion, StableSmMajorOrder)
{
    SweepGrid grid;
    grid.smStates = {VfState::Low, VfState::High};
    grid.memStates = {VfState::Normal};
    grid.blocks = {1, 2};
    const auto points = expandSweepGrid(
        GpuConfig::gtx480(), KernelZoo::byName("bp-1").params, grid);
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0], (OperatingPoint{VfState::Low, VfState::Normal,
                                         1}));
    EXPECT_EQ(points[1], (OperatingPoint{VfState::Low, VfState::Normal,
                                         2}));
    EXPECT_EQ(points[2], (OperatingPoint{VfState::High, VfState::Normal,
                                         1}));
    EXPECT_EQ(points[3], (OperatingPoint{VfState::High, VfState::Normal,
                                         2}));
}

TEST(SweepGridExpansion, EmptyBlocksUsesOccupancyBound)
{
    SweepGrid grid; // default 3x3 states, empty blocks
    const GpuConfig cfg = GpuConfig::gtx480();
    const KernelParams &params = KernelZoo::byName("lbm").params;
    const auto points = expandSweepGrid(cfg, params, grid);
    EXPECT_EQ(static_cast<int>(points.size()),
              9 * effectiveMaxBlocks(cfg, params));
}

TEST(ProbeSelection, SpreadsRatiosAndCtas)
{
    // Six probes over a 3x3x7 grid must cover both extreme frequency
    // ratios and three distinct CTA values — the spread that makes the
    // six-term time fit well-conditioned.
    SweepGrid grid;
    const auto points = expandSweepGrid(
        GpuConfig::gtx480(), KernelZoo::byName("lbm").params, grid);
    const auto probes = selectProbePoints(points, grid, 6);
    ASSERT_EQ(probes.size(), 6u);

    std::vector<int> ctas;
    int low_high = 0, high_low = 0;
    for (const auto &p : probes) {
        if (std::find(ctas.begin(), ctas.end(), p.cta) == ctas.end())
            ctas.push_back(p.cta);
        low_high += p.smVf == VfState::Low && p.memVf == VfState::High;
        high_low += p.smVf == VfState::High && p.memVf == VfState::Low;
    }
    EXPECT_EQ(ctas.size(), 3u);
    EXPECT_EQ(low_high, 3);
    EXPECT_EQ(high_low, 3);
}

TEST(ProbeSelection, BudgetClampsToGrid)
{
    SweepGrid grid;
    grid.smStates = {VfState::Normal};
    grid.memStates = {VfState::Normal};
    grid.blocks = {1, 2};
    const auto points = expandSweepGrid(
        GpuConfig::gtx480(), KernelZoo::byName("bp-1").params, grid);
    EXPECT_EQ(selectProbePoints(points, grid, 10).size(), 2u);
}

// --------------------------------------------------------------------
// Sweep API contracts (simulation-backed; bp-1 is the cheap kernel)

TEST(SweepApi, ModelSweepMeasurementsMatchExhaustive)
{
    // On a grid small enough that the model simulates every point, the
    // model sweep's measured values and winners must equal the warm
    // exhaustive sweep's bit for bit — the feature tracer on probe 0
    // must be purely observational.
    ExperimentRunner warm_runner;
    const SweepResult exhaustive =
        warm_runner.runSweep(smallPlan(SweepStrategy::Warm));
    ExperimentRunner model_runner;
    const SweepResult model =
        model_runner.runSweep(smallPlan(SweepStrategy::Model));

    ASSERT_EQ(exhaustive.table.size(), 4u);
    ASSERT_EQ(model.table.size(), 4u);
    for (std::size_t i = 0; i < model.table.size(); ++i) {
        EXPECT_TRUE(model.table[i].simulated) << i;
        EXPECT_EQ(model.table[i].policy, exhaustive.table[i].policy);
        EXPECT_EQ(model.table[i].measuredSeconds,
                  exhaustive.table[i].measuredSeconds) << i;
        EXPECT_EQ(model.table[i].measuredCycles,
                  exhaustive.table[i].measuredCycles) << i;
        EXPECT_EQ(model.table[i].measuredJoules,
                  exhaustive.table[i].measuredJoules) << i;
    }
    EXPECT_EQ(model.bestPerf, exhaustive.bestPerf);
    EXPECT_EQ(model.bestEnergy, exhaustive.bestEnergy);
    EXPECT_GT(model.probeEpochSamples, 0u);
}

TEST(AutotuneDeterminism, ModelSweepIdenticalAcrossThreads)
{
    // The whole model pipeline — probes, fit, frontier, extra sims —
    // must be bit-identical whether the SMs tick serially or on two
    // workers.
    ExperimentRunner serial(GpuConfig::gtx480(), PowerConfig::gtx480(),
                            1);
    ExperimentRunner parallel(GpuConfig::gtx480(),
                              PowerConfig::gtx480(), 2);
    const SweepResult a =
        serial.runSweep(smallPlan(SweepStrategy::Model));
    const SweepResult b =
        parallel.runSweep(smallPlan(SweepStrategy::Model));

    ASSERT_EQ(a.table.size(), b.table.size());
    for (std::size_t i = 0; i < a.table.size(); ++i) {
        EXPECT_EQ(a.table[i].simulated, b.table[i].simulated) << i;
        EXPECT_EQ(a.table[i].predictedSeconds,
                  b.table[i].predictedSeconds) << i;
        EXPECT_EQ(a.table[i].predictedJoules,
                  b.table[i].predictedJoules) << i;
        EXPECT_EQ(a.table[i].measuredSeconds, b.table[i].measuredSeconds)
            << i;
        EXPECT_EQ(a.table[i].measuredJoules, b.table[i].measuredJoules)
            << i;
    }
    EXPECT_EQ(a.bestPerf, b.bestPerf);
    EXPECT_EQ(a.bestEnergy, b.bestEnergy);
    EXPECT_EQ(a.fitErrorSeconds, b.fitErrorSeconds);
    EXPECT_EQ(a.probeEpochSamples, b.probeEpochSamples);
}

TEST(SweepApi, RunnerTracerReplacesTheProbeTrace)
{
    // A runner-wide tracer records every point, so the model's first
    // probe gets no private feature trace: its features come from run
    // totals alone, and every measurement stays bit-identical.
    ExperimentRunner plain;
    const SweepResult ref =
        plain.runSweep(smallPlan(SweepStrategy::Model));

    MemoryTraceSink sink;
    Tracer tracer(TraceConfig{}, sink);
    ExperimentRunner traced;
    traced.setTracer(&tracer);
    const SweepResult got =
        traced.runSweep(smallPlan(SweepStrategy::Model));
    tracer.finish();

    EXPECT_GT(tracer.eventsRecorded(), 0u);
    EXPECT_GT(ref.probeEpochSamples, 0u);
    EXPECT_EQ(got.probeEpochSamples, 0u);
    EXPECT_EQ(got.probeIpc, ref.probeIpc);
    ASSERT_EQ(got.table.size(), ref.table.size());
    for (std::size_t i = 0; i < got.table.size(); ++i) {
        EXPECT_EQ(got.table[i].simulated, ref.table[i].simulated) << i;
        EXPECT_EQ(got.table[i].measuredSeconds,
                  ref.table[i].measuredSeconds) << i;
        EXPECT_EQ(got.table[i].measuredJoules,
                  ref.table[i].measuredJoules) << i;
    }
}

TEST(SweepApi, BestRowSelection)
{
    std::vector<SweepPointRow> table(3);
    for (int i = 0; i < 3; ++i) {
        table[static_cast<std::size_t>(i)].id = i;
        table[static_cast<std::size_t>(i)].simulated = true;
    }
    table[0].measuredSeconds = 2.0;
    table[1].measuredSeconds = 1.0;
    table[2].measuredSeconds = 1.0; // tie: lower id wins
    table[0].measuredJoules = 0.5;
    table[1].measuredJoules = 0.7;
    table[2].measuredJoules = 0.6;
    EXPECT_EQ(bestSweepRow(table, false), 1);
    EXPECT_EQ(bestSweepRow(table, true), 0);

    table[0].simulated = false; // unsimulated rows never win
    EXPECT_EQ(bestSweepRow(table, true), 2);
    EXPECT_EQ(bestSweepRow({}, false), -1);
}

namespace
{

/**
 * An 18-point grid over a shrunken bp-1 (30 blocks of 200-instruction
 * warps), small enough to sweep cold in about a second, large enough
 * that a 2-probe model sweep spends one frontier simulation.
 */
SweepPlan
counterPlan(SweepStrategy strategy)
{
    SweepPlan plan = smallPlan(strategy);
    plan.kernel.instrsPerWarp = 200;
    plan.kernel.totalBlocks = 30;
    plan.grid.smStates = {VfState::Low, VfState::Normal, VfState::High};
    plan.grid.memStates = {VfState::Low, VfState::High};
    plan.grid.blocks = {1, 2, 3};
    plan.probePoints = 2;
    return plan;
}

constexpr const char *kSweepCounters[] = {
    "sweep.points",      "sweep.forks",       "sweep.prefix_invocations",
    "sweep.invocations", "sweep.grid_points", "sweep.probes",
    "sweep.frontier_sims"};

/** One strategy and its sweep.* counters, in kSweepCounters order. */
struct CounterCase
{
    SweepStrategy strategy;
    std::uint64_t values[7];
};

// A readable parameter name in the test listing.
void
PrintTo(const CounterCase &c, std::ostream *os)
{
    *os << sweepStrategyName(c.strategy);
}

void
expectCounters(const SweepResult &result, const CounterCase &c)
{
    for (std::size_t i = 0; i < std::size(kSweepCounters); ++i) {
        EXPECT_EQ(result.stats.counterValue(kSweepCounters[i]),
                  c.values[i])
            << kSweepCounters[i];
    }
}

class SweepCounters : public ::testing::TestWithParam<CounterCase>
{
};

} // namespace

TEST_P(SweepCounters, PinnedOnASmallGrid)
{
    ExperimentRunner runner;
    expectCounters(runner.runSweep(counterPlan(GetParam().strategy)),
                   GetParam());
}

// Cold re-simulates the 2-invocation prefix per point, Warm once;
// Model simulates 2 probes plus 1 frontier point of the 18.
INSTANTIATE_TEST_SUITE_P(
    Strategies, SweepCounters,
    ::testing::Values(
        CounterCase{SweepStrategy::Cold, {18, 0, 36, 18, 0, 0, 0}},
        CounterCase{SweepStrategy::Warm, {18, 18, 2, 18, 0, 0, 0}},
        CounterCase{SweepStrategy::Model, {3, 3, 2, 3, 18, 2, 1}}));

TEST(SweepCountersReuse, OneRunnerMatchesFreshRunners)
{
    // Counters belong to one runSweep() call: a model sweep and a
    // plain run() on the same runner leave nothing behind for the next
    // sweep to report.
    ExperimentRunner runner;
    const SweepResult model =
        runner.runSweep(counterPlan(SweepStrategy::Model));
    runner.run(counterPlan(SweepStrategy::Warm).kernel,
               policies::baseline());
    const SweepResult warm =
        runner.runSweep(counterPlan(SweepStrategy::Warm));

    ExperimentRunner fresh_model;
    ExperimentRunner fresh_warm;
    const SweepResult model_ref =
        fresh_model.runSweep(counterPlan(SweepStrategy::Model));
    const SweepResult warm_ref =
        fresh_warm.runSweep(counterPlan(SweepStrategy::Warm));
    for (const char *name : kSweepCounters) {
        EXPECT_EQ(model.stats.counterValue(name),
                  model_ref.stats.counterValue(name))
            << name;
        EXPECT_EQ(warm.stats.counterValue(name),
                  warm_ref.stats.counterValue(name))
            << name;
    }
}

// --------------------------------------------------------------------
// Static features

TEST(Features, StaticFeaturesMatchZooParameters)
{
    const GpuConfig cfg = GpuConfig::gtx480();
    const KernelParams &lbm = KernelZoo::byName("lbm").params;
    const StaticFeatures f = extractStaticFeatures(cfg, lbm);
    EXPECT_EQ(f.warpsPerBlock, lbm.warpsPerBlock);
    EXPECT_EQ(f.totalBlocks, lbm.totalBlocks);
    EXPECT_EQ(f.numSms, cfg.numSms);
    EXPECT_EQ(f.maxBlocksPerSm, effectiveMaxBlocks(cfg, lbm));
    EXPECT_GT(f.occupancy, 0.0);
    // Wave counts shrink (weakly) as concurrency grows.
    for (int c = 2; c <= f.maxBlocksPerSm; ++c)
        EXPECT_LE(f.wavesAt(c), f.wavesAt(c - 1)) << c;
}

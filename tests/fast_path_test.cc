/**
 * @file
 * Tests for the cycle-skipping fast path (docs/FAST_PATH.md): bit
 * identity of metrics, energy and traces against the slow path, SM
 * sleep and its wake sources, every SM asleep at once on a fully
 * stalled machine, checkpointing out of a sleep-heavy run,
 * time-averaged memory gauges, and the wakeup-sanity fatal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/controller.hh"
#include "gpu/gpu_top.hh"
#include "harness/export.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"
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
using testing::loadUse;
using testing::storeInst;

KernelInfo
info(int blocks, int wcta, int max_blocks, const char *name = "fp")
{
    KernelInfo k;
    k.name = name;
    k.totalBlocks = blocks;
    k.warpsPerBlock = wcta;
    k.maxBlocksPerSm = max_blocks;
    return k;
}

GpuConfig
smallGpu(int sms = 4, bool fast_path = true)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.numSms = sms;
    cfg.fastPath = fast_path;
    return cfg;
}

/**
 * A kernel whose warps spend nearly all their time stalled on SFU
 * result latency with zero memory traffic: long spans where every SM
 * is stalled with a known wakeup and the memory system is quiescent, so
 * every SM sleeps at once.
 */
ScriptedKernel
sfuChainKernel(int blocks, int insts = 200)
{
    WarpInstruction sfu;
    sfu.op = OpClass::Sfu;
    sfu.dependsOnPrev = true;
    std::vector<WarpInstruction> script(
        static_cast<std::size_t>(insts), sfu);
    return ScriptedKernel(info(blocks, /*wcta=*/1, /*max_blocks=*/1),
                          std::move(script));
}

/** Exported-JSON form of one run (every figure-visible field). */
std::string
jsonOf(const std::string &kernel, const AppRunResult &r)
{
    ExportSink e = ExportSink::metricsTable();
    e.addResult(kernel, r.policy, r.total, r.invocations);
    std::ostringstream os;
    e.write(os, ExportFormat::Json);
    return os.str();
}

/** Equalizer tuned so sampling and epochs churn within short runs. */
PolicySpec
churnyEqualizer()
{
    EqualizerConfig ecfg;
    ecfg.epochCycles = 512;
    ecfg.sampleInterval = 64;
    return policies::equalizer(EqualizerMode::Performance, ecfg);
}

/** Run a zoo application with the fast path on or off. */
AppRunResult
runApp(const std::string &kernel, bool fast_path, const PolicySpec &policy,
       SchedulerPolicy scheduler = SchedulerPolicy::LooseRoundRobin)
{
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.fastPath = fast_path;
    cfg.scheduler = scheduler;
    ExperimentRunner runner(cfg, PowerConfig::gtx480());
    return runner.runByName(kernel, policy);
}

/** Same, recording the run into a trace; returns the serialized bytes. */
std::vector<std::uint8_t>
tracedRunBytes(const std::string &kernel, bool fast_path)
{
    TraceConfig tcfg;
    tcfg.epochCycles = 512;
    MemoryTraceSink sink;
    Tracer tracer(tcfg, sink);
    GpuConfig cfg = GpuConfig::gtx480();
    cfg.fastPath = fast_path;
    ExperimentRunner runner(cfg, PowerConfig::gtx480());
    runner.setTracer(&tracer);
    runner.runByName(kernel, churnyEqualizer());
    tracer.finish();
    return sink.serialize();
}

// --- Bit identity against the slow path --------------------------------

struct IdentityCase
{
    const char *kernel;
    /** Pinned baseline-policy SM cycles: a change here is a model change. */
    std::uint64_t smCycles;
    /**
     * Pinned warp-outcome totals, all seven fields: a miscounted
     * barrier or unaccounted warp moves no cycle count.
     */
    WarpStateCounts outcomes;
};

void
expectOutcomes(const WarpStateCounts &got, const WarpStateCounts &want)
{
    EXPECT_EQ(got.active, want.active);
    EXPECT_EQ(got.waiting, want.waiting);
    EXPECT_EQ(got.issued, want.issued);
    EXPECT_EQ(got.excessAlu, want.excessAlu);
    EXPECT_EQ(got.excessMem, want.excessMem);
    EXPECT_EQ(got.barrier, want.barrier);
    EXPECT_EQ(got.unaccounted, want.unaccounted);
}

// Keeps the listed test name free of pointer bytes (see table2_test.cc).
// The " threads=1" suffix is only there to keep ctest names stable.
void
PrintTo(const IdentityCase &c, std::ostream *os)
{
    *os << c.kernel << " threads=1";
}

class FastPathIdentity : public ::testing::TestWithParam<IdentityCase>
{
};

/**
 * The core guarantee: with the fast path enabled, every exported metric
 * of a full application run — cycles, instructions, energy joules,
 * cache/DRAM counters, warp-outcome totals, VF residencies — is byte
 * identical to the slow path's, per invocation and in aggregate.
 */
TEST_P(FastPathIdentity, MetricsMatchSlowPath)
{
    const auto [kernel, sm_cycles, outcomes] = GetParam();
    const AppRunResult fast = runApp(kernel, true, policies::baseline());
    const AppRunResult slow = runApp(kernel, false, policies::baseline());

    EXPECT_EQ(jsonOf(kernel, fast), jsonOf(kernel, slow));
    EXPECT_EQ(fast.total.smCycles, sm_cycles);
    expectOutcomes(fast.total.outcomeTotals, outcomes);
    expectOutcomes(slow.total.outcomeTotals, outcomes);

    // Spot-check the raw fields behind the JSON, including exact double
    // equality on the energy totals (the fast path replays the same
    // per-event deposits, not an analytic approximation).
    EXPECT_EQ(fast.total.smCycles, slow.total.smCycles);
    EXPECT_EQ(fast.total.memCycles, slow.total.memCycles);
    EXPECT_EQ(fast.total.instructions, slow.total.instructions);
    EXPECT_EQ(fast.total.dynamicJoules, slow.total.dynamicJoules);
    EXPECT_EQ(fast.total.staticJoules, slow.total.staticJoules);
    EXPECT_EQ(fast.total.l1Misses, slow.total.l1Misses);
    EXPECT_EQ(fast.total.dramAccesses, slow.total.dramAccesses);
    EXPECT_EQ(fast.total.dramPowerDownFraction,
              slow.total.dramPowerDownFraction);

    // The diagnostic sleep counters are the one permitted difference.
    // Every pinned kernel has edges with every SM asleep. An edge with
    // every SM asleep ticks no SM, so the ticks run fit in the other
    // edges.
    EXPECT_EQ(slow.total.fastForwardedCycles, 0u);
    EXPECT_GT(fast.total.fastForwardedCycles, 0u);
    EXPECT_LE(fast.total.fastForwardedCycles, fast.total.smCycles);
    EXPECT_LE(fast.total.smTicks,
              (fast.total.smCycles - fast.total.fastForwardedCycles) *
                  GpuConfig::gtx480().numSms);
    // The slow path ticks every L2 partition every memory cycle; on
    // the fast path partitions sleep.
    const std::uint64_t partition_cycles =
        slow.total.memCycles *
        static_cast<std::uint64_t>(GpuConfig::gtx480().mem.numPartitions);
    EXPECT_EQ(slow.total.partitionTicks, partition_cycles);
    EXPECT_LT(fast.total.partitionTicks, partition_cycles);
}

/** Same guarantee under a live Equalizer controller. */
TEST_P(FastPathIdentity, MetricsMatchSlowPathUnderEqualizer)
{
    const IdentityCase &c = GetParam();
    const AppRunResult fast = runApp(c.kernel, true, churnyEqualizer());
    const AppRunResult slow = runApp(c.kernel, false, churnyEqualizer());
    EXPECT_EQ(jsonOf(c.kernel, fast), jsonOf(c.kernel, slow));
}

// {active, waiting, issued, excessAlu, excessMem, barrier, unaccounted}
constexpr WarpStateCounts sgemmOutcomes{17180419, 4192851, 1440000, 11298164,
                                        249404,   0,       190821};
constexpr WarpStateCounts lbmOutcomes{70372816, 16887306, 192000, 619,
                                      53292891, 0,        9228423};
constexpr WarpStateCounts kmnOutcomes{182181157, 55889841, 580800, 22807,
                                      125687709, 0,        26228753};
constexpr WarpStateCounts stnclOutcomes{9558069, 6730967, 619920, 229775,
                                        53412,   1923995, 3186902};

INSTANTIATE_TEST_SUITE_P(
    KernelZoo, FastPathIdentity,
    ::testing::Values(IdentityCase{"sgemm", 48758, sgemmOutcomes},
                      IdentityCase{"lbm", 196839, lbmOutcomes},
                      IdentityCase{"kmn", 299943, kmnOutcomes},
                      // stncl parks warps at barriers, and a barrier
                      // release wakes their warps.
                      IdentityCase{"stncl", 42682, stnclOutcomes}),
    [](const ::testing::TestParamInfo<IdentityCase> &i) {
        return std::string(i.param.kernel) + "_t1";
    });

/**
 * Greedy-then-oldest at zoo scale: the GTO priority head moves with
 * every issue, so the visit order differs from round-robin on every
 * cycle. Pinned cycles and outcome totals, and fast path == slow path.
 */
class GtoPinned : public ::testing::TestWithParam<IdentityCase>
{
};

TEST_P(GtoPinned, MetricsMatchSlowPath)
{
    const IdentityCase &c = GetParam();
    const auto gto = SchedulerPolicy::GreedyThenOldest;
    const AppRunResult fast =
        runApp(c.kernel, true, policies::baseline(), gto);
    const AppRunResult slow =
        runApp(c.kernel, false, policies::baseline(), gto);
    EXPECT_EQ(jsonOf(c.kernel, fast), jsonOf(c.kernel, slow));
    EXPECT_EQ(fast.total.smCycles, c.smCycles);
    expectOutcomes(fast.total.outcomeTotals, c.outcomes);
}

INSTANTIATE_TEST_SUITE_P(
    KernelZoo, GtoPinned,
    ::testing::Values(
        IdentityCase{"kmn", 288257,
                     {174733122, 53321509, 580800, 23135, 120807678, 0,
                      25408556}},
        IdentityCase{"stncl", 42134,
                     {9492991, 6716704, 619920, 189064, 51350, 1915953,
                      3086371}}),
    [](const ::testing::TestParamInfo<IdentityCase> &i) {
        return std::string(i.param.kernel);
    });

/**
 * Policies that act on SM state while SMs sleep. DynCTA reads every
 * SM's sampleStates() every cycle and moves block targets, so a sleeper
 * must answer for the cycles it slept through. equalizer-energy moves
 * the SM clock's VF state mid-run, so each slept cycle's blocked L1
 * retry must be priced at the voltage it was spent at. Pinned cycles and
 * outcome totals, and fast path == slow path.
 */
struct PolicyCase
{
    const char *kernel;
    const char *policy;
    std::uint64_t smCycles;
    WarpStateCounts outcomes;
};

void
PrintTo(const PolicyCase &c, std::ostream *os)
{
    *os << c.kernel << " policy=" << c.policy;
}

class PolicyPinned : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(PolicyPinned, MetricsMatchSlowPath)
{
    const PolicyCase &c = GetParam();
    const PolicySpec policy = policies::byName(c.policy);
    const AppRunResult fast = runApp(c.kernel, true, policy);
    const AppRunResult slow = runApp(c.kernel, false, policy);
    EXPECT_EQ(jsonOf(c.kernel, fast), jsonOf(c.kernel, slow));
    EXPECT_EQ(fast.total.dynamicJoules, slow.total.dynamicJoules);
    EXPECT_EQ(fast.total.smCycles, c.smCycles);
    expectOutcomes(fast.total.outcomeTotals, c.outcomes);
    expectOutcomes(slow.total.outcomeTotals, c.outcomes);
    EXPECT_LT(fast.total.smTicks, slow.total.smTicks);
}

INSTANTIATE_TEST_SUITE_P(
    KernelZoo, PolicyPinned,
    ::testing::Values(
        PolicyCase{"lbm", "dyncta", 205473,
                   {69929865, 16636909, 192000, 407, 53100549, 0,
                    12963219}},
        PolicyCase{"kmn", "dyncta", 251583,
                   {150987844, 45718669, 580800, 19273, 104669102, 0,
                    24782423}},
        PolicyCase{"lbm", "equalizer-energy", 165220,
                   {30744613, 14122659, 192000, 430, 16429524, 0,
                    22317889}}),
    [](const ::testing::TestParamInfo<PolicyCase> &i) {
        std::string name = std::string(i.param.kernel) + "_" +
                           i.param.policy;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/**
 * Epoch traces are part of the identity contract too: a traced run
 * must serialize to the same bytes with the fast path on and off.
 */
TEST(FastPathTrace, TraceBytesMatchSlowPath)
{
    EXPECT_EQ(tracedRunBytes("lbm", true), tracedRunBytes("lbm", false));
    EXPECT_EQ(tracedRunBytes("kmn", true), tracedRunBytes("kmn", false));
}

// --- Engagement --------------------------------------------------------

/**
 * On a machine where every warp is stalled on a known-latency result
 * and the memory system is idle, every SM must sleep at once on some
 * cycles (fastForwardedCycles > 0) — and still reproduce the slow
 * path's metrics exactly, including the time-averaged DRAM queue gauge.
 */
TEST(FastPathEngagement, FastForwardsAllStalledMachine)
{
    auto run_once = [](bool fast_path) {
        GpuTop gpu(smallGpu(4, fast_path));
        ScriptedKernel k = sfuChainKernel(4);
        const RunMetrics m = gpu.runKernel(k);
        return std::make_pair(m, gpu.memorySystem().meanDramQueueDepth());
    };
    const auto [fast, fast_depth] = run_once(true);
    const auto [slow, slow_depth] = run_once(false);

    EXPECT_GT(fast.fastForwardedCycles, 0u);
    EXPECT_EQ(slow.fastForwardedCycles, 0u);
    EXPECT_EQ(fast.smCycles, slow.smCycles);
    EXPECT_EQ(fast.memCycles, slow.memCycles);
    EXPECT_EQ(fast.instructions, slow.instructions);
    EXPECT_EQ(fast.dynamicJoules, slow.dynamicJoules);
    EXPECT_EQ(fast.staticJoules, slow.staticJoules);
    EXPECT_EQ(fast_depth, slow_depth);
}

/**
 * Warps queued on a conflicted shared-memory pipe stall with no result
 * latency pending, so only the pipe draining (smemBusyUntil_) ends the
 * stall: the SM's stall wakeup must be exactly then.
 */
TEST(FastPathEngagement, SharedPipeStallWakesWhenThePipeDrains)
{
    WarpInstruction shared;
    shared.op = OpClass::Shared;
    shared.conflictWays = 16;
    auto run_once = [&shared](bool fast_path) {
        GpuTop gpu(smallGpu(2, fast_path));
        ScriptedKernel k(info(2, /*wcta=*/2, /*max_blocks=*/1),
                         std::vector<WarpInstruction>(32, shared));
        return gpu.runKernel(k);
    };
    const RunMetrics fast = run_once(true);
    const RunMetrics slow = run_once(false);

    EXPECT_GT(fast.fastForwardedCycles, 0u);
    EXPECT_EQ(fast.smCycles, slow.smCycles);
    EXPECT_EQ(fast.instructions, slow.instructions);
    EXPECT_EQ(fast.dynamicJoules, slow.dynamicJoules);
    EXPECT_EQ(fast.outcomeTotals.excessAlu, slow.outcomeTotals.excessAlu);
}

/**
 * Result latencies longer than the SM's 64-slot readyAt wheel wrap it:
 * each warp must wake exactly at its readyAt, not a lap early, with SM
 * sleep on and off.
 */
TEST(FastPathEngagement, LongLatencyWrapsTheWakeupWheel)
{
    auto run_once = [](bool fast_path) {
        GpuConfig cfg = smallGpu(2, fast_path);
        cfg.sfuDepLatency = 150;
        GpuTop gpu(cfg);
        ScriptedKernel k = sfuChainKernel(2, /*insts=*/20);
        return gpu.runKernel(k);
    };
    const RunMetrics fast = run_once(true);
    const RunMetrics slow = run_once(false);

    EXPECT_GT(fast.fastForwardedCycles, 0u);
    EXPECT_EQ(fast.smCycles, slow.smCycles);
    EXPECT_EQ(fast.instructions, slow.instructions);
    EXPECT_EQ(fast.dynamicJoules, slow.dynamicJoules);
    // 19 dependent SFU ops each wait out a 148-152 cycle latency.
    EXPECT_GE(slow.smCycles, 19u * 148u);
}

/**
 * Stores only, on a network that takes one request per memory cycle
 * from the whole device: each SM's L1 miss queue fills, its LSU head
 * blocks on it and the SM sleeps with no wakeup of its own. Only the
 * network's pop from that full queue wakes it, and the SM is settled
 * before the pop: its slept cycles were blocked retries, each an L1
 * access. Settling after the pop trips skipCycles()' stall assertion.
 */
TEST(FastPathEngagement, FullMissQueuePopWakesTheSleepingSm)
{
    auto run_once = [](bool fast_path) {
        GpuConfig cfg = smallGpu(4, fast_path);
        cfg.mem.nocRequestBwPerCycle = 1;
        GpuTop gpu(cfg);
        std::vector<WarpInstruction> script;
        for (Addr line = 0; line < 24; ++line)
            script.push_back(storeInst(line * lineBytes));
        ScriptedKernel k(info(8, /*wcta=*/4, /*max_blocks=*/2),
                         std::move(script));
        return gpu.runKernel(k);
    };
    const RunMetrics fast = run_once(true);
    const RunMetrics slow = run_once(false);

    EXPECT_LT(fast.smTicks, slow.smTicks);
    EXPECT_EQ(slow.smTicks, slow.smCycles * 4);
    EXPECT_EQ(fast.smCycles, slow.smCycles);
    EXPECT_EQ(fast.memCycles, slow.memCycles);
    EXPECT_EQ(fast.instructions, slow.instructions);
    EXPECT_EQ(fast.dynamicJoules, slow.dynamicJoules);
    EXPECT_EQ(fast.staticJoules, slow.staticJoules);
    expectOutcomes(fast.outcomeTotals, slow.outcomeTotals);
}

/** Records every SM's sampleStates() at every SM cycle. */
class StateRecorder : public GpuController
{
  public:
    std::string name() const override { return "state-recorder"; }

    void
    onSmCycle(GpuTop &g) override
    {
        for (int i = 0; i < g.numSms(); ++i) {
            const WarpStateCounts c = g.sm(i).sampleStates();
            samples.push_back({c.active, c.waiting, c.issued, c.excessAlu,
                               c.excessMem, c.barrier, c.unaccounted});
        }
    }

    std::vector<std::array<std::int64_t, 7>> samples;
};

/**
 * A sleeping SM's sampleStates() must be what its slept ticks would
 * have counted, every cycle. Blocks retire at varying rotation
 * positions, so a tick that frees a block counts its earlier slots
 * differently from the stalled ticks after it.
 */
TEST(FastPathEngagement, SleepingSmsSampleTheSlowPathStates)
{
    auto run_once = [](bool fast_path) {
        GpuTop gpu(smallGpu(4, fast_path));
        StateRecorder rec;
        gpu.setController(&rec);
        ScriptedKernel k(
            info(24, /*wcta=*/4, /*max_blocks=*/2), [](BlockId b, int w) {
                std::vector<WarpInstruction> script;
                for (int i = 0; i < 4; ++i) {
                    script.push_back(loadInst(
                        static_cast<Addr>((b * 4 + w) * 8 + i) * lineBytes));
                    script.push_back(loadUse());
                }
                return script;
            });
        const RunMetrics m = gpu.runKernel(k);
        return std::make_pair(m, rec.samples);
    };
    const auto [fast, fast_samples] = run_once(true);
    const auto [slow, slow_samples] = run_once(false);

    EXPECT_LT(fast.smTicks, slow.smTicks);
    EXPECT_EQ(fast.smCycles, slow.smCycles);
    ASSERT_EQ(fast_samples.size(), slow_samples.size());
    for (std::size_t i = 0; i < fast_samples.size(); ++i) {
        if (fast_samples[i] != slow_samples[i]) {
            ADD_FAILURE() << "SM " << i % 4 << " at cycle " << i / 4 + 1
                          << " samples different states";
            break;
        }
    }
}

/** fast_path=0 must fully disable SM sleep. */
TEST(FastPathEngagement, KnobDisablesSkipping)
{
    GpuTop gpu(smallGpu(4, /*fast_path=*/false));
    ScriptedKernel k = sfuChainKernel(4);
    const RunMetrics m = gpu.runKernel(k);
    EXPECT_EQ(m.fastForwardedCycles, 0u);
    EXPECT_EQ(m.smTicks, m.smCycles * 4); // no SM ever sleeps
    // Nor does any L2 partition.
    EXPECT_EQ(m.partitionTicks,
              m.memCycles * static_cast<std::uint64_t>(
                                gpu.memorySystem().numPartitions()));
}

// --- Checkpointing out of a sleep-heavy run ----------------------------

/**
 * Saves a whole-GPU checkpoint from onSmCycle at a target cycle, while
 * the SMs may be asleep. Construct disarmed for runs that should never
 * save.
 */
class SaveAtController : public GpuController
{
  public:
    SaveAtController(Cycle save_cycle, std::vector<std::uint8_t> *out)
        : saveCycle_(save_cycle), out_(out)
    {
    }

    std::string name() const override { return "save-at"; }

    void
    onSmCycle(GpuTop &g) override
    {
        if (out_ && out_->empty() &&
            g.smDomain().cycle() >= saveCycle_)
            *out_ = g.saveStateBuffer();
    }

  private:
    Cycle saveCycle_;
    std::vector<std::uint8_t> *out_;
};

/**
 * Checkpointing in the middle of a sleep-heavy run — with every SM
 * asleep on cycles before and after the save cycle — must restore into
 * a run whose final metrics match both the uninterrupted fast run and
 * the slow path.
 */
TEST(FastPathCheckpoint, MidSkipSaveRestoresIdentically)
{
    const Cycle save_cycle = 1000;

    auto make_kernel = [] { return sfuChainKernel(4); };

    // Uninterrupted runs, fast and slow, for the reference metrics.
    RunMetrics slow_ref;
    {
        GpuTop gpu(smallGpu(4, /*fast_path=*/false));
        ScriptedKernel k = make_kernel();
        slow_ref = gpu.runKernel(k);
    }

    // Donor: fast path on, saves mid-run, keeps going.
    std::vector<std::uint8_t> saved;
    RunMetrics donor_m;
    {
        GpuTop gpu(smallGpu(4, /*fast_path=*/true));
        SaveAtController ctrl(save_cycle, &saved);
        gpu.setController(&ctrl);
        ScriptedKernel k = make_kernel();
        donor_m = gpu.runKernel(k);
        ASSERT_FALSE(saved.empty()) << "kernel shorter than save cycle";
        EXPECT_GT(donor_m.fastForwardedCycles, 0u);
    }

    // Restored: fresh GPU, disarmed controller (SMs still sleep).
    RunMetrics restored_m;
    {
        GpuTop gpu(smallGpu(4, /*fast_path=*/true));
        SaveAtController ctrl(save_cycle, nullptr);
        gpu.setController(&ctrl);
        gpu.loadStateBuffer(saved);
        ASSERT_TRUE(gpu.midKernel());
        EXPECT_EQ(gpu.smDomain().cycle(), save_cycle);
        ScriptedKernel k = make_kernel();
        restored_m = gpu.resumeKernel(k);
    }

    EXPECT_EQ(donor_m.smCycles, slow_ref.smCycles);
    EXPECT_EQ(restored_m.smCycles, slow_ref.smCycles);
    EXPECT_EQ(restored_m.instructions, slow_ref.instructions);
    EXPECT_EQ(restored_m.dynamicJoules, slow_ref.dynamicJoules);
    EXPECT_EQ(restored_m.staticJoules, slow_ref.staticJoules);
    EXPECT_EQ(restored_m.memCycles, slow_ref.memCycles);
}

// --- Wakeup sanity -----------------------------------------------------

/** Plants a stale debug stall wakeup once the kernel is bound. */
class StaleWakeupController : public GpuController
{
  public:
    std::string name() const override { return "stale-wakeup"; }

    void
    onKernelLaunch(GpuTop &g) override
    {
        // setKernel() clears the seam, so plant it afterwards: SM 0 now
        // claims to be stalled until cycle 1 forever.
        g.sm(0).debugSetStallWakeup(1);
    }
};

/**
 * A stall wakeup that is not in the future is a corrupted invariant;
 * putting the SM to sleep must die loudly rather than sleep (or spin)
 * on it.
 */
TEST(FastPathDeath, PastWakeupIsFatal)
{
    EXPECT_EXIT(
        {
            GpuTop gpu(smallGpu(4, /*fast_path=*/true));
            StaleWakeupController ctrl;
            gpu.setController(&ctrl);
            std::vector<WarpInstruction> script(64, aluInst());
            ScriptedKernel k(info(4, 1, 1), std::move(script));
            gpu.runKernel(k);
        },
        ::testing::ExitedWithCode(1), "not in the future");
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the reentrant SchedulerCore: quantum-bounded stepping,
 * bit-identity of a stepped run against run-to-completion at either
 * fast_path= setting, mid-quantum checkpointability
 * and the launch-state guards.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu_top.hh"
#include "gpu/scheduler_core.hh"
#include "harness/export.hh"
#include "harness/policies.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"

namespace equalizer
{
namespace
{

/** Exported-JSON form of a run's metrics (the figures' data). */
std::string
jsonOf(const std::string &kernel, const RunMetrics &m)
{
    ExportSink e = ExportSink::metricsTable();
    e.addResult(kernel, "test", m, {m});
    std::ostringstream os;
    return (e.write(os, ExportFormat::Json), os.str());
}

/** Equalizer tuned so decisions churn within short runs. */
PolicySpec
churnyEqualizer()
{
    EqualizerConfig ecfg;
    ecfg.epochCycles = 512;
    ecfg.sampleInterval = 64;
    return policies::equalizer(EqualizerMode::Performance, ecfg);
}

TEST(StepStatus, ToStringNamesEveryState)
{
    EXPECT_STREQ(toString(StepStatus::Running), "running");
    EXPECT_STREQ(toString(StepStatus::Drained), "drained");
}

TEST(SchedulerCoreDeath, StepWithoutLaunchIsFatal)
{
    EXPECT_EXIT(
        {
            GpuTop gpu;
            SchedulerCore core(gpu);
            core.step();
        },
        ::testing::ExitedWithCode(1), "no run armed");
}

/**
 * A Running step lands exactly on its quantum boundary: the slow path
 * ticks one SM cycle at a time and fast-path skips are clamped to the
 * boundary, so step(n) advances exactly n SM cycles while work
 * remains — under both fast_path settings.
 */
TEST(SchedulerCore, StepLandsExactlyOnTheQuantumBoundary)
{
    for (const bool fast_path : {false, true}) {
        GpuConfig gcfg = GpuConfig::gtx480();
        gcfg.fastPath = fast_path;
        GpuTop gpu(gcfg, PowerConfig::gtx480());
        SchedulerCore core(gpu);
        SyntheticKernel launch(KernelZoo::byName("sgemm").params, 0);
        core.launchKernel(launch);

        for (const Cycle quantum : {Cycle(1), Cycle(7), Cycle(640)}) {
            const Cycle before = gpu.smDomain().cycle();
            ASSERT_EQ(core.step(quantum), StepStatus::Running)
                << "fast_path=" << fast_path;
            EXPECT_EQ(gpu.smDomain().cycle() - before, quantum)
                << "fast_path=" << fast_path;
        }
        core.run();
        core.finish();
    }
}

TEST(SchedulerCore, ActiveTracksTheRunLifetime)
{
    GpuTop gpu;
    SchedulerCore core(gpu);
    EXPECT_FALSE(core.active());
    SyntheticKernel launch(KernelZoo::byName("sgemm").params, 0);
    core.launchKernel(launch);
    EXPECT_TRUE(core.active());
    EXPECT_EQ(core.step(128), StepStatus::Running);
    EXPECT_TRUE(core.active());
    core.run();
    EXPECT_TRUE(core.active()); // drained but not yet finished
    const RunMetrics m = core.finish();
    EXPECT_GT(m.instructions, 0u);
    EXPECT_FALSE(core.active());
}

struct SteppedCase
{
    const char *kernel;
    bool fastPath;
};

// Keeps the listed test name free of pointer bytes (see table2_test.cc).
// The " threads=1" part is only there to keep ctest names stable.
void
PrintTo(const SteppedCase &c, std::ostream *os)
{
    *os << c.kernel << " threads=1, fast_path=" << c.fastPath;
}

class SteppedRun : public ::testing::TestWithParam<SteppedCase>
{
};

/**
 * The refactor's core guarantee: a run advanced through an arbitrary
 * (and deliberately irregular) sequence of step() quanta is
 * bit-identical to the legacy run-to-completion call — exported
 * metrics and trace bytes — at either fast_path= setting.
 */
TEST_P(SteppedRun, IsByteIdenticalToRunToCompletion)
{
    const auto [kernel_name, fast_path] = GetParam();
    const KernelParams &params = KernelZoo::byName(kernel_name).params;
    GpuConfig gcfg = GpuConfig::gtx480();
    gcfg.fastPath = fast_path;
    const PowerConfig pcfg = PowerConfig::gtx480();
    const PolicySpec policy = churnyEqualizer();
    TraceConfig tcfg;
    tcfg.epochCycles = 512;

    // Reference: the thin-client GpuTop::runKernel().
    MemoryTraceSink ref_sink;
    Tracer ref_tracer(tcfg, ref_sink);
    std::string ref_json;
    {
        GpuTop gpu(gcfg, pcfg);
        gpu.setTracer(&ref_tracer);
        const auto ctrl = policy.build();
        gpu.setController(ctrl.get());
        SyntheticKernel launch(params, 0);
        ref_json = jsonOf(params.name, gpu.runKernel(launch));
    }
    ref_tracer.finish();

    // Stepped: same device, advanced through irregular quanta.
    MemoryTraceSink step_sink;
    Tracer step_tracer(tcfg, step_sink);
    std::string step_json;
    {
        GpuTop gpu(gcfg, pcfg);
        gpu.setTracer(&step_tracer);
        const auto ctrl = policy.build();
        gpu.setController(ctrl.get());
        SyntheticKernel launch(params, 0);
        SchedulerCore core(gpu);
        core.launchKernel(launch);
        const Cycle quanta[] = {1, 911, 64, 7, 4096, 513};
        std::size_t q = 0;
        while (core.step(quanta[q % 6]) != StepStatus::Drained)
            ++q;
        step_json = jsonOf(params.name, core.finish());
    }
    step_tracer.finish();

    EXPECT_EQ(ref_json, step_json);
    EXPECT_EQ(ref_sink.serialize(), step_sink.serialize());
}

INSTANTIATE_TEST_SUITE_P(
    KernelZoo, SteppedRun,
    ::testing::Values(SteppedCase{"lbm", true}, SteppedCase{"lbm", false},
                      SteppedCase{"kmn", true}, SteppedCase{"kmn", false}),
    [](const auto &info) {
        return std::string(info.param.kernel) + "_threads1" +
               (info.param.fastPath ? "_fp1" : "_fp0");
    });

/**
 * The quantum boundary is a checkpointable device state: a buffer
 * saved between two step() calls restores into a fresh device whose
 * finished run exports byte-identically to the donor's.
 */
TEST(SchedulerCore, MidQuantumCheckpointRestoresByteIdentically)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    const PolicySpec policy = churnyEqualizer();

    std::vector<std::uint8_t> saved;
    std::string donor_json;
    {
        GpuTop donor;
        const auto ctrl = policy.build();
        donor.setController(ctrl.get());
        SyntheticKernel launch(params, 0);
        SchedulerCore core(donor);
        core.launchKernel(launch);
        ASSERT_EQ(core.step(1800), StepStatus::Running);
        ASSERT_EQ(donor.smDomain().cycle(), 1800u);
        saved = donor.saveStateBuffer();
        core.run();
        donor_json = jsonOf(params.name, core.finish());
    }
    ASSERT_FALSE(saved.empty());

    GpuTop restored;
    const auto ctrl = policy.build();
    restored.setController(ctrl.get());
    restored.loadStateBuffer(saved);
    ASSERT_TRUE(restored.midKernel());
    EXPECT_EQ(restored.smDomain().cycle(), 1800u);
    SyntheticKernel launch(params, 0);
    SchedulerCore core(restored);
    core.adoptResumedKernel(launch);
    core.run();
    EXPECT_EQ(donor_json, jsonOf(params.name, core.finish()));
}

} // namespace
} // namespace equalizer

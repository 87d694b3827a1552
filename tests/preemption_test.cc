/**
 * @file
 * Preemption-identity tests (docs/SERVING.md): a kernel evicted to a
 * checkpoint shelf mid-quantum, displaced by an interloper kernel on
 * the same warm device, and then restored must finish bit-identical to
 * the uninterrupted run — exported metrics and the traced event-stream
 * suffix. This is the property that lets
 * the preemptive dispatcher treat eviction as free of simulation-side
 * effects (only the modeled wall-clock cost remains).
 */

#include <gtest/gtest.h>

#include <cstring>
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
#include "trace/trace_reader.hh"
#include "trace/tracer.hh"

namespace equalizer
{
namespace
{

bool
sameEvents(const std::vector<TraceEvent> &a,
           const std::vector<TraceEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(TraceEvent)) != 0)
            return false;
    return true;
}

/** A tracing config that drains often within short test runs. */
TraceConfig
fastTrace()
{
    TraceConfig cfg;
    cfg.epochCycles = 512;
    return cfg;
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

/** Exported-JSON form of a run's metrics (the figures' data). */
std::string
jsonOf(const std::string &kernel, const RunMetrics &m)
{
    ExportSink e = ExportSink::metricsTable();
    e.addResult(kernel, "test", m, {m});
    std::ostringstream os;
    return (e.write(os, ExportFormat::Json), os.str());
}

struct PreemptCase
{
    const char *kernel;
};

// Keeps the listed test name free of pointer bytes (see table2_test.cc).
// The " threads=1" suffix is only there to keep ctest names stable.
void
PrintTo(const PreemptCase &c, std::ostream *os)
{
    *os << c.kernel << " threads=1";
}

class PreemptionIdentity : public ::testing::TestWithParam<PreemptCase>
{
};

/**
 * The serve-mode eviction flow, end to end on one warm device: step
 * the victim to an exact mid-run cycle, shelve it with
 * saveStateBuffer(), run a whole interloper kernel on the same device,
 * restore the shelf and finish. The victim's exported metrics must be
 * byte-identical to an uninterrupted run's, and its trace must replay
 * the uninterrupted run's suffix event for event.
 */
TEST_P(PreemptionIdentity, ResumedVictimIsByteIdentical)
{
    const KernelParams &params = KernelZoo::byName(GetParam().kernel).params;
    const KernelParams &interloper_params =
        KernelZoo::byName("bp-1").params;
    const GpuConfig gcfg = GpuConfig::gtx480();
    const PowerConfig pcfg = PowerConfig::gtx480();
    const PolicySpec policy = churnyEqualizer();
    const Cycle save_cycle = 1800; // mid-epoch on the 512 grid

    // --- Uninterrupted reference run, traced.
    MemoryTraceSink full_sink;
    Tracer full_tracer(fastTrace(), full_sink);
    std::string full_json;
    {
        GpuTop gpu(gcfg, pcfg);
        gpu.setTracer(&full_tracer);
        const auto ctrl = policy.build();
        gpu.setController(ctrl.get());
        SyntheticKernel launch(params, 0);
        full_json = jsonOf(params.name, gpu.runKernel(launch));
    }
    full_tracer.finish();

    // --- Preempted run on one warm device. The prefix must trace on
    // the same epoch grid (sink contents don't matter): epoch drains
    // reset the high-water counters, so only an equally-traced prefix
    // checkpoints the counter windows the full run sees.
    MemoryTraceSink resumed_sink;
    Tracer resumed_tracer(fastTrace(), resumed_sink);
    std::string resumed_json;
    {
        GpuTop gpu(gcfg, pcfg);
        NullTraceSink null_sink;
        Tracer prefix_tracer(fastTrace(), null_sink);
        gpu.setTracer(&prefix_tracer);
        const auto ctrl = policy.build();
        gpu.setController(ctrl.get());
        SchedulerCore core(gpu);

        SyntheticKernel victim(params, 0);
        core.launchKernel(victim);
        ASSERT_EQ(core.step(save_cycle), StepStatus::Running)
            << "victim finished before the save cycle";
        ASSERT_EQ(gpu.smDomain().cycle(), save_cycle);
        const std::vector<std::uint8_t> shelf = gpu.saveStateBuffer();

        // Interloper: a different kernel, launched on the warm device
        // the victim was evicted from, run to completion.
        SyntheticKernel interloper(interloper_params, 0);
        core.launchKernel(interloper);
        core.run();
        EXPECT_GT(core.finish().instructions, 0u);

        // Restore the shelf on the same device and finish the victim.
        gpu.setTracer(&resumed_tracer);
        gpu.loadStateBuffer(shelf);
        ASSERT_TRUE(gpu.midKernel());
        EXPECT_EQ(gpu.currentKernelName(), params.name);
        EXPECT_EQ(gpu.smDomain().cycle(), save_cycle);
        core.adoptResumedKernel(victim);
        core.run();
        resumed_json = jsonOf(params.name, core.finish());
    }
    resumed_tracer.finish();

    EXPECT_EQ(full_json, resumed_json);

    const TraceReader full =
        TraceReader::fromBytes(full_sink.serialize());
    const TraceReader resumed =
        TraceReader::fromBytes(resumed_sink.serialize());

    // The resumed trace opens with the Restore marker at the shelf
    // cycle — the eviction is visible in the trace, not silent.
    const auto resumed_device = resumed.deviceEvents();
    ASSERT_FALSE(resumed_device.empty());
    EXPECT_EQ(resumed_device.front().kind, TraceEventKind::Restore);
    EXPECT_EQ(resumed_device.front().cycle, save_cycle);

    // Suffix equality: the full run's events after the save cycle ==
    // the resumed run's events, modulo markers and the one-time
    // GaugeDef records.
    auto comparable = [save_cycle](const TraceReader &r) {
        std::vector<TraceEvent> out;
        for (const auto &e : r.eventsWithoutMarkers()) {
            if (e.kind == TraceEventKind::GaugeDef)
                continue;
            if (e.cycle > save_cycle)
                out.push_back(e);
        }
        return out;
    };
    const auto full_suffix = comparable(full);
    const auto resumed_all = comparable(resumed);
    ASSERT_FALSE(full_suffix.empty());
    EXPECT_TRUE(sameEvents(full_suffix, resumed_all))
        << "suffix streams diverged: " << full_suffix.size() << " vs "
        << resumed_all.size() << " events";
}

INSTANTIATE_TEST_SUITE_P(
    KernelZoo, PreemptionIdentity,
    ::testing::Values(PreemptCase{"sgemm"}, PreemptCase{"lbm"},
                      PreemptCase{"kmn"}),
    [](const auto &info) {
        return std::string(info.param.kernel) + "_threads1";
    });

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the epoch-level tracing subsystem: ring overflow
 * semantics, reader round-trips, Chrome trace_event export, and
 * checkpoint/fork trace interoperability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "gpu/gpu_top.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "trace/chrome_trace.hh"
#include "trace/ring_buffer.hh"
#include "trace/sink.hh"
#include "trace/trace_reader.hh"
#include "trace/tracer.hh"

namespace equalizer
{
namespace
{

bool
sameEvent(const TraceEvent &a, const TraceEvent &b)
{
    return std::memcmp(&a, &b, sizeof(TraceEvent)) == 0;
}

bool
sameEvents(const std::vector<TraceEvent> &a,
           const std::vector<TraceEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameEvent(a[i], b[i]))
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

/** Run @p kernel under Equalizer with tracing; return the trace. */
std::vector<std::uint8_t>
tracedRunBytes(const std::string &kernel)
{
    MemoryTraceSink sink;
    Tracer tracer(fastTrace(), sink);
    ExperimentRunner runner(GpuConfig::gtx480(), PowerConfig::gtx480());
    runner.setTracer(&tracer);
    runner.runByName(kernel, churnyEqualizer());
    tracer.finish();
    return sink.serialize();
}

// --- Ring buffer -------------------------------------------------------

TEST(TraceRing, OverflowDropsNewestAndCounts)
{
    TraceRing ring(4);
    for (int i = 0; i < 7; ++i)
        ring.push(makeSmEvent(TraceEventKind::BlockComplete, 100 + i, 0,
                              i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.drops(), 3u);

    // FIFO drain yields the four oldest events; the drop counter is
    // read-and-reset.
    std::vector<TraceEvent> out;
    ring.drainInto(out);
    ASSERT_EQ(out.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)].p.i[0], i);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.takeDrops(), 3u);
    EXPECT_EQ(ring.drops(), 0u);
}

TEST(TraceRing, DropsAndCountsAcrossTheWrapPoint)
{
    TraceRing ring(4);
    std::vector<TraceEvent> out;
    for (int i = 0; i < 3; ++i)
        ring.push(makeSmEvent(TraceEventKind::BlockComplete, 100, 0, i));
    ring.drainInto(out); // the head now sits in the last slot
    out.clear();

    for (int i = 3; i < 9; ++i)
        ring.push(makeSmEvent(TraceEventKind::BlockComplete, 100, 0, i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.drops(), 2u);

    // The four that fit come out oldest first; the two newest dropped.
    ring.drainInto(out);
    ASSERT_EQ(out.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)].p.i[0], 3 + i);
    EXPECT_EQ(ring.takeDrops(), 2u);
}

TEST(TraceRing, TracerTurnsOverflowIntoDropsEvents)
{
    MemoryTraceSink sink;
    TraceConfig cfg;
    cfg.bufKb = 1; // 1 KiB / 48 B = 21 events per ring
    Tracer tracer(cfg, sink);
    tracer.attach(2);

    const std::size_t cap = tracer.ring(0)->capacity();
    for (std::size_t i = 0; i < cap + 5; ++i) {
        tracer.ring(0)->push(makeSmEvent(TraceEventKind::BlockComplete,
                                         static_cast<Cycle>(i), 0));
    }
    tracer.drainRings(cap + 5);
    tracer.finish();

    EXPECT_EQ(tracer.eventsDropped(), 5u);
    const TraceReader trace = TraceReader::fromBytes(sink.serialize());
    // The drain appends one Drops record carrying the counted loss.
    const auto sm0 = trace.smEvents(0);
    ASSERT_FALSE(sm0.empty());
    EXPECT_EQ(sm0.back().kind, TraceEventKind::Drops);
    EXPECT_EQ(sm0.back().p.i[0], 5);
    EXPECT_TRUE(trace.smEvents(1).empty());
}

// --- Reader round-trip -------------------------------------------------

TEST(TraceReader, RoundTripsARealRun)
{
    const auto bytes = tracedRunBytes("sgemm");
    const TraceReader trace = TraceReader::fromBytes(bytes);

    EXPECT_EQ(trace.segments(), 1);
    EXPECT_EQ(trace.header().numSms,
              static_cast<std::uint32_t>(GpuConfig::gtx480().numSms));
    ASSERT_FALSE(trace.events().empty());

    // The run is bracketed by kernel begin/end on the device track.
    const auto device = trace.deviceEvents();
    ASSERT_GE(device.size(), 2u);
    EXPECT_EQ(device.front().kind, TraceEventKind::KernelBegin);
    EXPECT_EQ(traceEventString(device.front()), "sgemm");
    bool saw_end = false;
    for (const auto &e : device)
        saw_end = saw_end || e.kind == TraceEventKind::KernelEnd;
    EXPECT_TRUE(saw_end);

    // Equalizer emits per-SM epoch samples, and the standard gauges
    // are defined.
    bool saw_sample = false;
    for (const auto &e : trace.smEvents(0))
        saw_sample = saw_sample || e.kind == TraceEventKind::EpochSample;
    EXPECT_TRUE(saw_sample);
    const auto gauges = trace.gaugeNames();
    EXPECT_NE(std::find(gauges.begin(), gauges.end(), "instructions"),
              gauges.end());
}

TEST(TraceReader, TruncatedFileIsFatal)
{
    auto bytes = tracedRunBytes("sgemm");
    ASSERT_GT(bytes.size(), 7u);
    bytes.erase(bytes.end() - 7, bytes.end()); // mid-record
    EXPECT_EXIT(TraceReader::fromBytes(bytes),
                ::testing::ExitedWithCode(1), "trace");
}

// --- Chrome trace_event export -----------------------------------------

TEST(ChromeTrace, ExportLooksLikeTraceEventJson)
{
    const TraceReader trace =
        TraceReader::fromBytes(tracedRunBytes("sgemm"));
    std::ostringstream os;
    writeChromeTrace(trace, os);
    const std::string out = os.str();

    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    // Process metadata for the SM, device, clock and gauge tracks.
    EXPECT_NE(out.find("\"name\":\"device\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"SM 0\""), std::string::npos);
    // Kernel span + warp-state counters from the Equalizer samples.
    EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"warp_states\""), std::string::npos);

    // Structural sanity without a JSON parser: braces and brackets
    // balance, and the object terminates cleanly.
    long braces = 0, brackets = 0;
    for (char c : out) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_TRUE(chromeTracePath("out.json"));
    EXPECT_FALSE(chromeTracePath("out.bin"));
}

// --- Checkpoint / fork interoperability --------------------------------

/**
 * The trace/checkpoint interop contract (docs/TRACING.md): a run
 * restored from a mid-kernel checkpoint traces exactly the
 * uninterrupted run's suffix — same events, same order — modulo the
 * lifecycle markers and the one-time GaugeDef records.
 */
TEST(TraceCheckpoint, ResumedSuffixMatchesUninterruptedRun)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    const GpuConfig gcfg = GpuConfig::gtx480();
    const PowerConfig pcfg = PowerConfig::gtx480();
    const PolicySpec policy = churnyEqualizer();
    const Cycle save_cycle = 1800; // mid-epoch

    // Uninterrupted traced run F.
    MemoryTraceSink full_sink;
    Tracer full_tracer(fastTrace(), full_sink);
    {
        GpuTop gpu(gcfg, pcfg);
        gpu.setTracer(&full_tracer);
        const auto ctrl = policy.build();
        gpu.setController(ctrl.get());
        for (int inv = 0; inv < params.invocationCount(); ++inv) {
            SyntheticKernel launch(params, inv);
            gpu.runKernel(launch);
        }
    }
    full_tracer.finish();

    // Donor saving mid-kernel at save_cycle. The donor must trace on
    // the same epoch grid (sink contents don't matter): epoch drains
    // reset the high-water counters, so only an equally-traced prefix
    // checkpoints the same counter windows the full run sees.
    std::vector<std::uint8_t> saved;
    NullTraceSink null_sink;
    Tracer donor_tracer(fastTrace(), null_sink);
    {
        GpuTop donor(gcfg, pcfg);
        donor.setTracer(&donor_tracer);
        const auto ctrl = policy.build();
        donor.setController(ctrl.get());
        donor.setCycleObserver([&saved, save_cycle](GpuTop &g) {
            if (saved.empty() && g.smDomain().cycle() == save_cycle)
                saved = g.saveStateBuffer();
        });
        SyntheticKernel launch(params, 0);
        donor.runKernel(launch);
    }
    ASSERT_FALSE(saved.empty());

    // Traced restored run B: resume invocation 0, finish the schedule.
    MemoryTraceSink resumed_sink;
    Tracer resumed_tracer(fastTrace(), resumed_sink);
    {
        GpuTop gpu(gcfg, pcfg);
        gpu.setTracer(&resumed_tracer);
        const auto ctrl = policy.build();
        gpu.setController(ctrl.get());
        gpu.loadStateBuffer(saved);
        ASSERT_TRUE(gpu.midKernel());
        {
            SyntheticKernel launch(params, 0);
            gpu.resumeKernel(launch);
        }
        for (int inv = 1; inv < params.invocationCount(); ++inv) {
            SyntheticKernel launch(params, inv);
            gpu.runKernel(launch);
        }
    }
    resumed_tracer.finish();

    const TraceReader full =
        TraceReader::fromBytes(full_sink.serialize());
    const TraceReader resumed =
        TraceReader::fromBytes(resumed_sink.serialize());

    // B opens with the Restore marker at the checkpoint cycle.
    const auto resumed_device = resumed.deviceEvents();
    ASSERT_FALSE(resumed_device.empty());
    EXPECT_EQ(resumed_device.front().kind, TraceEventKind::Restore);
    EXPECT_EQ(resumed_device.front().cycle, save_cycle);

    // Stream equality: F's events after the checkpoint == B's events,
    // once markers and the definitional GaugeDef records are removed.
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

    // Both runs define the same gauges.
    EXPECT_EQ(full.gaugeNames(), resumed.gaugeNames());

    // `cat prefix suffix` concatenation parses as one multi-segment
    // trace whose stream is the two runs' streams back to back.
    auto cat = full_sink.serialize();
    const auto suffix_bytes = resumed_sink.serialize();
    cat.insert(cat.end(), suffix_bytes.begin(), suffix_bytes.end());
    const TraceReader joined = TraceReader::fromBytes(cat);
    EXPECT_EQ(joined.segments(), 2);
    EXPECT_EQ(joined.events().size(),
              full.events().size() + resumed.events().size());
}

/** forkFrom() stamps the child's trace with a Fork marker. */
TEST(TraceCheckpoint, ForkedChildTraceOpensWithForkMarker)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    const GpuConfig gcfg = GpuConfig::gtx480();
    const PowerConfig pcfg = PowerConfig::gtx480();

    GpuTop parent(gcfg, pcfg);
    {
        SyntheticKernel launch(params, 0);
        parent.runKernel(launch);
    }

    MemoryTraceSink sink;
    Tracer tracer(fastTrace(), sink);
    GpuTop child(gcfg, pcfg);
    child.setTracer(&tracer);
    child.forkFrom(parent);
    {
        SyntheticKernel launch(params, 1);
        child.runKernel(launch);
    }
    tracer.finish();

    const TraceReader trace = TraceReader::fromBytes(sink.serialize());
    // forkFrom() is restore + fork: the child timeline opens with the
    // Restore of the parent's state followed by the Fork stamp.
    const auto device = trace.deviceEvents();
    ASSERT_GE(device.size(), 2u);
    EXPECT_EQ(device[0].kind, TraceEventKind::Restore);
    EXPECT_EQ(device[1].kind, TraceEventKind::Fork);
    // The marker-stripped view hides the lifecycle records.
    for (const auto &e : trace.eventsWithoutMarkers())
        EXPECT_FALSE(isTraceMarker(e.kind));
}

} // namespace
} // namespace equalizer

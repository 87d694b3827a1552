/**
 * @file
 * Checkpoint/restore tests: component round-trips through the
 * StateVisitor buffers, whole-GPU mid-kernel save + resume equivalence
 * (serial and multi-threaded), fork semantics, and the strict-argument
 * satellite features (unknown-key rejection).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "gpu/gpu_top.hh"
#include "harness/export.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"
#include "mem/queues.hh"
#include "sim/state.hh"

namespace equalizer
{
namespace
{

constexpr std::uint64_t testFingerprint = 0x5eed;

/** Save one component's state into a standalone buffer. */
template <typename T>
std::vector<std::uint8_t>
saveOf(T &component)
{
    BufferStateWriter w(testFingerprint);
    component.visitState(w);
    return w.take();
}

/** Restore one component's state from a standalone buffer. */
template <typename T>
void
loadInto(T &component, const std::vector<std::uint8_t> &buf)
{
    BufferStateReader r(buf, testFingerprint);
    component.visitState(r);
    r.finish();
}

// --- Component round-trips --------------------------------------------

TEST(StateRoundTrip, MshrKeepsInFlightMergesAndWaiterOrder)
{
    MshrFile a(8, 4);
    ASSERT_EQ(a.allocate(0x300, 2), MshrFile::Outcome::NewMiss);
    ASSERT_EQ(a.allocate(0x100, 3), MshrFile::Outcome::NewMiss);
    ASSERT_EQ(a.allocate(0x100, 5), MshrFile::Outcome::Merged);
    ASSERT_EQ(a.allocate(0x300, 4), MshrFile::Outcome::Merged);
    ASSERT_EQ(a.allocate(0x300, 6), MshrFile::Outcome::Merged);
    ASSERT_EQ(a.allocate(0x240, 1), MshrFile::Outcome::NewMiss);

    MshrFile b(8, 4);
    loadInto(b, saveOf(a));

    EXPECT_EQ(b.outstanding(), 3);
    EXPECT_TRUE(b.tracking(0x100));
    EXPECT_TRUE(b.tracking(0x240));
    // Merge order is architectural: fills wake waiters in merge order.
    EXPECT_EQ(b.fill(0x300), (std::vector<WarpId>{2, 4, 6}));
    EXPECT_EQ(b.fill(0x100), (std::vector<WarpId>{3, 5}));
    EXPECT_EQ(b.outstanding(), 1);
}

TEST(StateRoundTrip, MshrBytesAreCanonicalAcrossInsertionOrder)
{
    // Same logical contents built in different orders must serialize
    // to identical bytes (sorted-address canonical form).
    MshrFile a(8, 4), b(8, 4);
    for (Addr addr : {0x500, 0x100, 0x300})
        a.allocate(addr, static_cast<WarpId>(addr >> 8));
    for (Addr addr : {0x100, 0x300, 0x500})
        b.allocate(addr, static_cast<WarpId>(addr >> 8));
    EXPECT_EQ(saveOf(a), saveOf(b));
}

TEST(StateRoundTrip, MshrCapacityMismatchIsFatal)
{
    MshrFile a(8, 4);
    const auto buf = saveOf(a);
    EXPECT_EXIT(
        {
            MshrFile b(16, 4);
            loadInto(b, buf);
        },
        ::testing::ExitedWithCode(1), "MSHR entry count");
}

TEST(StateRoundTrip, PartiallyDrainedBoundedQueue)
{
    BoundedQueue<int> a(4);
    for (int i = 1; i <= 4; ++i)
        ASSERT_TRUE(a.push(i));
    ASSERT_EQ(a.pop(), 1);
    ASSERT_EQ(a.pop(), 2);

    BoundedQueue<int> b(4);
    loadInto(b, saveOf(a));

    EXPECT_EQ(b.size(), 2u);
    EXPECT_FALSE(b.full());
    EXPECT_TRUE(b.push(5));
    EXPECT_TRUE(b.push(6));
    EXPECT_FALSE(b.push(7)); // capacity survives the round-trip
    EXPECT_EQ(b.pop(), 3);
    EXPECT_EQ(b.pop(), 4);
    EXPECT_EQ(b.pop(), 5);
    EXPECT_EQ(b.pop(), 6);
}

TEST(StateRoundTrip, PartiallyDrainedDelayQueue)
{
    DelayQueue<int> a(8);
    ASSERT_TRUE(a.push(10, 5));
    ASSERT_TRUE(a.push(20, 9));
    ASSERT_TRUE(a.push(30, 9));
    ASSERT_EQ(a.popReady(6), 10);

    DelayQueue<int> b(8);
    loadInto(b, saveOf(a));

    EXPECT_EQ(b.size(), 2u);
    EXPECT_FALSE(b.headReady(8)); // in-flight latency is preserved
    EXPECT_EQ(b.popReady(9), 20);
    EXPECT_EQ(b.popReady(9), 30);
    EXPECT_TRUE(b.empty());
}

TEST(StateRoundTrip, DramBankTimingContinuesExactly)
{
    const MemConfig cfg = MemConfig::gtx480();
    EnergyModel e1, e2;
    DramPartition live(cfg, 0, e1);

    // Mix row hits and conflicts, then advance into the middle of a
    // burst so busyUntil_/openRow_/queue_ are all non-trivial.
    Cycle now = 0;
    for (int i = 0; i < 6; ++i) {
        const Addr addr =
            static_cast<Addr>(i % 2) * 0x40000 +
            static_cast<Addr>(i) * lineBytes;
        ASSERT_TRUE(
            live.submit(MemAccess{addr, 0, i, false, false}, now));
    }
    std::vector<std::optional<MemAccess>> prefix;
    for (; now < 30; ++now)
        prefix.push_back(live.tick(now));

    DramPartition restored(cfg, 0, e2);
    loadInto(restored, saveOf(live));

    // From here on both instances must emit the identical completion
    // sequence, cycle for cycle.
    for (; now < 600; ++now) {
        const auto a = live.tick(now);
        const auto b = restored.tick(now);
        ASSERT_EQ(a.has_value(), b.has_value()) << "cycle " << now;
        if (a) {
            EXPECT_EQ(a->lineAddr, b->lineAddr);
            EXPECT_EQ(a->warp, b->warp);
        }
    }
    EXPECT_EQ(live.accesses(), restored.accesses());
    EXPECT_EQ(live.rowHits(), restored.rowHits());
    EXPECT_EQ(live.meanQueueDelay(), restored.meanQueueDelay());
    EXPECT_EQ(live.poweredDownCycles(), restored.poweredDownCycles());
}

TEST(StateRoundTrip, TamperedPayloadIsFatal)
{
    MshrFile a(8, 4);
    a.allocate(0x100, 1);
    auto buf = saveOf(a);
    buf[buf.size() / 2] ^= 0x40; // corrupt one payload byte
    EXPECT_EXIT(
        {
            MshrFile b(8, 4);
            loadInto(b, buf);
        },
        ::testing::ExitedWithCode(1), "checkpoint");
}

/** One section of a chosen version holding a vector. */
struct VersionedVector
{
    std::uint32_t version = 1;
    std::vector<std::uint64_t> values;

    void
    visitState(StateVisitor &v)
    {
        v.beginSection("vec", version);
        v.field(values);
        v.endSection();
    }
};

/**
 * A section from an older layout would be misparsed field by field, so
 * any version mismatch is refused, not only a newer one.
 */
TEST(CheckpointDeath, OlderSectionVersionIsFatal)
{
    VersionedVector old_layout{1, {1, 2, 3}};
    const auto buf = saveOf(old_layout);
    VersionedVector current;
    current.version = 2;
    EXPECT_EXIT(
        loadInto(current, buf), ::testing::ExitedWithCode(1),
        "section 'vec' has version 1, but this build reads version 2");
}

/**
 * A forged element count is refused before the container is resized,
 * even with the section checksum recomputed to match: a huge count
 * must end in fatal(), not an uncaught std::bad_alloc.
 */
TEST(CheckpointDeath, ForgedElementCountIsFatal)
{
    VersionedVector small{1, {1, 2, 3}};
    auto buf = saveOf(small);

    // Header (magic, format version, fingerprint), then the frame: tag
    // length, tag, section version, payload length; the count opens
    // the payload, and the checksum follows it.
    const std::size_t payload = 8 + 4 + 8 + 4 + 3 + 4 + 8;
    std::uint64_t payload_len = 0;
    std::memcpy(&payload_len, buf.data() + payload - 8, 8);
    const std::uint64_t forged = std::uint64_t{1} << 40;
    std::memcpy(buf.data() + payload, &forged, sizeof(forged));
    const std::uint64_t sum =
        fnv1a(buf.data() + payload, static_cast<std::size_t>(payload_len));
    std::memcpy(buf.data() + payload + payload_len, &sum, sizeof(sum));

    EXPECT_EXIT(
        {
            VersionedVector restored;
            loadInto(restored, buf);
        },
        ::testing::ExitedWithCode(1), "count 1099511627776 in section 'vec'");
}

// --- Strict argument parsing (satellite) ------------------------------

std::vector<Knob>
kernelPolicyKnobs()
{
    return {{"kernel", "roster kernel", {}}, {"policy", "policy", {}}};
}

TEST(ConfigDeath, UnknownKeySuggestsCloseMatches)
{
    EXPECT_EXIT(Config::fromArgs({"kernal=lbm"}, kernelPolicyKnobs()),
                ::testing::ExitedWithCode(1),
                "unknown option 'kernal'.*did you mean 'kernel'");
}

TEST(ConfigDeath, UnknownKeyListsRosterWhenNothingIsClose)
{
    EXPECT_EXIT(Config::fromArgs({"zzz=1"}, kernelPolicyKnobs()),
                ::testing::ExitedWithCode(1),
                "known options: kernel policy");
}

TEST(Config, KnownKeysPassStrictParsing)
{
    const Config cfg = Config::fromArgs(
        {"kernel=lbm", "sms=8"},
        std::vector<Knob>{{"kernel", "", {}}, {"sms", "", {}}});
    EXPECT_EQ(cfg.getString("kernel", ""), "lbm");
    EXPECT_EQ(cfg.getInt("sms", 0), 8);
}

// --- Whole-GPU checkpoint/resume --------------------------------------

/** Exported-JSON form of an application's metrics (the figures' data). */
std::string
jsonOf(const std::string &kernel, const RunMetrics &total,
       const std::vector<RunMetrics> &invocations)
{
    ExportSink e = ExportSink::metricsTable();
    e.addResult(kernel, "test", total, invocations);
    std::ostringstream os;
    e.write(os, ExportFormat::Json);
    return os.str();
}

/** Equalizer tuned so hysteresis and epochs churn within short runs. */
EqualizerConfig
fastEqualizer()
{
    EqualizerConfig ecfg;
    ecfg.epochCycles = 512;
    ecfg.sampleInterval = 64;
    return ecfg;
}

struct MidKernelCase
{
    const char *kernel;
};

// Keeps the listed test name free of pointer bytes (see table2_test.cc).
// The " threads=1" suffix is only there to keep ctest names stable.
void
PrintTo(const MidKernelCase &c, std::ostream *os)
{
    *os << c.kernel << " threads=1";
}

class MidKernelCheckpoint
    : public ::testing::TestWithParam<MidKernelCase>
{
};

/**
 * The core acceptance test: run an application under Equalizer and save
 * a checkpoint mid-way through the first kernel invocation (between two
 * hysteresis epochs). Restoring into a fresh GpuTop and finishing the
 * whole schedule must reproduce the uninterrupted run's exported
 * metrics byte for byte.
 */
TEST_P(MidKernelCheckpoint, ResumedRunIsByteIdentical)
{
    const KernelParams &params = KernelZoo::byName(GetParam().kernel).params;
    const GpuConfig gcfg = GpuConfig::gtx480();
    const PowerConfig pcfg = PowerConfig::gtx480();
    const PolicySpec policy =
        policies::equalizer(EqualizerMode::Performance, fastEqualizer());

    // Mid-epoch-3: pendingDir_/pendingCount_ are in flight.
    const Cycle save_cycle = 1800;

    // --- Donor run: save mid-kernel, then keep going uninterrupted.
    GpuTop donor(gcfg, pcfg);
    const auto donor_ctrl = policy.build();
    donor.setController(donor_ctrl.get());

    std::vector<std::uint8_t> saved;
    donor.setCycleObserver([&saved, save_cycle](GpuTop &g) {
        if (saved.empty() && g.smDomain().cycle() == save_cycle)
            saved = g.saveStateBuffer();
    });

    RunMetrics donor_total;
    donor_total.kernel = params.name;
    std::vector<RunMetrics> donor_invs;
    for (int inv = 0; inv < params.invocationCount(); ++inv) {
        SyntheticKernel launch(params, inv);
        RunMetrics m = donor.runKernel(launch);
        donor_total += m;
        donor_invs.push_back(std::move(m));
    }
    ASSERT_FALSE(saved.empty())
        << "first invocation shorter than the save cycle";

    // --- Restored run: fresh GPU + fresh controller, resume, finish.
    GpuTop restored(gcfg, pcfg);
    const auto restored_ctrl = policy.build();
    restored.setController(restored_ctrl.get());
    restored.loadStateBuffer(saved);

    ASSERT_TRUE(restored.midKernel());
    EXPECT_EQ(restored.currentKernelName(), params.name);
    EXPECT_EQ(restored.smDomain().cycle(), save_cycle);

    RunMetrics restored_total;
    restored_total.kernel = params.name;
    std::vector<RunMetrics> restored_invs;
    {
        SyntheticKernel launch(params, 0);
        RunMetrics m = restored.resumeKernel(launch);
        restored_total += m;
        restored_invs.push_back(std::move(m));
    }
    for (int inv = 1; inv < params.invocationCount(); ++inv) {
        SyntheticKernel launch(params, inv);
        RunMetrics m = restored.runKernel(launch);
        restored_total += m;
        restored_invs.push_back(std::move(m));
    }

    EXPECT_EQ(jsonOf(params.name, donor_total, donor_invs),
              jsonOf(params.name, restored_total, restored_invs));
}

INSTANTIATE_TEST_SUITE_P(
    KernelZoo, MidKernelCheckpoint,
    ::testing::Values(MidKernelCase{"sgemm"}, MidKernelCase{"lbm"},
                      MidKernelCase{"kmn"}),
    [](const auto &info) {
        return std::string(info.param.kernel) + "_threads1";
    });

TEST(Checkpoint, FileRoundTripMatchesBufferRoundTrip)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    GpuTop gpu(GpuConfig::gtx480(), PowerConfig::gtx480());
    SyntheticKernel launch(params, 0);
    gpu.runKernel(launch);

    const std::string path =
        ::testing::TempDir() + "eq_checkpoint_test.eqz";
    gpu.saveCheckpoint(path);

    GpuTop restored(GpuConfig::gtx480(), PowerConfig::gtx480());
    restored.loadCheckpoint(path);
    EXPECT_EQ(gpu.saveStateBuffer(), restored.saveStateBuffer());
    EXPECT_FALSE(restored.midKernel());
    std::remove(path.c_str());
}

TEST(CheckpointDeath, FingerprintMismatchIsFatal)
{
    GpuTop gpu(GpuConfig::gtx480(), PowerConfig::gtx480());
    const auto buf = gpu.saveStateBuffer();

    GpuConfig other = GpuConfig::gtx480();
    other.numSms = 4;
    EXPECT_EXIT(
        {
            GpuTop small(other, PowerConfig::gtx480());
            small.loadStateBuffer(buf);
        },
        ::testing::ExitedWithCode(1), "different configuration");
}

TEST(CheckpointDeath, ControllerMismatchIsFatalOnStrictLoad)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    GpuTop gpu(GpuConfig::gtx480(), PowerConfig::gtx480());
    const auto ctrl =
        policies::equalizer(EqualizerMode::Performance).build();
    gpu.setController(ctrl.get());
    SyntheticKernel launch(params, 0);
    gpu.runKernel(launch);
    const auto buf = gpu.saveStateBuffer();

    EXPECT_EXIT(
        {
            GpuTop other(GpuConfig::gtx480(), PowerConfig::gtx480());
            const auto dyncta = policies::dynCta().build();
            other.setController(dyncta.get());
            other.loadStateBuffer(buf);
        },
        ::testing::ExitedWithCode(1), "controller");
}

TEST(Checkpoint, ForkDropsMismatchedControllerState)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    GpuTop parent(GpuConfig::gtx480(), PowerConfig::gtx480());
    const auto ctrl =
        policies::equalizer(EqualizerMode::Performance).build();
    parent.setController(ctrl.get());
    SyntheticKernel launch(params, 0);
    parent.runKernel(launch);

    // The child runs a different policy: the stored equalizer state is
    // dropped, everything architectural transfers.
    GpuTop child(GpuConfig::gtx480(), PowerConfig::gtx480());
    child.forkFrom(parent);
    EXPECT_EQ(child.smDomain().cycle(), parent.smDomain().cycle());
    EXPECT_EQ(child.memorySystem().l2Hits(),
              parent.memorySystem().l2Hits());
}

TEST(CheckpointDeath, ResumeWithDifferentKernelIsFatal)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    GpuTop donor(GpuConfig::gtx480(), PowerConfig::gtx480());
    std::vector<std::uint8_t> saved;
    donor.setCycleObserver([&saved](GpuTop &g) {
        if (saved.empty() && g.smDomain().cycle() == 500)
            saved = g.saveStateBuffer();
    });
    SyntheticKernel launch(params, 0);
    donor.runKernel(launch);
    ASSERT_FALSE(saved.empty());

    EXPECT_EXIT(
        {
            GpuTop restored(GpuConfig::gtx480(), PowerConfig::gtx480());
            restored.loadStateBuffer(saved);
            SyntheticKernel other(KernelZoo::byName("lbm").params, 0);
            restored.resumeKernel(other);
        },
        ::testing::ExitedWithCode(1), "resume");
}

// --- Warm-forked sweeps -----------------------------------------------

/** A short multi-invocation schedule derived from a zoo kernel. */
KernelParams
sweepKernel()
{
    KernelParams p = KernelZoo::byName("sgemm").params;
    p.name = "sgemm-sweep";
    p.invocations.assign(3, InvocationMod{});
    return p;
}

TEST(WarmSweep, MatchesColdSweepPointForPoint)
{
    const KernelParams params = sweepKernel();
    const std::vector<PolicySpec> points = {
        policies::smHigh(),
        policies::staticBlocks(2),
        policies::equalizer(EqualizerMode::Performance, fastEqualizer()),
    };

    SweepPlan plan;
    plan.kernel = params;
    plan.prefixPolicy = policies::baseline();
    plan.prefixInvocations = 2;
    plan.points = points;

    ExperimentRunner runner;
    plan.strategy = SweepStrategy::Cold;
    const SweepResult cold = runner.runSweep(plan);
    plan.strategy = SweepStrategy::Warm;
    const SweepResult warm = runner.runSweep(plan);

    ASSERT_EQ(cold.points.size(), points.size());
    ASSERT_EQ(warm.points.size(), points.size());
    EXPECT_TRUE(warm.table.empty()); // explicit points fill no table
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(cold.points[i].policy, warm.points[i].policy);
        EXPECT_EQ(jsonOf(params.name, cold.points[i].total,
                         cold.points[i].invocations),
                  jsonOf(params.name, warm.points[i].total,
                         warm.points[i].invocations))
            << "point " << cold.points[i].policy;
    }

    // The warm sweep paid for the prefix once, the cold sweep N times;
    // each runSweep() call reports its own counters only.
    EXPECT_EQ(cold.stats.counterValue("sweep.prefix_invocations"),
              2u * points.size());
    EXPECT_EQ(warm.stats.counterValue("sweep.prefix_invocations"), 2u);
    EXPECT_EQ(warm.stats.counterValue("sweep.forks"), points.size());
}

} // namespace
} // namespace equalizer

/**
 * @file
 * Tests for the parallel per-SM execution path: ParallelExecutor
 * mechanics, bit-exact determinism of multi-threaded simulation against
 * the serial oracle, and the epoch-barrier ordering of the staged
 * SM->L2 injection queues.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gpu/gpu_top.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "mem/memory_system.hh"
#include "sim/parallel_executor.hh"

namespace equalizer
{
namespace
{

// --- ParallelExecutor mechanics ---------------------------------------

TEST(ParallelExecutor, ChunksPartitionTheRange)
{
    for (int threads : {1, 2, 3, 4, 8}) {
        for (int n : {0, 1, 2, 7, 15, 16, 100}) {
            std::vector<int> covered(static_cast<std::size_t>(n), 0);
            int prev_hi = 0;
            for (int w = 0; w < threads; ++w) {
                const auto [lo, hi] =
                    ParallelExecutor::chunkOf(w, threads, n);
                EXPECT_EQ(lo, prev_hi); // contiguous, in worker order
                prev_hi = hi;
                for (int i = lo; i < hi; ++i)
                    ++covered[static_cast<std::size_t>(i)];
            }
            EXPECT_EQ(prev_hi, n);
            for (int c : covered)
                EXPECT_EQ(c, 1); // each index exactly once
        }
    }
}

TEST(ParallelExecutor, RunsEveryIndexOnce)
{
    ParallelExecutor exec(4);
    EXPECT_EQ(exec.threads(), 4);

    const int n = 1000;
    std::vector<std::atomic<int>> hits(n);
    exec.parallelFor(n, [&hits](int i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, ReusableAcrossEpochs)
{
    ParallelExecutor exec(3);
    std::atomic<long> sum{0};
    const int rounds = 200;
    for (int r = 0; r < rounds; ++r)
        exec.parallelFor(16, [&sum](int i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), static_cast<long>(rounds) * (15 * 16 / 2));
    EXPECT_EQ(exec.epochsDispatched(),
              static_cast<std::uint64_t>(rounds));
}

TEST(ParallelExecutor, SingleThreadRunsInline)
{
    ParallelExecutor exec(1);
    EXPECT_EQ(exec.threads(), 1);
    int calls = 0;
    exec.parallelFor(5, [&calls](int) { ++calls; });
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(exec.epochsDispatched(), 0u); // never woke the pool
}

TEST(ParallelExecutor, HardwareThreadsIsPositive)
{
    EXPECT_GE(ParallelExecutor::hardwareThreads(), 1);
}

TEST(ParallelExecutorDeath, NegativeThreadCountIsFatal)
{
    EXPECT_EQ(ParallelExecutor::resolveThreads(0),
              ParallelExecutor::hardwareThreads());
    EXPECT_EQ(ParallelExecutor::resolveThreads(3), 3);
    EXPECT_EXIT(ParallelExecutor::resolveThreads(-2),
                ::testing::ExitedWithCode(1),
                "threads= must not be negative, got -2");
}

// --- ParallelExecutor lifecycle: poll, block, wake, stop ----------------

/** Far longer than the executor's polling window (tens of µs). */
constexpr auto idleGap = std::chrono::milliseconds(30);

/** parallelFor(n) on @p exec, expecting each index to run exactly once. */
void
expectEachIndexOnce(ParallelExecutor &exec, int n)
{
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    exec.parallelFor(n, [&hits](int i) {
        ++hits[static_cast<std::size_t>(i)];
    });
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << "index " << i;
}

TEST(ParallelExecutor, WakesWorkersBlockedAcrossAnIdleGap)
{
    ParallelExecutor exec(4);
    for (int round = 0; round < 3; ++round) {
        // The workers outlast their polling window and block in
        // atomic::wait; the next epoch must still reach them.
        std::this_thread::sleep_for(idleGap);
        expectEachIndexOnce(exec, 15);
    }
    EXPECT_EQ(exec.epochsDispatched(), 3u);
}

TEST(ParallelExecutor, DestroysWhileWorkersAreBlocked)
{
    {
        ParallelExecutor never_used(4);
        std::this_thread::sleep_for(idleGap);
    }
    {
        ParallelExecutor exec(4);
        expectEachIndexOnce(exec, 15);
        std::this_thread::sleep_for(idleGap);
    }
}

TEST(ParallelExecutor, DestroysRightAfterAnEpochWhileWorkersPoll)
{
    for (int round = 0; round < 200; ++round) {
        ParallelExecutor exec(4);
        expectEachIndexOnce(exec, 15);
    }
}

TEST(ParallelExecutor, FewerItemsThanThreadsLeavesChunksEmpty)
{
    ParallelExecutor exec(8);
    for (int n : {1, 2, 3, 7, 8, 9})
        expectEachIndexOnce(exec, n);
    // n = 1 runs inline; the other five sizes are epochs.
    EXPECT_EQ(exec.epochsDispatched(), 5u);
}

TEST(ParallelExecutor, OversubscribedPoolHitsEveryIndexEachEpoch)
{
    // More pool threads than cores: waiters must yield, or the workers
    // they wait on never get a core.
    ParallelExecutor exec(4 * ParallelExecutor::hardwareThreads());
    const int n = 15;
    const int epochs = 2000;
    // Plain ints: each epoch's barrier orders one worker's writes
    // before the next epoch's, whichever worker owns an index.
    std::vector<int> hits(n, 0);
    for (int e = 0; e < epochs; ++e)
        exec.parallelFor(n, [&hits](int i) {
            ++hits[static_cast<std::size_t>(i)];
        });
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], epochs)
            << "index " << i;
}

// --- Bit-exact determinism against the serial oracle ------------------

/** Every field of RunMetrics, compared exactly (doubles bit-for-bit). */
void
expectIdenticalMetrics(const RunMetrics &serial, const RunMetrics &par)
{
    EXPECT_EQ(serial.smCycles, par.smCycles);
    EXPECT_EQ(serial.memCycles, par.memCycles);
    EXPECT_EQ(serial.instructions, par.instructions);
    EXPECT_EQ(serial.seconds, par.seconds);
    EXPECT_EQ(serial.dynamicJoules, par.dynamicJoules);
    EXPECT_EQ(serial.staticJoules, par.staticJoules);
    EXPECT_EQ(serial.dramPowerDownFraction, par.dramPowerDownFraction);
    EXPECT_EQ(serial.l1Hits, par.l1Hits);
    EXPECT_EQ(serial.l1Misses, par.l1Misses);
    EXPECT_EQ(serial.l2Hits, par.l2Hits);
    EXPECT_EQ(serial.l2Misses, par.l2Misses);
    EXPECT_EQ(serial.dramAccesses, par.dramAccesses);
    EXPECT_EQ(serial.dramRowHits, par.dramRowHits);
    EXPECT_EQ(serial.outcomeCycles, par.outcomeCycles);
    EXPECT_EQ(serial.outcomeTotals.active, par.outcomeTotals.active);
    EXPECT_EQ(serial.outcomeTotals.waiting, par.outcomeTotals.waiting);
    EXPECT_EQ(serial.outcomeTotals.issued, par.outcomeTotals.issued);
    EXPECT_EQ(serial.outcomeTotals.excessAlu,
              par.outcomeTotals.excessAlu);
    EXPECT_EQ(serial.outcomeTotals.excessMem,
              par.outcomeTotals.excessMem);
    EXPECT_EQ(serial.outcomeTotals.barrier, par.outcomeTotals.barrier);
    for (int i = 0; i < numVfStates; ++i) {
        const auto s = static_cast<std::size_t>(i);
        EXPECT_EQ(serial.smResidency[s], par.smResidency[s]);
        EXPECT_EQ(serial.memResidency[s], par.memResidency[s]);
    }
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(ParallelDeterminism, MetricsMatchSerialOracle)
{
    const std::string &kernel = GetParam();
    ExperimentRunner serial(GpuConfig::gtx480(), PowerConfig::gtx480(),
                            /*threads=*/1);
    ExperimentRunner parallel(GpuConfig::gtx480(), PowerConfig::gtx480(),
                              /*threads=*/4);
    ASSERT_EQ(serial.threads(), 1);
    ASSERT_EQ(parallel.threads(), 4);

    const auto s = serial.runByName(kernel, policies::baseline());
    const auto p = parallel.runByName(kernel, policies::baseline());
    ASSERT_EQ(s.invocations.size(), p.invocations.size());
    expectIdenticalMetrics(s.total, p.total);
    for (std::size_t i = 0; i < s.invocations.size(); ++i)
        expectIdenticalMetrics(s.invocations[i], p.invocations[i]);
}

// One kernel-zoo workload per paper category that the tuning studies
// sweep: compute-, memory- and cache-sensitive.
INSTANTIATE_TEST_SUITE_P(KernelZoo, ParallelDeterminism,
                         ::testing::Values(std::string("sgemm"),
                                           std::string("lbm"),
                                           std::string("kmn")),
                         [](const auto &info) { return info.param; });

TEST(ParallelDeterminismPolicies, EqualizerPerfMatchesSerialOracle)
{
    // The DVFS vote + CTA throttling path: controller decisions feed
    // back into SM state, so any divergence would compound visibly.
    ExperimentRunner serial(GpuConfig::gtx480(), PowerConfig::gtx480(),
                            /*threads=*/1);
    ExperimentRunner parallel(GpuConfig::gtx480(), PowerConfig::gtx480(),
                              /*threads=*/4);
    const auto spec = policies::equalizer(EqualizerMode::Performance);
    const auto s = serial.runByName("kmn", spec);
    const auto p = parallel.runByName("kmn", spec);
    expectIdenticalMetrics(s.total, p.total);
}

TEST(ParallelDeterminismPerSm, PerSmStateMatchesSerialOracle)
{
    // Per-SM residency/stat state, not just GPU-level aggregates.
    KernelParams params = KernelZoo::byName("kmn").params;

    GpuTop serial_gpu;
    GpuTop parallel_gpu;
    ParallelExecutor exec(4);
    parallel_gpu.setParallelExecutor(&exec);
    ASSERT_EQ(parallel_gpu.simThreads(), 4);

    SyntheticKernel launch(params, 0);
    serial_gpu.runKernel(launch);
    parallel_gpu.runKernel(launch);

    ASSERT_EQ(serial_gpu.numSms(), parallel_gpu.numSms());
    for (int i = 0; i < serial_gpu.numSms(); ++i) {
        const auto &s = serial_gpu.sm(i);
        const auto &p = parallel_gpu.sm(i);
        EXPECT_EQ(s.cycle(), p.cycle());
        EXPECT_EQ(s.instructionsIssued(), p.instructionsIssued());
        EXPECT_EQ(s.activeCycles(), p.activeCycles());
        EXPECT_EQ(s.blocksCompleted(), p.blocksCompleted());
        EXPECT_EQ(s.l1().hits(), p.l1().hits());
        EXPECT_EQ(s.l1().misses(), p.l1().misses());
        EXPECT_EQ(s.l1().writes(), p.l1().writes());
    }
}

// --- Epoch-barrier ordering of the staged SM->L2 queues ---------------

/**
 * The per-SM injection queues are the staging buffers of the parallel
 * phase: SMs push into their own queue concurrently, and the memory
 * system drains them at the barrier in fixed round-robin SM order. The
 * drain order therefore must depend only on queue contents, never on
 * the order in which different SMs staged their requests.
 */
TEST(StagedInjectQueues, BarrierDrainOrderIgnoresStagingOrder)
{
    const MemConfig cfg = MemConfig::gtx480();
    const int num_sms = 4;
    EnergyModel e1, e2;
    MemorySystem forward(cfg, num_sms, e1);
    MemorySystem reverse(cfg, num_sms, e2);

    // All requests target partition 0; the address encodes the SM.
    auto addr_of = [&cfg](int sm) {
        return static_cast<Addr>(sm) * lineBytes *
               static_cast<Addr>(cfg.numPartitions);
    };
    for (int sm = 0; sm < num_sms; ++sm)
        forward.smInjectQueue(sm).push(
            MemAccess{addr_of(sm), sm, 0, false, false});
    for (int sm = num_sms - 1; sm >= 0; --sm)
        reverse.smInjectQueue(sm).push(
            MemAccess{addr_of(sm), sm, 0, false, false});

    // One barrier drain (one memory tick) moves them — bandwidth
    // permitting — into the partition input queue.
    forward.tick(1);
    reverse.tick(1);

    std::vector<SmId> forward_order, reverse_order;
    const Cycle late = 1 + cfg.nocRequestLatency + 1;
    while (auto a = forward.partition(0).input().popReady(late))
        forward_order.push_back(a->sm);
    while (auto a = reverse.partition(0).input().popReady(late))
        reverse_order.push_back(a->sm);

    ASSERT_FALSE(forward_order.empty());
    EXPECT_EQ(forward_order, reverse_order);
    // Fixed arbitration: ascending SM order on the first barrier.
    for (std::size_t i = 1; i < forward_order.size(); ++i)
        EXPECT_LT(forward_order[i - 1], forward_order[i]);
}

TEST(StagedInjectQueues, BackPressureIsIdenticalAcrossModes)
{
    // Overfill one SM's staging queue; the bounded capacity (the
    // back-pressure signal Equalizer's X_mem counter observes) must be
    // enforced identically however the queue was filled.
    const MemConfig cfg = MemConfig::gtx480();
    EnergyModel energy;
    MemorySystem ms(cfg, 1, energy);
    auto &q = ms.smInjectQueue(0);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < cfg.smInjectQueueCap + 3; ++i) {
        if (q.push(MemAccess{static_cast<Addr>(i) * lineBytes, 0, 0,
                             false, false}))
            ++accepted;
    }
    EXPECT_EQ(accepted, cfg.smInjectQueueCap);
    EXPECT_TRUE(q.full());
}

} // namespace
} // namespace equalizer

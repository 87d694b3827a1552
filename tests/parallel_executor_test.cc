/**
 * @file
 * Tests for ParallelExecutor: chunking, running every index once per
 * epoch, and the poll/block/wake/stop lifecycle of its workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

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

} // namespace
} // namespace equalizer

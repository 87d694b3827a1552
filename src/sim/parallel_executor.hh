/**
 * @file
 * A persistent fork-join worker pool.
 *
 * A simulation ticks its SMs on the calling thread; no simulator code
 * uses this pool. It is kept for parallelism across whole runs and
 * sweep points (docs/PARALLELISM.md, ROADMAP item 3). Work is split
 * into contiguous index chunks with a static partition, so the
 * assignment of items to workers is a pure function of (n, thread
 * count) and never depends on timing.
 */

#ifndef EQ_SIM_PARALLEL_EXECUTOR_HH
#define EQ_SIM_PARALLEL_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace equalizer
{

/**
 * Fork-join executor with persistent threads.
 *
 * parallelFor(n, fn) runs fn(i) for every i in [0, n) across the pool
 * and returns when all calls have completed (the epoch barrier). The
 * calling thread participates as worker 0, so a pool of T threads uses
 * T-1 spawned workers. With threads() == 1 the loop runs inline and no
 * threads are ever spawned.
 *
 * parallelFor is not reentrant and must always be called from the same
 * (owning) thread.
 */
class ParallelExecutor
{
  public:
    /** @param threads Pool size; see resolveThreads(). */
    explicit ParallelExecutor(int threads = 0);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Pool size including the calling thread. */
    int threads() const { return threads_; }

    /** Run fn(i) for i in [0, n); blocks until every call returns. */
    void parallelFor(int n, const std::function<void(int)> &fn);

    /** Epochs dispatched to the worker pool so far (test visibility). */
    std::uint64_t epochsDispatched() const { return epoch_.load(); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

    /**
     * The pool size a threads= request means: 0 selects
     * hardwareThreads(), a negative count is a fatal() user error.
     */
    static int resolveThreads(int requested);

    /** Chunk [begin, end) of worker @p w under the static partition. */
    static std::pair<int, int> chunkOf(int w, int threads, int n);

  private:
    void workerLoop(int worker);
    void runChunk(int worker, int n, const std::function<void(int)> &fn);

    int threads_;
    std::vector<std::thread> workers_;

    // Dispatch state: fn_/n_/remaining_/stop_ are published by the
    // epoch_ increment (release) and read by workers after observing it
    // (acquire). Workers wait on epoch_ and the caller on remaining_,
    // each polling briefly before blocking in atomic::wait.
    const std::function<void(int)> *fn_ = nullptr;
    int n_ = 0;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<int> remaining_{0};
    std::atomic<bool> stop_{false};
};

} // namespace equalizer

#endif // EQ_SIM_PARALLEL_EXECUTOR_HH

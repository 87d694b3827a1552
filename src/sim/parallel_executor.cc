#include "parallel_executor.hh"

#include <chrono>

#include "common/log.hh"

namespace equalizer
{

namespace
{

/** Tell the CPU this is a spin-wait iteration (a no-op elsewhere). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield");
#endif
}

/**
 * Wait until done(a) holds and return the value that satisfied it.
 *
 * A barrier wait is usually over within a few hundred nanoseconds, far
 * less than a futex sleep and wake-up, so the waiter polls first: a
 * short burst of cpuRelax(), then yield() until a bounded window has
 * passed. Yielding keeps oversubscribed hosts (more pool threads than
 * cores) moving, because the thread being waited for may need this
 * core. Only then does the waiter block in atomic::wait, so an idle
 * pool costs nothing. Whoever changes @p a to a value that may satisfy
 * a blocked waiter must call notify_one()/notify_all() on it.
 */
template <typename T, typename Done>
T
pollThenWait(const std::atomic<T> &a, Done done)
{
    constexpr int relaxSpins = 64;
    constexpr auto pollWindow = std::chrono::microseconds(20);

    T v = a.load(std::memory_order_acquire);
    for (int i = 0; i < relaxSpins && !done(v); ++i) {
        cpuRelax();
        v = a.load(std::memory_order_acquire);
    }
    if (done(v))
        return v;
    const auto deadline = std::chrono::steady_clock::now() + pollWindow;
    while (!done(v) && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
        v = a.load(std::memory_order_acquire);
    }
    while (!done(v)) {
        a.wait(v, std::memory_order_acquire);
        v = a.load(std::memory_order_acquire);
    }
    return v;
}

} // namespace

int
ParallelExecutor::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
ParallelExecutor::resolveThreads(int requested)
{
    if (requested < 0)
        fatal("threads= must not be negative, got ", requested,
              " (1 = serial, 0 = hardware concurrency)");
    return requested == 0 ? hardwareThreads() : requested;
}

std::pair<int, int>
ParallelExecutor::chunkOf(int w, int threads, int n)
{
    // Contiguous static split: worker w owns [w*n/T, (w+1)*n/T). The
    // partition depends only on (w, threads, n), never on timing.
    const auto lo = static_cast<int>(
        static_cast<std::int64_t>(w) * n / threads);
    const auto hi = static_cast<int>(
        static_cast<std::int64_t>(w + 1) * n / threads);
    return {lo, hi};
}

ParallelExecutor::ParallelExecutor(int threads)
    : threads_(resolveThreads(threads))
{
    for (int w = 1; w < threads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ParallelExecutor::~ParallelExecutor()
{
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ParallelExecutor::runChunk(int worker, int n,
                           const std::function<void(int)> &fn)
{
    const auto [lo, hi] = chunkOf(worker, threads_, n);
    for (int i = lo; i < hi; ++i)
        fn(i);
}

void
ParallelExecutor::workerLoop(int worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        const auto next = [seen](std::uint64_t e) { return e != seen; };
        seen = pollThenWait(epoch_, next);
        if (stop_.load(std::memory_order_relaxed))
            return;
        runChunk(worker, n_, *fn_);
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            remaining_.notify_one();
    }
}

void
ParallelExecutor::parallelFor(int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    if (threads_ == 1 || n == 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }

    EQ_ASSERT(remaining_.load(std::memory_order_relaxed) == 0,
              "parallelFor is not reentrant");
    fn_ = &fn;
    n_ = n;
    remaining_.store(threads_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();

    runChunk(0, n, fn); // the caller is worker 0

    // Epoch barrier: the last worker to finish notifies remaining_.
    pollThenWait(remaining_, [](int left) { return left == 0; });
    fn_ = nullptr;
}

} // namespace equalizer

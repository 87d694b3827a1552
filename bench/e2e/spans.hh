/**
 * @file
 * Host-side instrumentation of eqbench's traced run, all of it outside
 * the simulator: an in-memory span log written out as JSON at exit, a
 * forwarding GpuController that counts and times the policy's per-cycle
 * hook, and a counting TraceSink decorator.
 *
 * Everything here is observational: the traced run must produce the
 * same digests as the untraced run (eqbench checks it).
 */

#ifndef EQBENCH_SPANS_HH
#define EQBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "gpu/controller.hh"
#include "trace/sink.hh"

namespace eqbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p v (the mean of the middle two for an even count). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One timed call into a simulator module. */
struct Span
{
    std::string name;
    int item = -1;       ///< workload op it belongs to; -1 = none (probes)
    int parent = -1;     ///< index of the enclosing span; -1 = top level
    double startS = 0.0; ///< host seconds since the log was created
    double endS = 0.0;
    /// Per-cycle hooks aggregated on this span instead of child spans.
    std::vector<std::pair<std::string, double>> counters;
};

/** Spans kept in memory and written out once the run ends. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; returns its index. */
    int begin(std::string name, int item, int parent = -1);
    void end(int span);

    /** Add @p value to counter @p key of @p span. */
    void count(int span, const std::string &key, double value);

    /** Summed duration of the top-level spans. */
    double topLevelSeconds() const;

    /** Summed duration of every span named @p name. */
    double secondsIn(const std::string &name) const;

    /** Sum of counter @p key over every span. */
    double counterTotal(const std::string &key) const;

    /** {"spans": [{name, item, parent, start_s, end_s, counters}]}. */
    void writeJson(std::ostream &os) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** A span that ends when it goes out of scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, int item, int parent = -1)
        : log_(log), index_(log.begin(std::move(name), item, parent))
    {
    }
    ~ScopedSpan() { log_.end(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanLog &log_;
    int index_;
};

/**
 * Wraps the run's controller so every hook reaches it unchanged
 * (nextActionCycle and visitControllerState included, so the fast path
 * and checkpoints see the same policy), while counting and timing the
 * per-SM-cycle hook.
 */
class ForwardingController : public equalizer::GpuController
{
  public:
    explicit ForwardingController(equalizer::GpuController &inner)
        : inner_(inner)
    {
    }

    std::string name() const override { return inner_.name(); }
    void onKernelLaunch(equalizer::GpuTop &gpu) override;
    void onInvocationLaunch(equalizer::GpuTop &gpu,
                            const equalizer::KernelInvocation &inv) override;
    void onSmCycle(equalizer::GpuTop &gpu) override;
    void onKernelComplete(equalizer::GpuTop &gpu) override;
    void visitControllerState(equalizer::StateVisitor &v,
                              equalizer::GpuTop &gpu) override;
    equalizer::Cycle nextActionCycle(const equalizer::GpuTop &gpu,
                                     equalizer::Cycle now) const override;

    std::uint64_t smCycleCalls() const { return calls_; }
    double smCycleSeconds() const { return seconds_; }

  private:
    equalizer::GpuController &inner_;
    std::uint64_t calls_ = 0;
    double seconds_ = 0.0;
};

/** Counts events and bytes passing to @p inner and times the calls. */
class CountingTraceSink : public equalizer::TraceSink
{
  public:
    explicit CountingTraceSink(equalizer::TraceSink &inner) : inner_(inner) {}

    void begin(const equalizer::TraceHeader &header) override;
    void events(const equalizer::TraceEvent *e, std::size_t n) override;
    void finish() override;

    std::uint64_t eventCount() const { return events_; }
    std::uint64_t byteCount() const { return bytes_; }
    double seconds() const { return seconds_; }

  private:
    equalizer::TraceSink &inner_;
    std::uint64_t events_ = 0;
    std::uint64_t bytes_ = 0;
    double seconds_ = 0.0;
};

} // namespace eqbench

#endif // EQBENCH_SPANS_HH

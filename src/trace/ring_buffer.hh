/**
 * @file
 * The per-SM trace ring: a BoundedQueue of TraceEvents with
 * counted-drop overflow semantics.
 *
 * Each ring is written only by its own SM's tick and drained at tracer
 * epoch boundaries. The per-SM capacity and drop counts are part of
 * the trace bytes, so rings stay per SM.
 */

#ifndef EQ_TRACE_RING_BUFFER_HH
#define EQ_TRACE_RING_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/bounded_queue.hh"
#include "trace/trace_event.hh"

namespace equalizer
{

/** Fixed-capacity event FIFO; overflow drops the newest event. */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity) : events_(capacity) {}

    /**
     * Append one event. When the ring is full the event is dropped and
     * counted — tracing must never block or slow the simulation, and the
     * drop count is recorded in the trace.
     */
    void
    push(const TraceEvent &e)
    {
        if (!events_.push(e))
            ++drops_;
    }

    /** Move every buffered event, FIFO order, into @p out. */
    void
    drainInto(std::vector<TraceEvent> &out)
    {
        while (auto e = events_.pop())
            out.push_back(*e);
    }

    /** Events dropped since the last takeDrops(). */
    std::uint64_t drops() const { return drops_; }

    /** Read and reset the drop count (per drain window). */
    std::uint64_t
    takeDrops()
    {
        const std::uint64_t d = drops_;
        drops_ = 0;
        return d;
    }

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    std::size_t capacity() const { return events_.capacity(); }

  private:
    BoundedQueue<TraceEvent> events_;
    std::uint64_t drops_ = 0;
};

/**
 * Emit helper used at instrumentation sites: compiles away entirely
 * when the tracing subsystem is disabled (-DEQ_TRACE=OFF), and costs
 * one pointer test when no ring is attached. @p make is only invoked
 * when the event will actually be recorded.
 */
template <typename F>
inline void
traceEmit(TraceRing *ring, F &&make)
{
    if constexpr (traceCompiledIn) {
        if (ring)
            ring->push(make());
    } else {
        (void)ring;
        (void)make;
    }
}

} // namespace equalizer

#endif // EQ_TRACE_RING_BUFFER_HH

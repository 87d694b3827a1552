/**
 * @file
 * The Tracer: per-SM event rings, a direct emit path for device-level
 * components (Equalizer, the frequency manager, clock domains),
 * per-epoch gauge sampling, and the epoch drain that hands
 * canonically-ordered batches to a TraceSink.
 *
 * Ordering contract (the determinism guarantee): events reach the sink
 * in simulated-time order — direct emits in program order, then at
 * every epoch boundary the gauges followed by each SM's ring drained
 * in SM index order. Whether an SM slept or ticked every cycle does
 * not change the order, so fast_path=0 and 1 write the same trace
 * bytes (tests/fast_path_test.cc asserts it).
 */

#ifndef EQ_TRACE_TRACER_HH
#define EQ_TRACE_TRACER_HH

#include <cstdint>
#include <vector>

#include "trace/gauge.hh"
#include "trace/ring_buffer.hh"
#include "trace/sink.hh"
#include "trace/trace_event.hh"

namespace equalizer
{

/** Tunables of one Tracer. */
struct TraceConfig
{
    /** Per-SM ring capacity in KiB (knob: trace_buf_kb). */
    std::size_t bufKb = 64;

    /**
     * Cycles between drains / gauge samples (knob: trace_epoch).
     * Must be a power of two — the hot-loop boundary test is a mask.
     */
    Cycle epochCycles = 4096;

    /** fatal() unless the tracer can run with these values. */
    void validate() const;
};

/** The epoch-level tracing engine (docs/TRACING.md). */
class Tracer
{
  public:
    /** @param sink Non-owning; must outlive the tracer. */
    Tracer(TraceConfig cfg, TraceSink &sink);
    ~Tracer();

    /**
     * Size the per-SM rings and write the segment header. Called by
     * GpuTop::setTracer(); re-attaching with the same SM count is a
     * no-op so one tracer can span a whole sweep (parent and forked
     * children share the rings — only one GPU runs at a time).
     */
    void attach(int num_sms);

    bool attached() const { return !rings_.empty(); }
    int numSms() const { return static_cast<int>(rings_.size()); }

    /** The ring an SM writes into during its tick. */
    TraceRing *ring(int sm)
    {
        return &rings_[static_cast<std::size_t>(sm)];
    }

    /** True when @p cycle is a drain boundary (one mask test). */
    bool epochBoundary(Cycle cycle) const
    {
        return (cycle & epochMask_) == 0;
    }

    /** Device-level emit: append directly to the pending batch. */
    void
    emit(const TraceEvent &e)
    {
        if constexpr (traceCompiledIn)
            pending_.push_back(e);
    }

    /** Live metrics sampled once per epoch. */
    GaugeRegistry &gauges() { return gauges_; }

    /**
     * The epoch drain: sample gauges, drain every ring in SM
     * index order (recording per-SM drop counts), and hand the batch
     * to the sink. Runs after every SM has ticked the boundary cycle.
     */
    void drainEpoch(Cycle cycle);

    /** Ring drain without gauge sampling (kernel end, checkpoints). */
    void drainRings(Cycle cycle);

    /** Final drain and sink finish. Idempotent; ~Tracer calls it. */
    void finish();

    std::uint64_t eventsRecorded() const { return recorded_; }
    std::uint64_t eventsDropped() const { return dropped_; }

  private:
    void flushPending();

    TraceConfig cfg_;
    TraceSink &sink_;
    Cycle epochMask_;
    std::vector<TraceRing> rings_; ///< sized once, by attach()
    std::vector<TraceEvent> pending_;
    GaugeRegistry gauges_;
    Cycle lastCycle_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    bool headerWritten_ = false;
    bool finished_ = false;
};

} // namespace equalizer

#endif // EQ_TRACE_TRACER_HH

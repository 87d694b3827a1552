#include "tracer.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace equalizer
{

namespace
{

bool
isPowerOfTwo(Cycle v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
TraceConfig::validate() const
{
    if (!isPowerOfTwo(epochCycles))
        fatal("trace epoch must be a power of two, got ", epochCycles);
    if (bufKb == 0)
        fatal("trace_buf_kb must be positive");
    if (bufKb > std::numeric_limits<std::size_t>::max() / 1024)
        fatal("trace_buf_kb = ", bufKb, " KiB overflows a byte count");
}

Tracer::Tracer(TraceConfig cfg, TraceSink &sink)
    : cfg_(cfg), sink_(sink), epochMask_(cfg.epochCycles - 1)
{
    cfg.validate();
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::attach(int num_sms)
{
    if (attached()) {
        if (num_sms != numSms())
            fatal("tracer already attached to ", numSms(),
                  " SMs; cannot re-attach to ", num_sms);
        return;
    }
    const std::size_t cap =
        std::max<std::size_t>(1, cfg_.bufKb * 1024 / sizeof(TraceEvent));
    rings_.assign(static_cast<std::size_t>(num_sms), TraceRing(cap));

    TraceHeader h;
    h.numSms = static_cast<std::uint32_t>(num_sms);
    sink_.begin(h);
    headerWritten_ = true;
}

void
Tracer::drainRings(Cycle cycle)
{
    if constexpr (!traceCompiledIn)
        return;
    lastCycle_ = cycle;
    for (std::size_t s = 0; s < rings_.size(); ++s) {
        TraceRing &ring = rings_[s];
        ring.drainInto(pending_);
        const std::uint64_t drops = ring.takeDrops();
        if (drops > 0) {
            dropped_ += drops;
            pending_.push_back(makeSmEvent(
                TraceEventKind::Drops, cycle, static_cast<int>(s),
                static_cast<std::int64_t>(drops)));
        }
    }
    flushPending();
}

void
Tracer::drainEpoch(Cycle cycle)
{
    if constexpr (!traceCompiledIn)
        return;
    gauges_.sampleInto(pending_, cycle);
    drainRings(cycle);
}

void
Tracer::flushPending()
{
    if (pending_.empty())
        return;
    recorded_ += pending_.size();
    sink_.events(pending_.data(), pending_.size());
    pending_.clear();
}

void
Tracer::finish()
{
    if (finished_)
        return;
    if (attached())
        drainRings(lastCycle_);
    else
        flushPending();
    sink_.finish();
    finished_ = true;
}

} // namespace equalizer

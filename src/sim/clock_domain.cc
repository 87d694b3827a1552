#include "clock_domain.hh"

#include "common/log.hh"

namespace equalizer
{

ClockDomain::ClockDomain(std::string name, double nominal_hz, VfState start)
    : name_(std::move(name)), nominalHz_(nominal_hz), state_(start)
{
    EQ_ASSERT(nominal_hz > 0.0, "clock domain '", name_,
              "' needs a positive frequency");
    for (int i = 0; i < numVfStates; ++i) {
        auto s = static_cast<VfState>(i);
        periods_[i] = periodFromHz(nominalHz_ * frequencyScale(s));
    }
}

void
ClockDomain::scheduleState(VfState target, Tick effective_at)
{
    if (target == state_ && !pending_) {
        return;
    }
    pending_ = Pending{target, effective_at};
}

Tick
ClockDomain::advance()
{
    const Tick edge = nextEdge_;

    // Residency accrues at the state that was in force during the elapsed
    // interval [now_, edge).
    residency_[index(state_)] += edge - now_;
    now_ = edge;

    if (pending_ && pending_->at <= edge) {
        state_ = pending_->target;
        pending_.reset();
    }

    ++cycle_;
    nextEdge_ = edge + period();
    return edge;
}

Tick
ClockDomain::totalTime() const
{
    Tick total = 0;
    for (auto r : residency_)
        total += r;
    return total;
}

void
ClockDomain::resetStats()
{
    cycle_ = 0;
    residency_.fill(0);
}

void
ClockDomain::visitState(StateVisitor &v)
{
    // v2: a pending VF change is written field by field.
    v.beginSection("clk", 2);
    v.expectMatch(name_, "clock domain name");
    v.expectMatch(nominalHz_, "clock domain nominal frequency");
    v.field(state_);
    v.field(pending_);
    v.field(now_);
    v.field(nextEdge_);
    v.field(cycle_);
    v.field(residency_);
    v.endSection();
}

} // namespace equalizer

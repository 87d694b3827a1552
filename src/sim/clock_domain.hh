/**
 * @file
 * A runtime-retunable clock domain with VF-state residency tracking.
 */

#ifndef EQ_SIM_CLOCK_DOMAIN_HH
#define EQ_SIM_CLOCK_DOMAIN_HH

#include <array>
#include <optional>
#include <string>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/state.hh"
#include "sim/vf.hh"

namespace equalizer
{

/**
 * One clock domain (the SM domain or the memory-system domain).
 *
 * The domain advances in discrete edges. The period is derived from the
 * nominal frequency and the current VfState. State changes are scheduled
 * with a delay (the VRM transition latency) and take effect on the first
 * edge at or after the scheduled tick, so a change never splits a cycle.
 *
 * Residency time per VfState is tracked for the Figure 9 experiment and
 * for leakage-energy integration.
 */
class ClockDomain
{
  public:
    /**
     * @param name Domain name for stats ("sm" or "mem").
     * @param nominal_hz Frequency at VfState::Normal.
     * @param start State at time zero.
     */
    ClockDomain(std::string name, double nominal_hz,
                VfState start = VfState::Normal);

    /** Name given at construction. */
    const std::string &name() const { return name_; }

    /** Current operating state. */
    VfState state() const { return state_; }

    /** Current frequency in Hz. */
    double frequencyHz() const
    {
        return nominalHz_ * frequencyScale(state_);
    }

    /** Clock period at the current state, in ticks. */
    Tick period() const { return periods_[index(state_)]; }

    /** Tick at which the next edge fires. */
    Tick nextEdge() const { return nextEdge_; }

    /** Cycles elapsed in this domain since construction. */
    Cycle cycle() const { return cycle_; }

    /**
     * Schedule a transition to @p target, effective no earlier than
     * @p effective_at. A later request replaces a pending one.
     */
    void scheduleState(VfState target, Tick effective_at);

    /** True if a scheduled state change has not yet been applied. */
    bool transitionPending() const { return pending_.has_value(); }

    /**
     * Fire the edge at nextEdge(): account residency, apply any due
     * pending state, bump the cycle count and compute the next edge.
     *
     * @return The tick of the edge that fired.
     */
    Tick advance();

    /**
     * Fire the next @p n edges at once — bit-identical to n advance()
     * calls, provided no pending transition falls due within the span
     * (asserted). The fast path uses this to jump over verified-idle
     * stretches; residency integrates over the whole span so static
     * energy is unaffected (docs/FAST_PATH.md).
     */
    void advanceCycles(Cycle n);

    /** Tick at which the pending transition may apply (must be pending). */
    Tick pendingAt() const
    {
        EQ_ASSERT(pending_.has_value(), "pendingAt() without a pending "
                                        "transition on domain '",
                  name_, "'");
        return pending_->at;
    }

    /** Total simulated time this domain has spent in @p s, in ticks. */
    Tick residency(VfState s) const { return residency_[index(s)]; }

    /** Sum of residencies = total advanced time. */
    Tick totalTime() const;

    /** Reset cycle/residency accounting; keeps frequency state. */
    void resetStats();

    /**
     * Serialize the dynamic state (current VfState, pending transition,
     * time, cycle count, residency). Name and nominal frequency are
     * configuration and only validated, never overwritten.
     */
    void visitState(StateVisitor &v);

  private:
    static int index(VfState s) { return static_cast<int>(s); }

    std::string name_;
    double nominalHz_;
    std::array<Tick, numVfStates> periods_;

    VfState state_;
    struct Pending
    {
        VfState target;
        Tick at;
    };
    std::optional<Pending> pending_;

    Tick now_ = 0;      ///< time of the most recent edge
    Tick nextEdge_ = 0; ///< the first edge fires at t=0
    Cycle cycle_ = 0;
    std::array<Tick, numVfStates> residency_{};
};

} // namespace equalizer

#endif // EQ_SIM_CLOCK_DOMAIN_HH

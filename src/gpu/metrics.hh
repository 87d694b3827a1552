/**
 * @file
 * Per-run measurement record produced by GpuTop::runKernel.
 */

#ifndef EQ_GPU_METRICS_HH
#define EQ_GPU_METRICS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "gpu/warp_state.hh"
#include "sim/vf.hh"

namespace equalizer
{

/** Everything measured over one kernel invocation. */
struct RunMetrics
{
    std::string kernel;

    double seconds = 0.0;      ///< wall-clock simulated time
    Cycle smCycles = 0;        ///< SM-domain cycles elapsed
    Cycle memCycles = 0;       ///< memory-domain cycles elapsed

    std::uint64_t instructions = 0; ///< warp instructions issued (all SMs)

    double dynamicJoules = 0.0;
    double staticJoules = 0.0;

    WarpStateCounts outcomeTotals; ///< summed per-cycle warp states
    std::uint64_t outcomeCycles = 0; ///< SM cycles x SMs contributing

    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t dramRowHits = 0;

    /// Fraction of DRAM partition-time spent interface-powered-down.
    double dramPowerDownFraction = 0.0;

    /**
     * SM cycles at which no SM ticked because every SM was asleep
     * (docs/FAST_PATH.md). Diagnostic only: excluded from the export
     * tables and epoch gauges so fast- and slow-path runs stay
     * byte-comparable; 0 when fastPath is off or a cycle observer is
     * installed (both keep every SM awake), and in multi-tenant runs.
     * Not serialized, so a mid-kernel restore starts it afresh.
     */
    Cycle fastForwardedCycles = 0;

    /**
     * SM ticks actually run, summed over SMs: the rest of the
     * smCycles x SMs were slept. Diagnostic only, like
     * fastForwardedCycles.
     */
    std::uint64_t smTicks = 0;

    /**
     * L2 partition ticks actually run, summed over partitions: the rest
     * of the memCycles x partitions were slept. Diagnostic only, like
     * fastForwardedCycles.
     */
    std::uint64_t partitionTicks = 0;

    /// Time at each VF state, per domain (for Figure 9).
    std::array<Tick, numVfStates> smResidency{};
    std::array<Tick, numVfStates> memResidency{};

    double totalJoules() const { return dynamicJoules + staticJoules; }

    double
    ipc() const
    {
        return smCycles ? static_cast<double>(instructions) / smCycles : 0.0;
    }

    double
    l1HitRate() const
    {
        const auto loads = l1Hits + l1Misses;
        return loads ? static_cast<double>(l1Hits) / loads : 0.0;
    }

    /** Merge another invocation's numbers into this record. */
    RunMetrics &
    operator+=(const RunMetrics &o)
    {
        seconds += o.seconds;
        smCycles += o.smCycles;
        memCycles += o.memCycles;
        instructions += o.instructions;
        dynamicJoules += o.dynamicJoules;
        staticJoules += o.staticJoules;
        outcomeTotals += o.outcomeTotals;
        outcomeCycles += o.outcomeCycles;
        l1Hits += o.l1Hits;
        l1Misses += o.l1Misses;
        l2Hits += o.l2Hits;
        l2Misses += o.l2Misses;
        dramAccesses += o.dramAccesses;
        dramRowHits += o.dramRowHits;
        fastForwardedCycles += o.fastForwardedCycles;
        smTicks += o.smTicks;
        partitionTicks += o.partitionTicks;
        // Time-weighted combine of the power-down fraction.
        const Cycle mc = memCycles; // already includes o.memCycles
        if (mc > 0) {
            dramPowerDownFraction =
                (dramPowerDownFraction *
                     static_cast<double>(mc - o.memCycles) +
                 o.dramPowerDownFraction *
                     static_cast<double>(o.memCycles)) /
                static_cast<double>(mc);
        }
        for (int i = 0; i < numVfStates; ++i) {
            smResidency[static_cast<std::size_t>(i)] +=
                o.smResidency[static_cast<std::size_t>(i)];
            memResidency[static_cast<std::size_t>(i)] +=
                o.memResidency[static_cast<std::size_t>(i)];
        }
        return *this;
    }
};

} // namespace equalizer

#endif // EQ_GPU_METRICS_HH

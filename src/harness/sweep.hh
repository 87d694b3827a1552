/**
 * @file
 * The unified sweep API (docs/AUTOTUNE.md).
 *
 * A SweepPlan describes one VF x CTA operating-point sweep over the
 * tail of a kernel's invocation schedule: how the warm-up prefix is
 * handled (SweepStrategy), which points to visit (an explicit policy
 * list or a declarative SweepGrid), and — for the model-guided
 * strategy — the probe budget and Pareto slack of the search.
 * ExperimentRunner::runSweep() executes any plan.
 *
 * Every grid-driven sweep also fills SweepResult::table with one
 * SweepPointRow per grid point (predicted and measured cycles/joules
 * plus a simulated flag), the schema ExportSink::sweepTable() writes.
 */

#ifndef EQ_HARNESS_SWEEP_HH
#define EQ_HARNESS_SWEEP_HH

#include <string>
#include <vector>

#include "harness/policies.hh"
#include "kernels/kernel_params.hh"
#include "sim/vf.hh"

namespace equalizer
{

/** How a sweep pays for the shared warm-up prefix. */
enum class SweepStrategy
{
    Cold, ///< re-simulate the prefix for every point
    Warm, ///< simulate the prefix once, fork each point (bit-identical)
    Model,///< warm probes fit a model; only the predicted Pareto
          ///< frontier is simulated (docs/AUTOTUNE.md)
};

/** Canonical name ("cold", "warm", "model"). */
const char *sweepStrategyName(SweepStrategy s);

/** Parse a strategy name; fatal() on anything unknown. */
SweepStrategy sweepStrategyFromName(const std::string &name);

/** One VF x CTA grid point. */
struct OperatingPoint
{
    VfState smVf = VfState::Normal;
    VfState memVf = VfState::Normal;
    int cta = 1; ///< concurrent blocks per SM

    bool
    operator==(const OperatingPoint &o) const
    {
        return smVf == o.smVf && memVf == o.memVf && cta == o.cta;
    }
};

/**
 * Declarative VF x CTA grid. Points expand in a fixed order (SM state
 * major, then memory state, then CTA), so grid point ids are stable
 * across strategies.
 */
struct SweepGrid
{
    std::vector<VfState> smStates = {VfState::Low, VfState::Normal,
                                     VfState::High};
    std::vector<VfState> memStates = {VfState::Low, VfState::Normal,
                                      VfState::High};

    /**
     * Explicit CTA axis; empty = 1..effectiveMaxBlocks(), the
     * occupancy-calculator bound clamped by the kernel's Table II
     * limit.
     */
    std::vector<int> blocks;
};

/** Everything runSweep() needs to execute one sweep. */
struct SweepPlan
{
    KernelParams kernel;
    SweepStrategy strategy = SweepStrategy::Warm;

    /** Warm-up: invocations [0, prefixInvocations) under this policy. */
    PolicySpec prefixPolicy = policies::baseline();
    int prefixInvocations = 0;

    /**
     * Explicit operating points. Empty = expand @c grid instead (and
     * fill SweepResult::table). The Model strategy is grid-only.
     */
    std::vector<PolicySpec> points;
    SweepGrid grid;

    /** Model strategy: warmed probe simulations to fit from. */
    int probePoints = 6;

    /**
     * Model strategy: epsilon of the predicted Pareto frontier. A
     * point survives the frontier cut unless another predicted point
     * beats it by more than this factor on both time and energy.
     */
    double paretoSlack = 0.05;
};

/** One grid point of a sweep table (ExportSink::sweepTable schema). */
struct SweepPointRow
{
    int id = -1;          ///< stable grid point id
    std::string policy;   ///< operating-point policy name
    VfState smVf = VfState::Normal;
    VfState memVf = VfState::Normal;
    int cta = 0;

    /** Model predictions; zero under the exhaustive strategies. */
    double predictedSeconds = 0.0;
    double predictedCycles = 0.0;
    double predictedJoules = 0.0;

    /** Measured suffix totals; zero unless @c simulated. */
    double measuredSeconds = 0.0;
    double measuredCycles = 0.0;
    double measuredJoules = 0.0;

    bool simulated = false;
};

/**
 * Table index of the measured winner among simulated rows, by
 * measured seconds (or joules when @p by_energy); measured ties break
 * toward the lower id. -1 when nothing was simulated.
 */
int bestSweepRow(const std::vector<SweepPointRow> &table, bool by_energy);

} // namespace equalizer

#endif // EQ_HARNESS_SWEEP_HH

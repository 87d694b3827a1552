/**
 * @file
 * The experiment runner: executes a kernel's full invocation schedule on
 * a fresh GPU under a policy and aggregates the metrics.
 */

#ifndef EQ_HARNESS_RUNNER_HH
#define EQ_HARNESS_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "gpu/gpu_top.hh"
#include "harness/policies.hh"
#include "harness/sweep.hh"
#include "kernels/kernel_params.hh"
#include "kernels/synthetic_kernel.hh"
#include "power/energy_model.hh"

namespace equalizer
{

/** Result of running one application (all invocations of one kernel). */
struct AppRunResult
{
    std::string kernel;
    std::string policy;
    RunMetrics total;                   ///< summed over invocations
    std::vector<RunMetrics> invocations;
};

/**
 * Result of a sweep: one suffix-only AppRunResult per policy point (the
 * shared warm-up prefix is excluded from every point's metrics, so warm
 * and cold sweeps are directly comparable), plus the sweep's own
 * bookkeeping counters.
 */
struct SweepResult
{
    std::vector<AppRunResult> points; ///< one per *simulated* point
    StatRegistry stats; ///< this call's sweep.* counters (forks, ...)

    /**
     * One row per grid point when the plan was grid-driven (empty for
     * explicit-point sweeps): ids, predictions, measurements and the
     * simulated flag — the ExportSink::sweepTable() schema.
     */
    std::vector<SweepPointRow> table;

    /** Table indices of the measured winners (-1 = no table). */
    int bestPerf = -1;   ///< lowest measured seconds, ties to lower id
    int bestEnergy = -1; ///< lowest measured joules, ties to lower id

    /** Model strategy only: mean relative error over the probe fit. */
    double fitErrorSeconds = 0.0;
    double fitErrorJoules = 0.0;

    /** Model strategy only: probe-run features (docs/AUTOTUNE.md). */
    double probeIpc = 0.0;
    double probeMemoryPressure = 0.0;
    std::uint64_t probeEpochSamples = 0;
};

/**
 * Append one measured sweep point to @p result; in a grid-driven sweep
 * also copy its suffix totals into table row @p id and mark the row
 * simulated (the one place a row's measured fields are written).
 */
void recordSweepPoint(SweepResult &result, int id, AppRunResult point);

/** Relative performance: baseline time / variant time (>1 = faster). */
double speedupOver(const RunMetrics &baseline, const RunMetrics &variant);

/** Energy efficiency as the paper plots it: E_base / E_variant. */
double energyEfficiencyOver(const RunMetrics &baseline,
                            const RunMetrics &variant);

/** Relative energy: E_variant / E_base - 1 (positive = more energy). */
double energyIncreaseOver(const RunMetrics &baseline,
                          const RunMetrics &variant);

/** Geometric mean; empty input yields 1.0. */
double geomean(const std::vector<double> &values);

/**
 * Runs kernels under policies on freshly constructed GPUs.
 *
 * A small cache keyed by (kernel name, policy name) avoids
 * re-simulating the baseline for every figure that normalizes against
 * it.
 */
class ExperimentRunner
{
  public:
    /** Invoked after GPU construction, before the first invocation. */
    using Instrument = std::function<void(GpuTop &, GpuController *)>;

    /**
     * @param threads Accepted, no effect: every run ticks its SMs on
     *        the calling thread. Kept because bench/e2e passes it,
     *        until the next benchmark change (ROADMAP item 3).
     *        Negative is a fatal() error.
     */
    explicit ExperimentRunner(GpuConfig gpu_cfg = GpuConfig::gtx480(),
                              PowerConfig power_cfg = PowerConfig::gtx480(),
                              int threads = 1);

    /**
     * Record every subsequent run into @p tracer (nullptr disables).
     * Applied to each GpuTop the runner constructs — including sweep
     * parents and forked children — and bypasses the result cache so a
     * traced run always simulates.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** The tracer every run records into (nullptr = none). */
    Tracer *tracer() const { return tracer_; }

    /**
     * Simulate every invocation of @p kernel under @p policy.
     *
     * Results are cached by kernel name and *policy name*: two specs
     * that share a name but build differently configured controllers
     * must carry distinct names, or the second returns the first's
     * cached result.
     *
     * @param instrument Optional hook for monitors/traces (disables the
     *        result cache for that call).
     */
    AppRunResult run(const KernelParams &kernel, const PolicySpec &policy,
                     const Instrument &instrument = {});

    /** run() against the roster entry with this kernel name. */
    AppRunResult runByName(const std::string &kernel_name,
                           const PolicySpec &policy,
                           const Instrument &instrument = {});

    /**
     * Execute one sweep plan (docs/AUTOTUNE.md).
     *
     * Every point observes the same history: invocations
     * [0, plan.prefixInvocations) run under plan.prefixPolicy, then
     * the point's own (freshly built) policy runs the rest; each
     * point's AppRunResult covers only the suffix. The strategy only
     * decides how that history is paid for — Cold re-simulates the
     * prefix per point, Warm simulates it once and forks each point
     * (bit-identical per-point results), Model additionally fits a
     * predictor to a few warmed probes and simulates only the
     * predicted Pareto frontier. Either way each point is measured
     * by the same path: a fresh GPU that forks the warmed parent (or
     * re-simulates the prefix), then the point's suffix. Grid-driven
     * plans (empty plan.points) also fill SweepResult::table and the
     * winner indices. The returned counters cover this call only.
     */
    SweepResult runSweep(const SweepPlan &plan);

    /** Clear the (kernel, policy) result cache. */
    void clearCache() { cache_.clear(); }

    const GpuConfig &gpuConfig() const { return gpuCfg_; }

  private:
    /** Install the runner's tracer on a fresh GPU. */
    void wire(GpuTop &gpu) const;

    GpuConfig gpuCfg_;
    PowerConfig powerCfg_;
    Tracer *tracer_ = nullptr;
    std::vector<std::pair<std::string, AppRunResult>> cache_;
};

} // namespace equalizer

#endif // EQ_HARNESS_RUNNER_HH

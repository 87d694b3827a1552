/**
 * @file
 * The model-guided sweep driver (docs/AUTOTUNE.md).
 *
 * runModelSweep() is the search of SweepStrategy::Model: it measures a
 * handful of probe points through the runner's one point path (a fork
 * of the warmed prefix; the first probe also records a trace that
 * feeds the feature extractor), fits a SweepModel to the probe
 * measurements, predicts time and energy for every grid point, and
 * then simulates only the predicted epsilon-Pareto frontier — the
 * predicted best-perf and best-energy points, their CTA neighbours,
 * and as many further frontier points as the simulation budget (one
 * fifth of the grid) allows. runSweep() picks the winners from
 * *measured* values of the simulated subset, so a model sweep that
 * explores the true optima reports exactly the same
 * best-perf/best-energy answers as an exhaustive sweep
 * (bench/bench_autotune.cc gates this).
 */

#ifndef EQ_AUTOTUNE_AUTOTUNER_HH
#define EQ_AUTOTUNE_AUTOTUNER_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"

namespace equalizer
{

/**
 * Expand a declarative grid into operating points, SM state major,
 * then memory state, then CTA. An empty CTA axis becomes
 * 1..effectiveMaxBlocks(cfg, kernel).
 */
std::vector<OperatingPoint> expandSweepGrid(const GpuConfig &cfg,
                                            const KernelParams &kernel,
                                            const SweepGrid &grid);

/**
 * The probe schedule of a model sweep: up to @p budget unique grid
 * points interleaving the two extreme SM/memory frequency ratios
 * across a spread of CTA values (min, max, mid, ...), so the time
 * model's per-domain and per-CTA coefficients are all identifiable.
 */
std::vector<OperatingPoint>
selectProbePoints(const std::vector<OperatingPoint> &grid_points,
                  const SweepGrid &grid, int budget);

/**
 * Measures sweep point @p id (its index in the plan's point list, the
 * grid id of a grid-driven plan): a fresh GPU forks the warmed prefix
 * (or re-simulates it), records into @p point_tracer when non-null,
 * and runs the point's suffix. ExperimentRunner::runSweep() supplies
 * it and counts what it simulates.
 */
using SweepPointFn =
    std::function<AppRunResult(int id, Tracer *point_tracer)>;

/**
 * The model strategy's search over @p grid_points, whose rows
 * ExperimentRunner::runSweep() has already put in @p result.table.
 * Every simulation goes through @p measure_point; the search records
 * the simulated points, predictions, fit errors and probe features in
 * @p result and counts grid points, probes and frontier simulations in
 * @p stats. With @p trace_probe the first probe records into a private
 * feature tracer (false when the runner already traces every point).
 */
void runModelSweep(const SweepPlan &plan, double sm_nominal_hz,
                   const std::vector<OperatingPoint> &grid_points,
                   const SweepPointFn &measure_point, bool trace_probe,
                   SweepResult &result, StatRegistry &stats);

} // namespace equalizer

#endif // EQ_AUTOTUNE_AUTOTUNER_HH

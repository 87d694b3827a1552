#include "autotuner.hh"

#include <algorithm>
#include <utility>

#include "autotune/features.hh"
#include "autotune/model.hh"
#include "autotune/occupancy.hh"
#include "common/log.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"

namespace equalizer
{

std::vector<OperatingPoint>
expandSweepGrid(const GpuConfig &cfg, const KernelParams &kernel,
                const SweepGrid &grid)
{
    if (grid.smStates.empty() || grid.memStates.empty())
        fatal("sweep grid needs at least one SM and one memory VF state");

    std::vector<int> blocks = grid.blocks;
    if (blocks.empty()) {
        const int max_blocks = effectiveMaxBlocks(cfg, kernel);
        for (int c = 1; c <= max_blocks; ++c)
            blocks.push_back(c);
    }
    for (int c : blocks) {
        if (c <= 0)
            fatal("sweep grid CTA values must be positive, got ", c);
    }

    std::vector<OperatingPoint> points;
    for (VfState sm : grid.smStates)
        for (VfState mem : grid.memStates)
            for (int c : blocks)
                points.push_back(OperatingPoint{sm, mem, c});
    return points;
}

namespace
{

/** CTA values of the grid in probe-spread order: min, max, mid, rest. */
std::vector<int>
ctaSpreadOrder(const std::vector<OperatingPoint> &grid_points)
{
    std::vector<int> ctas;
    for (const auto &p : grid_points) {
        if (std::find(ctas.begin(), ctas.end(), p.cta) == ctas.end())
            ctas.push_back(p.cta);
    }
    std::sort(ctas.begin(), ctas.end());

    std::vector<int> spread;
    auto take = [&spread, &ctas](std::size_t i) {
        if (std::find(spread.begin(), spread.end(), ctas[i]) ==
            spread.end()) {
            spread.push_back(ctas[i]);
        }
    };
    take(0);
    take(ctas.size() - 1);
    take(ctas.size() / 2);
    for (std::size_t i = 0; i < ctas.size(); ++i)
        take(i);
    return spread;
}

} // namespace

std::vector<OperatingPoint>
selectProbePoints(const std::vector<OperatingPoint> &grid_points,
                  const SweepGrid &grid, int budget)
{
    if (grid_points.empty())
        fatal("cannot select probes from an empty grid");
    budget = std::min<int>(std::max(budget, 1),
                           static_cast<int>(grid_points.size()));

    // The two extreme frequency ratios: memory favoured over SM and
    // the reverse. Distinct x:m ratios are what make the time model's
    // memory-bound and compute-bound shares separable.
    std::vector<std::pair<VfState, VfState>> pairs = {
        {grid.smStates.front(), grid.memStates.back()},
        {grid.smStates.back(), grid.memStates.front()},
    };
    if (pairs[0] == pairs[1])
        pairs.pop_back();

    const std::vector<int> spread = ctaSpreadOrder(grid_points);
    auto contains = [](const std::vector<OperatingPoint> &v,
                       const OperatingPoint &p) {
        return std::find(v.begin(), v.end(), p) != v.end();
    };

    // Diagonal interleave: both ratios at CTA min before either moves
    // to CTA max, so any prefix of the schedule stays well-spread.
    std::vector<OperatingPoint> probes;
    const std::size_t n_pairs = pairs.size();
    for (std::size_t k = 0; k < n_pairs * spread.size(); ++k) {
        if (static_cast<int>(probes.size()) >= budget)
            return probes;
        const auto &[sm, mem] = pairs[k % n_pairs];
        const OperatingPoint p{sm, mem, spread[k / n_pairs]};
        if (contains(grid_points, p) && !contains(probes, p))
            probes.push_back(p);
    }
    // Ratio pairs exhausted (tiny grids): top up in grid id order.
    for (const auto &p : grid_points) {
        if (static_cast<int>(probes.size()) >= budget)
            break;
        if (!contains(probes, p))
            probes.push_back(p);
    }
    return probes;
}

namespace
{

/** Index of @p p in @p grid_points; -1 when absent. */
int
gridIndexOf(const std::vector<OperatingPoint> &grid_points,
            const OperatingPoint &p)
{
    for (std::size_t i = 0; i < grid_points.size(); ++i) {
        if (grid_points[i] == p)
            return static_cast<int>(i);
    }
    return -1;
}

/** argmin of @p value over all rows; ties go to the lower id. */
int
predictedArgmin(const std::vector<SweepPointRow> &table, bool by_energy)
{
    int best = -1;
    double best_value = 0.0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const double v = by_energy ? table[i].predictedJoules
                                   : table[i].predictedSeconds;
        if (best < 0 || v < best_value) {
            best = static_cast<int>(i);
            best_value = v;
        }
    }
    return best;
}

} // namespace

void
runModelSweep(const SweepPlan &plan, double sm_nominal_hz,
              const std::vector<OperatingPoint> &grid_points,
              const SweepPointFn &measure_point, bool trace_probe,
              SweepResult &result, StatRegistry &stats)
{
    const int grid_n = static_cast<int>(grid_points.size());
    stats.counter("sweep.grid_points") += static_cast<std::uint64_t>(grid_n);

    // Simulation budget: one fifth of the grid is the reduction target
    // (bench_autotune gates >= 5x); never below the probe schedule
    // itself so tiny grids still fit a model.
    const std::vector<OperatingPoint> probes =
        selectProbePoints(grid_points, plan.grid, plan.probePoints);
    const int budget = std::max(grid_n / 5,
                                static_cast<int>(probes.size()));

    // --- Probe runs. The first probe also records an epoch-level
    // trace (unless the runner already traces every point) so the
    // feature extractor sees per-epoch gauges, not just run totals.
    // Tracing is observational: the traced fork's metrics are
    // bit-identical to an untraced run of the same point
    // (tests/autotune_test.cc cross-checks this against the
    // exhaustive sweep).
    MemoryTraceSink feature_sink;
    Tracer feature_tracer(TraceConfig{}, feature_sink);

    std::vector<MeasuredSample> samples;
    ProbeFeatures probe_features;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        Tracer *t = i == 0 && trace_probe ? &feature_tracer : nullptr;
        const int id = gridIndexOf(grid_points, probes[i]);
        AppRunResult r = measure_point(id, t);
        if (t) {
            t->finish();
            probe_features = extractProbeFeatures(
                r.total, feature_sink.serialize());
        } else if (i == 0) {
            probe_features = extractProbeFeatures(r.total, {});
        }
        samples.push_back(MeasuredSample{probes[i], r.total.seconds,
                                         r.total.totalJoules()});
        recordSweepPoint(result, id, std::move(r));
        ++stats.counter("sweep.probes");
    }
    result.probeIpc = probe_features.ipc;
    result.probeMemoryPressure = probe_features.memoryPressure();
    result.probeEpochSamples = probe_features.epochSamples;

    // --- Fit and predict every grid point.
    const SweepModel model = SweepModel::fit(samples, sm_nominal_hz);
    result.fitErrorSeconds = model.fitErrorSeconds();
    result.fitErrorJoules = model.fitErrorJoules();
    for (std::size_t i = 0; i < grid_points.size(); ++i) {
        SweepPointRow &row = result.table[i];
        row.predictedSeconds = model.predictSeconds(grid_points[i]);
        row.predictedCycles = model.predictCycles(grid_points[i]);
        row.predictedJoules = model.predictJoules(grid_points[i]);
    }

    // --- Choose what else to simulate: the predicted winners, their
    // CTA neighbours (the model's CTA optimum is the least certain
    // axis), then the rest of the predicted epsilon-Pareto frontier,
    // alternating between its performance and energy ends.
    std::vector<int> to_simulate;
    auto enqueue = [&](int id) {
        if (id < 0 || result.table[static_cast<std::size_t>(id)].simulated)
            return;
        if (std::find(to_simulate.begin(), to_simulate.end(), id) ==
            to_simulate.end()) {
            to_simulate.push_back(id);
        }
    };
    auto neighbours = [&](int id) {
        if (id < 0)
            return;
        const OperatingPoint &op = grid_points[static_cast<std::size_t>(id)];
        for (int d : {-1, 1}) {
            enqueue(gridIndexOf(
                grid_points,
                OperatingPoint{op.smVf, op.memVf, op.cta + d}));
        }
    };
    const int pred_perf = predictedArgmin(result.table, false);
    const int pred_energy = predictedArgmin(result.table, true);
    enqueue(pred_perf);
    enqueue(pred_energy);
    // The probe schedule only visits the anti-diagonal VF pairs (that
    // is what makes the fit well-conditioned), so the corners the
    // winners usually live at — all-high for performance, all-low for
    // energy — are priors worth a simulation each, at the predicted
    // winner's CTA.
    if (pred_perf >= 0) {
        enqueue(gridIndexOf(
            grid_points,
            OperatingPoint{
                plan.grid.smStates.back(), plan.grid.memStates.back(),
                grid_points[static_cast<std::size_t>(pred_perf)].cta}));
    }
    if (pred_energy >= 0) {
        enqueue(gridIndexOf(
            grid_points,
            OperatingPoint{
                plan.grid.smStates.front(),
                plan.grid.memStates.front(),
                grid_points[static_cast<std::size_t>(pred_energy)]
                    .cta}));
    }
    neighbours(pred_perf);
    neighbours(pred_energy);

    std::vector<std::pair<double, double>> objectives;
    for (const auto &row : result.table)
        objectives.emplace_back(row.predictedSeconds, row.predictedJoules);
    std::vector<std::size_t> frontier =
        paretoFrontier(objectives, plan.paretoSlack);
    std::sort(frontier.begin(), frontier.end(),
              [&](std::size_t a, std::size_t b) {
                  const auto key = [&](std::size_t i) {
                      return std::make_pair(objectives[i].first, i);
                  };
                  return key(a) < key(b);
              });
    for (std::size_t lo = 0, hi = frontier.size(); lo < hi;) {
        enqueue(static_cast<int>(frontier[lo++]));
        if (lo < hi)
            enqueue(static_cast<int>(frontier[--hi]));
    }

    const int extra_budget =
        budget - static_cast<int>(result.points.size());
    if (static_cast<int>(to_simulate.size()) > extra_budget) {
        to_simulate.resize(
            static_cast<std::size_t>(std::max(extra_budget, 0)));
    }

    for (int id : to_simulate) {
        recordSweepPoint(result, id, measure_point(id, nullptr));
        ++stats.counter("sweep.frontier_sims");
    }
}

} // namespace equalizer

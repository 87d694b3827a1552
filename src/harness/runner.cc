#include "runner.hh"

#include <cmath>
#include <optional>
#include <utility>

#include "autotune/autotuner.hh"
#include "common/log.hh"
#include "kernels/kernel_zoo.hh"

namespace equalizer
{

const char *
sweepStrategyName(SweepStrategy s)
{
    switch (s) {
      case SweepStrategy::Cold:
        return "cold";
      case SweepStrategy::Warm:
        return "warm";
      case SweepStrategy::Model:
        return "model";
    }
    return "?";
}

SweepStrategy
sweepStrategyFromName(const std::string &name)
{
    if (name == "cold")
        return SweepStrategy::Cold;
    if (name == "warm")
        return SweepStrategy::Warm;
    if (name == "model")
        return SweepStrategy::Model;
    fatal("unknown sweep strategy '", name,
          "' (expected cold, warm or model)");
}

double
speedupOver(const RunMetrics &baseline, const RunMetrics &variant)
{
    return variant.seconds > 0.0 ? baseline.seconds / variant.seconds : 0.0;
}

double
energyEfficiencyOver(const RunMetrics &baseline, const RunMetrics &variant)
{
    const double v = variant.totalJoules();
    return v > 0.0 ? baseline.totalJoules() / v : 0.0;
}

double
energyIncreaseOver(const RunMetrics &baseline, const RunMetrics &variant)
{
    const double b = baseline.totalJoules();
    return b > 0.0 ? variant.totalJoules() / b - 1.0 : 0.0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

ExperimentRunner::ExperimentRunner(GpuConfig gpu_cfg, PowerConfig power_cfg,
                                   int threads)
    : gpuCfg_(gpu_cfg), powerCfg_(power_cfg)
{
    if (threads < 0)
        fatal("ExperimentRunner threads must not be negative, got ",
              threads);
}

namespace
{

/**
 * Run invocations [first_inv, count) of @p kernel on @p gpu under a
 * freshly built @p policy; @p instrument (if any) sees the GPU and the
 * controller before the first invocation. run() and every sweep
 * point's suffix share this loop.
 */
AppRunResult
runInvocations(GpuTop &gpu, const KernelParams &kernel,
               const PolicySpec &policy, int first_inv,
               const ExperimentRunner::Instrument &instrument = {})
{
    auto controller = policy.build();
    gpu.setController(controller.get());
    if (instrument)
        instrument(gpu, controller.get());

    AppRunResult result;
    result.kernel = kernel.name;
    result.policy = policy.name;
    result.total.kernel = kernel.name;
    for (int inv = first_inv; inv < kernel.invocationCount(); ++inv) {
        SyntheticKernel launch(kernel, inv);
        RunMetrics m = gpu.runKernel(launch);
        result.total += m;
        result.invocations.push_back(std::move(m));
    }
    gpu.setController(nullptr); // the controller dies here, the GPU may not
    return result;
}

/**
 * Simulate the plan's warm-up prefix on @p gpu under
 * plan.prefixPolicy, leaving no controller or policy hooks installed.
 */
void
runPrefix(GpuTop &gpu, const SweepPlan &plan, StatRegistry &stats)
{
    auto warmup = plan.prefixPolicy.build();
    gpu.setController(warmup.get());
    for (int inv = 0; inv < plan.prefixInvocations; ++inv) {
        SyntheticKernel launch(plan.kernel, inv);
        gpu.runKernel(launch);
    }
    stats.counter("sweep.prefix_invocations") +=
        static_cast<std::uint64_t>(plan.prefixInvocations);
    gpu.setController(nullptr);
    gpu.clearPolicyHooks(); // a CCWS warm-up's hooks die with it
}

/** fatal() unless the plan's prefix fits the kernel's schedule. */
void
checkPrefix(const KernelParams &kernel, int prefix_invocations)
{
    if (prefix_invocations < 0 ||
        prefix_invocations > kernel.invocationCount()) {
        fatal("sweep prefix of ", prefix_invocations,
              " invocations is outside this kernel's schedule of ",
              kernel.invocationCount());
    }
}

} // namespace

AppRunResult
ExperimentRunner::run(const KernelParams &kernel, const PolicySpec &policy,
                      const Instrument &instrument)
{
    const std::string key = kernel.name + "\x1f" + policy.name;
    const bool cacheable = !instrument && !tracer_;
    if (cacheable) {
        for (const auto &[k, v] : cache_)
            if (k == key)
                return v;
    }

    GpuTop gpu(gpuCfg_, powerCfg_);
    wire(gpu);
    AppRunResult result = runInvocations(gpu, kernel, policy, 0, instrument);
    if (cacheable)
        cache_.emplace_back(key, result);
    return result;
}

AppRunResult
ExperimentRunner::runByName(const std::string &kernel_name,
                            const PolicySpec &policy,
                            const Instrument &instrument)
{
    return run(KernelZoo::byName(kernel_name).params, policy, instrument);
}

void
ExperimentRunner::wire(GpuTop &gpu) const
{
    if (tracer_)
        gpu.setTracer(tracer_);
}

void
recordSweepPoint(SweepResult &result, int id, AppRunResult point)
{
    if (!result.table.empty()) {
        const RunMetrics &m = point.total;
        SweepPointRow &row = result.table[static_cast<std::size_t>(id)];
        row.measuredSeconds = m.seconds;
        row.measuredCycles = static_cast<double>(m.smCycles);
        row.measuredJoules = m.totalJoules();
        row.simulated = true;
    }
    result.points.push_back(std::move(point));
}

int
bestSweepRow(const std::vector<SweepPointRow> &table, bool by_energy)
{
    int best = -1;
    double best_value = 0.0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (!table[i].simulated)
            continue;
        const double v = by_energy ? table[i].measuredJoules
                                   : table[i].measuredSeconds;
        // Rows are visited in ascending id order, so "strictly less"
        // breaks measured ties toward the lower id.
        if (best < 0 || v < best_value) {
            best = static_cast<int>(i);
            best_value = v;
        }
    }
    return best;
}

SweepResult
ExperimentRunner::runSweep(const SweepPlan &plan)
{
    checkPrefix(plan.kernel, plan.prefixInvocations);
    const bool model = plan.strategy == SweepStrategy::Model;
    if (model && !plan.points.empty()) {
        fatal("the model sweep strategy is grid-driven; it cannot take "
              "explicit policy points");
    }

    // Explicit points produce no table; a grid-driven plan expands to
    // one operating-point policy and one table row per grid point.
    SweepResult result;
    std::vector<OperatingPoint> grid_points;
    std::vector<PolicySpec> points = plan.points;
    if (points.empty()) {
        grid_points = expandSweepGrid(gpuCfg_, plan.kernel, plan.grid);
        for (const auto &op : grid_points) {
            points.push_back(
                policies::operatingPoint(op.smVf, op.memVf, op.cta));
            SweepPointRow row;
            row.id = static_cast<int>(result.table.size());
            row.policy = points.back().name;
            row.smVf = op.smVf;
            row.memVf = op.memVf;
            row.cta = op.cta;
            result.table.push_back(std::move(row));
        }
    }

    // Warm and Model pay for the shared history once, in a parent
    // every point forks; Cold re-simulates it per point.
    StatRegistry stats;
    std::optional<GpuTop> parent;
    if (plan.strategy != SweepStrategy::Cold) {
        parent.emplace(gpuCfg_, powerCfg_);
        wire(*parent);
        runPrefix(*parent, plan, stats);
    }

    // The one point path. A per-point tracer must be installed before
    // the fork so it records the Fork event. Forking with no
    // controller installed drops the warm-up policy's internal state,
    // exactly as a cold point that builds its controller after the
    // prefix.
    const SweepPointFn measure_point = [&](int id, Tracer *point_tracer) {
        GpuTop gpu(gpuCfg_, powerCfg_);
        wire(gpu);
        if (point_tracer)
            gpu.setTracer(point_tracer);
        if (parent) {
            gpu.forkFrom(*parent);
            ++stats.counter("sweep.forks");
        } else {
            runPrefix(gpu, plan, stats);
        }
        const PolicySpec &policy = points[static_cast<std::size_t>(id)];
        AppRunResult r = runInvocations(gpu, plan.kernel, policy,
                                        plan.prefixInvocations);
        stats.counter("sweep.invocations") += r.invocations.size();
        ++stats.counter("sweep.points");
        return r;
    };

    if (model) {
        runModelSweep(plan, gpuCfg_.smNominalHz, grid_points,
                      measure_point, tracer_ == nullptr, result, stats);
    } else {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const int id = static_cast<int>(i);
            recordSweepPoint(result, id, measure_point(id, nullptr));
        }
    }

    // The winners are measured, never predicted: the model only
    // decided where to spend simulations.
    result.bestPerf = bestSweepRow(result.table, false);
    result.bestEnergy = bestSweepRow(result.table, true);
    result.stats = std::move(stats);
    return result;
}

} // namespace equalizer

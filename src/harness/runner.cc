#include "runner.hh"

#include <cmath>

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
    const int n =
        threads == 0 ? ParallelExecutor::hardwareThreads() : threads;
    if (n > 1)
        executor_ = std::make_unique<ParallelExecutor>(n);
}

int
ExperimentRunner::threads() const
{
    return executor_ ? executor_->threads() : 1;
}

AppRunResult
ExperimentRunner::run(const KernelParams &kernel, const PolicySpec &policy,
                      const Instrument &instrument)
{
    const std::string key = kernel.name + "\x1f" + policy.name;
    if (!instrument && !tracer_) {
        for (const auto &[k, v] : cache_)
            if (k == key)
                return v;
    }

    GpuTop gpu(gpuCfg_, powerCfg_);
    wire(gpu);
    auto controller = policy.build();
    gpu.setController(controller.get());
    if (instrument)
        instrument(gpu, controller.get());

    AppRunResult result;
    result.kernel = kernel.name;
    result.policy = policy.name;
    result.total.kernel = kernel.name;

    for (int inv = 0; inv < kernel.invocationCount(); ++inv) {
        SyntheticKernel launch(kernel, inv);
        RunMetrics m = gpu.runKernel(launch);
        result.total += m;
        result.invocations.push_back(std::move(m));
    }

    if (!instrument && !tracer_)
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
    gpu.setParallelExecutor(executor_.get());
    if (tracer_)
        gpu.setTracer(tracer_);
}

void
ExperimentRunner::runPrefix(GpuTop &gpu, const SweepPlan &plan)
{
    auto warmup = plan.prefixPolicy.build();
    gpu.setController(warmup.get());
    for (int inv = 0; inv < plan.prefixInvocations; ++inv) {
        SyntheticKernel launch(plan.kernel, inv);
        gpu.runKernel(launch);
        ++stats_.counter("sweep.prefix_invocations");
    }
    gpu.setController(nullptr);
    gpu.clearPolicyHooks(); // a CCWS warm-up's hooks die with it
}

AppRunResult
ExperimentRunner::runSuffix(GpuTop &gpu, const KernelParams &kernel,
                            const PolicySpec &policy, int first_inv)
{
    // A hook-installing warm-up policy (CCWS) must not keep steering
    // the suffix; a forked child starts hook-free either way.
    gpu.clearPolicyHooks();
    auto controller = policy.build();
    gpu.setController(controller.get());

    AppRunResult result;
    result.kernel = kernel.name;
    result.policy = policy.name;
    result.total.kernel = kernel.name;
    for (int inv = first_inv; inv < kernel.invocationCount(); ++inv) {
        SyntheticKernel launch(kernel, inv);
        RunMetrics m = gpu.runKernel(launch);
        ++stats_.counter("sweep.invocations");
        result.total += m;
        result.invocations.push_back(std::move(m));
    }
    gpu.setController(nullptr);
    return result;
}

void
ExperimentRunner::checkPrefix(const KernelParams &kernel,
                              int prefix_invocations) const
{
    if (prefix_invocations < 0 ||
        prefix_invocations > kernel.invocationCount()) {
        fatal("sweep prefix of ", prefix_invocations,
              " invocations is outside this kernel's schedule of ",
              kernel.invocationCount());
    }
}

namespace
{

/**
 * Fill the grid table of an exhaustive (cold/warm) sweep: every grid
 * point was simulated in id order, so measurement i belongs to row i.
 */
void
fillExhaustiveTable(SweepResult &result,
                    const std::vector<OperatingPoint> &grid_points,
                    const std::vector<PolicySpec> &policies)
{
    for (std::size_t i = 0; i < grid_points.size(); ++i) {
        const RunMetrics &m = result.points[i].total;
        SweepPointRow row;
        row.id = static_cast<int>(i);
        row.policy = policies[i].name;
        row.smVf = grid_points[i].smVf;
        row.memVf = grid_points[i].memVf;
        row.cta = grid_points[i].cta;
        row.measuredSeconds = m.seconds;
        row.measuredCycles = static_cast<double>(m.smCycles);
        row.measuredJoules = m.totalJoules();
        row.simulated = true;
        result.table.push_back(std::move(row));
    }
    result.bestPerf = bestSweepRow(result.table, false);
    result.bestEnergy = bestSweepRow(result.table, true);
}

} // namespace

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
    if (plan.strategy == SweepStrategy::Model)
        return runModelSweep(*this, plan);

    // Explicit points produce no table; a grid-driven plan expands to
    // operating-point policies and fills the table afterwards.
    std::vector<OperatingPoint> grid_points;
    std::vector<PolicySpec> points = plan.points;
    if (points.empty()) {
        grid_points = expandSweepGrid(gpuCfg_, plan.kernel, plan.grid);
        for (const auto &op : grid_points)
            points.push_back(
                policies::operatingPoint(op.smVf, op.memVf, op.cta));
    }

    SweepResult result;
    if (plan.strategy == SweepStrategy::Cold) {
        for (const auto &point : points) {
            GpuTop gpu(gpuCfg_, powerCfg_);
            wire(gpu);
            runPrefix(gpu, plan);
            result.points.push_back(runSuffix(gpu, plan.kernel, point,
                                              plan.prefixInvocations));
            ++stats_.counter("sweep.points");
        }
    } else {
        GpuTop parent(gpuCfg_, powerCfg_);
        wire(parent);
        runPrefix(parent, plan);

        for (const auto &point : points) {
            // Fork with no controller installed: the warm-up policy's
            // internal state is dropped, exactly as a cold point that
            // builds its controller after the prefix.
            GpuTop child(gpuCfg_, powerCfg_);
            wire(child);
            child.forkFrom(parent);
            ++stats_.counter("sweep.forks");

            result.points.push_back(runSuffix(child, plan.kernel, point,
                                              plan.prefixInvocations));
            ++stats_.counter("sweep.points");
        }
    }

    if (!grid_points.empty())
        fillExhaustiveTable(result, grid_points, points);
    result.stats = stats_.snapshotAndReset();
    return result;
}

} // namespace equalizer

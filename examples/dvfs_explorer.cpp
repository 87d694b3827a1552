/**
 * @file
 * DVFS design-space exploration: run one kernel at all nine static
 * (SM x memory) operating points and print the performance/energy
 * frontier, marking which points Equalizer's two modes actually land on.
 *
 * Usage: dvfs_explorer [kernel=<name>]
 */

#include <iostream>
#include <vector>

#include "baselines/static_policy.hh"
#include "common/config.hh"
#include "harness/policies.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"

using namespace equalizer;

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const Config cfg = Config::fromArgs(
        args, std::vector<Knob>{{"kernel", "roster kernel to explore", {}}});
    const std::string kernel_name = cfg.getString("kernel", "lbm");
    const ZooEntry &entry = KernelZoo::byName(kernel_name);

    std::cout << "kernel " << kernel_name << " ("
              << kernelCategoryName(entry.params.category) << ")\n";

    ExperimentRunner runner;
    const auto base = runner.run(entry.params, policies::baseline());

    TablePrinter t({"sm", "mem", "perf", "E_base/E", "verdict"});
    for (auto sm : {VfState::Low, VfState::Normal, VfState::High}) {
        for (auto mem : {VfState::Low, VfState::Normal, VfState::High}) {
            const std::string name = std::string("static-") +
                                     vfStateName(sm) + "-" +
                                     vfStateName(mem);
            PolicySpec spec{name, [name, sm, mem] {
                                return std::make_unique<StaticPolicy>(
                                    name, sm, mem);
                            }};
            const auto r = runner.run(entry.params, spec);
            const double perf = speedupOver(base.total, r.total);
            const double eff =
                energyEfficiencyOver(base.total, r.total);
            const char *verdict =
                perf >= 1.0 && eff >= 1.0
                    ? "win-win"
                    : (perf >= 1.0 ? "faster, more energy"
                                   : (eff >= 1.0 ? "slower, less energy"
                                                 : "lose-lose"));
            t.row({vfStateName(sm), vfStateName(mem), fmt(perf, 3),
                   fmt(eff, 3), verdict});
        }
    }
    t.print();

    const auto eq_p = runner.run(
        entry.params, policies::equalizer(EqualizerMode::Performance));
    const auto eq_e =
        runner.run(entry.params, policies::equalizer(EqualizerMode::Energy));
    std::cout << "\nequalizer-perf  : perf "
              << fmt(speedupOver(base.total, eq_p.total), 3) << ", eff "
              << fmt(energyEfficiencyOver(base.total, eq_p.total), 3)
              << " (also retunes concurrency)\n";
    std::cout << "equalizer-energy: perf "
              << fmt(speedupOver(base.total, eq_e.total), 3) << ", eff "
              << fmt(energyEfficiencyOver(base.total, eq_e.total), 3)
              << '\n';
    return 0;
}

/**
 * @file
 * Application-level scenario: run a whole application (every kernel of
 * a Rodinia/Parboil app, weighted as in the paper's Table II) under the
 * stock GPU and under Equalizer, and report end-to-end time and energy.
 *
 * This mirrors how the runtime would actually be used: one GPU instance
 * executes the app's kernels back to back and Equalizer re-adapts at
 * each kernel switch (per-kernel state is remembered across invocations
 * of the same kernel).
 *
 * Usage: app_pipeline [app=<name>] [mode=perf|energy]
 *        (apps: backprop, cfd, histo, leukocyte, mri-g, particle, ...)
 */

#include <iostream>
#include <vector>

#include "common/config.hh"
#include "equalizer/equalizer.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"

using namespace equalizer;

namespace
{

/** Roster entries of one application, in roster order. */
std::vector<const ZooEntry *>
kernelsOfApp(const std::string &app)
{
    std::vector<const ZooEntry *> out;
    for (const auto &entry : KernelZoo::all())
        if (entry.application == app)
            out.push_back(&entry);
    return out;
}

/** Run every kernel of the app on one GPU; returns summed metrics. */
RunMetrics
runApp(const std::vector<const ZooEntry *> &kernels,
       GpuController *controller)
{
    GpuTop gpu;
    gpu.setController(controller);
    RunMetrics total;
    for (const auto *entry : kernels) {
        for (int inv = 0; inv < entry->params.invocationCount(); ++inv) {
            SyntheticKernel launch(entry->params, inv);
            total += gpu.runKernel(launch);
        }
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const Config cfg = Config::fromArgs(
        args, std::vector<Knob>{
                  {"app", "application whose kernels run back to back", {}},
                  {"mode", "equalizer mode: perf or energy", {}},
              });
    const std::string app = cfg.getString("app", "histo");
    const std::string mode_name = cfg.getString("mode", "perf");

    const auto kernels = kernelsOfApp(app);
    if (kernels.empty()) {
        std::cerr << "unknown application '" << app << "'; known apps:";
        std::string last;
        for (const auto &e : KernelZoo::all())
            if (e.application != last) {
                std::cerr << ' ' << e.application;
                last = e.application;
            }
        std::cerr << '\n';
        return 1;
    }

    std::cout << "application " << app << " (" << kernels.size()
              << " kernels):";
    for (const auto *k : kernels)
        std::cout << ' ' << k->params.name << " ("
                  << kernelCategoryName(k->params.category) << ")";
    std::cout << '\n';

    const RunMetrics base = runApp(kernels, nullptr);

    EqualizerConfig ecfg;
    ecfg.mode = mode_name == "energy" ? EqualizerMode::Energy
                                      : EqualizerMode::Performance;
    EqualizerEngine eq(ecfg);
    const RunMetrics tuned = runApp(kernels, &eq);

    TablePrinter t({"config", "time(ms)", "energy(J)", "speedup",
                    "energy-ratio"});
    t.row({"baseline", fmt(base.seconds * 1e3, 3),
           fmt(base.totalJoules(), 4), "1.000", "1.000"});
    t.row({eq.name(), fmt(tuned.seconds * 1e3, 3),
           fmt(tuned.totalJoules(), 4),
           fmt(speedupOver(base, tuned), 3),
           fmt(tuned.totalJoules() / base.totalJoules(), 3)});
    t.print();
    return 0;
}

/**
 * @file
 * Quickstart: build a GPU, run one kernel from the zoo under the stock
 * configuration and under Equalizer's two modes, and print what changed.
 *
 * Usage: quickstart [kernel=<name>]   (default kernel=kmn)
 */

#include <iostream>
#include <vector>

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
        args, std::vector<Knob>{{"kernel", "roster kernel to run", {}}});
    const std::string kernel_name = cfg.getString("kernel", "kmn");

    const ZooEntry &entry = KernelZoo::byName(kernel_name);
    std::cout << "kernel " << kernel_name << " ("
              << kernelCategoryName(entry.params.category)
              << "), W_cta=" << entry.params.warpsPerBlock
              << ", maxBlocks/SM=" << entry.params.maxBlocksPerSm
              << ", grid=" << entry.params.totalBlocks << " blocks\n";

    ExperimentRunner runner;
    const auto base = runner.run(entry.params, policies::baseline());
    const auto perf =
        runner.run(entry.params, policies::equalizer(
                                     EqualizerMode::Performance));
    const auto energy =
        runner.run(entry.params,
                   policies::equalizer(EqualizerMode::Energy));

    TablePrinter table({"policy", "time(ms)", "speedup", "energy(J)",
                        "E_base/E", "IPC", "L1 hit", "X_alu/smp",
                        "X_mem/smp"});
    for (const auto *r : {&base, &perf, &energy}) {
        const auto &m = r->total;
        const double samples = static_cast<double>(m.outcomeCycles);
        table.row({r->policy, fmt(m.seconds * 1e3, 3),
                   fmt(speedupOver(base.total, m), 3),
                   fmt(m.totalJoules(), 4),
                   fmt(energyEfficiencyOver(base.total, m), 3),
                   fmt(m.ipc(), 2), pct(m.l1HitRate()),
                   fmt(static_cast<double>(m.outcomeTotals.excessAlu) /
                       samples, 2),
                   fmt(static_cast<double>(m.outcomeTotals.excessMem) /
                       samples, 2)});
    }
    table.print();
    return 0;
}

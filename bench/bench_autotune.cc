/**
 * @file
 * Autotuner validation bench (docs/AUTOTUNE.md): run the model-guided
 * sweep and the exhaustive warm sweep over the same VF x CTA grid and
 * gate the two promises the subsystem makes —
 *
 *  1. exactness: the model-guided search lands on the same measured
 *     best-performance and best-energy operating points as simulating
 *     every grid point, and
 *  2. economy: it simulates at least 5x fewer points doing so.
 *
 * Both sweeps fork the same warmed checkpoint, so any measured value
 * the model sweep produces must also be bit-identical to the
 * exhaustive sweep's at the same grid point (asserted per point; this
 * doubles as a check that the probe-feature tracer is observational).
 *
 * Usage:
 *   bench_autotune [kernels=<k1,k2,...>] [prefix=<n>] [probe_points=<n>]
 *                  [pareto_slack=<f>] [max_cta=<n>] [export=<path>]
 *
 * max_cta=<n> caps the CTA axis for a reduced-cost run (CI smoke);
 * export= writes the model sweep tables of every kernel in the
 * ExportSink::sweepTable() schema, rows concatenated, one meta block
 * per kernel with the winners and the reduction factor.
 */

#include <string>
#include <vector>

#include "autotune/occupancy.hh"
#include "bench_util.hh"
#include "common/config.hh"
#include "harness/export.hh"

using namespace equalizer;
using namespace equalizer::bench;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        std::vector<std::string>(argv + 1, argv + argc),
        std::vector<Knob>{
            {"kernels", "roster kernels to autotune", {}},
            {"prefix", "shared warm-up invocations", {}},
            {"probe_points", "probe simulations the model fits to", {}},
            {"pareto_slack", "epsilon of the predicted frontier cut",
             {}},
            {"max_cta", "cap on the CTA axis (reduced-cost smoke run)",
             {}},
            {"export", "write the model sweep tables (.csv/.json)",
             {}},
        });
    const std::vector<std::string> kernels =
        cfg.getList("kernels", "lbm,kmn");
    const int prefix = static_cast<int>(cfg.getInt("prefix", 2));
    const int max_cta = static_cast<int>(cfg.getInt("max_cta", 0));
    const std::string json_path = cfg.getString("export", "");

    ExperimentRunner runner(GpuConfig::gtx480(), PowerConfig::gtx480());
    const GpuConfig gcfg = runner.gpuConfig();

    ExportSink sink = ExportSink::sweepTable();
    sink.meta("bench", ExportCell::str("autotune"));
    bool pass = true;
    TablePrinter t({"kernel", "grid", "simulated", "reduction",
                    "best perf", "best energy", "fit err (t)",
                    "exact"});

    for (const std::string &kernel : kernels) {
        SweepPlan plan;
        plan.kernel = KernelZoo::byName(kernel).params;
        plan.prefixPolicy = policies::baseline();
        plan.prefixInvocations = prefix;
        if (plan.prefixInvocations >= plan.kernel.invocationCount()) {
            plan.kernel.invocations.assign(
                static_cast<std::size_t>(prefix + 1), InvocationMod{});
        }
        plan.probePoints =
            static_cast<int>(cfg.getInt("probe_points", 6));
        plan.paretoSlack = cfg.getDouble("pareto_slack", 0.05);
        if (max_cta > 0) {
            const int eff = std::min(
                max_cta, effectiveMaxBlocks(gcfg, plan.kernel));
            for (int c = 1; c <= eff; ++c)
                plan.grid.blocks.push_back(c);
        }

        progress(kernel + ": model-guided sweep");
        plan.strategy = SweepStrategy::Model;
        const SweepResult model = runner.runSweep(plan);
        progress(kernel + ": exhaustive warm sweep");
        plan.strategy = SweepStrategy::Warm;
        const SweepResult exhaustive = runner.runSweep(plan);

        int simulated = 0;
        bool measured_identical = true;
        for (std::size_t i = 0; i < model.table.size(); ++i) {
            if (!model.table[i].simulated)
                continue;
            ++simulated;
            // Same warmed fork machinery: bit-identical or bust.
            measured_identical =
                measured_identical &&
                model.table[i].measuredSeconds ==
                    exhaustive.table[i].measuredSeconds &&
                model.table[i].measuredCycles ==
                    exhaustive.table[i].measuredCycles &&
                model.table[i].measuredJoules ==
                    exhaustive.table[i].measuredJoules;
        }
        const int grid = static_cast<int>(model.table.size());
        const double reduction =
            simulated > 0 ? static_cast<double>(grid) / simulated : 0.0;
        const bool winners_match =
            model.bestPerf == exhaustive.bestPerf &&
            model.bestEnergy == exhaustive.bestEnergy;
        const bool exact =
            winners_match && measured_identical && reduction >= 5.0;
        pass = pass && exact;

        t.row({kernel, std::to_string(grid), std::to_string(simulated),
               fmt(reduction, 2) + "x",
               model.bestPerf >= 0
                   ? model.table[static_cast<std::size_t>(
                                     model.bestPerf)]
                         .policy
                   : "-",
               model.bestEnergy >= 0
                   ? model.table[static_cast<std::size_t>(
                                     model.bestEnergy)]
                         .policy
                   : "-",
               fmt(model.fitErrorSeconds, 3),
               exact ? "yes" : "NO"});
        if (!winners_match) {
            std::cerr << kernel << ": model picked ("
                      << model.bestPerf << ", " << model.bestEnergy
                      << "), exhaustive (" << exhaustive.bestPerf
                      << ", " << exhaustive.bestEnergy << ")\n";
        }

        sink.meta(kernel + "_grid_points", ExportCell::integer(grid));
        sink.meta(kernel + "_simulated_points",
                  ExportCell::integer(simulated));
        sink.meta(kernel + "_reduction", ExportCell::num(reduction));
        sink.meta(kernel + "_best_perf",
                  ExportCell::integer(model.bestPerf));
        sink.meta(kernel + "_best_energy",
                  ExportCell::integer(model.bestEnergy));
        sink.meta(kernel + "_winners_match",
                  ExportCell::integer(winners_match ? 1 : 0));
        for (const auto &row : model.table)
            sink.addSweepPoint(row);
    }

    banner("autotune: model-guided vs exhaustive");
    t.print();

    if (!json_path.empty()) {
        sink.writeFile(json_path, exportFormatForPath(
                                      json_path, ExportFormat::Json));
        progress("wrote " + json_path);
    }

    if (!pass) {
        std::cerr << "FAIL: model-guided search missed an exhaustive "
                     "winner or fell under the 5x reduction gate\n";
        return 1;
    }
    return 0;
}

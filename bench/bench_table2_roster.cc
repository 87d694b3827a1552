/**
 * @file
 * Table II reproduction: the benchmark roster with measured baseline
 * characteristics alongside the paper's structural parameters.
 *
 * Usage:
 *   bench_table2_roster [kernels=<n>] [export=<path>]
 *
 * kernels=<n> truncates the roster to its first n entries (the CI smoke
 * job uses this as a reduced budget); export=<path> additionally
 * exports every measured row through an ExportSink for the workflow
 * artifact (format inferred from the path suffix, JSON by default).
 */

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
            {"kernels", "truncate the roster to its first n entries",
             {}},
            {"export", "write measured rows (.csv/.json)", {}},
        });
    const auto limit = cfg.getInt("kernels", -1);
    const std::string json_path = cfg.getString("export", "");

    ExperimentRunner runner(GpuConfig::gtx480(), PowerConfig::gtx480());
    ExportSink sink = ExportSink::metricsTable();
    sink.meta("bench", ExportCell::str("table2_roster"));

    banner("Table II: kernel roster (paper structure + measured "
           "baseline behaviour)");
    TablePrinter t({"application", "kernel", "type", "fraction",
                    "blocks", "w_cta", "ipc", "l1-hit", "x_alu", "x_mem"});

    std::vector<std::string> names = kernelsInFigureOrder();
    if (limit >= 0 && static_cast<std::size_t>(limit) < names.size())
        names.resize(static_cast<std::size_t>(limit));

    for (const auto &name : names) {
        progress("table2 " + name);
        const auto &entry = KernelZoo::byName(name);
        const auto r = runner.run(entry.params, policies::baseline());
        sink.addResult(name, "baseline", r.total, r.invocations);
        const double cycles = static_cast<double>(r.total.outcomeCycles);
        t.row({entry.application, name,
               kernelCategoryName(entry.params.category),
               fmt(entry.appFraction, 2),
               std::to_string(entry.params.maxBlocksPerSm),
               std::to_string(entry.params.warpsPerBlock),
               fmt(r.total.ipc(), 2), pct(r.total.l1HitRate()),
               fmt(static_cast<double>(r.total.outcomeTotals.excessAlu) /
                       cycles, 2),
               fmt(static_cast<double>(r.total.outcomeTotals.excessMem) /
                       cycles, 2)});
    }
    t.print();

    if (!json_path.empty()) {
        sink.writeFile(json_path, exportFormatForPath(
                                      json_path, ExportFormat::Json));
        progress("wrote " + json_path);
    }

    std::cout << "\nNote: spmv is listed as Compute in the paper's "
                 "Table II but treated as cache-sensitive by Figures 4, "
                 "9, 10 and 11b; this repo follows the figures (see "
                 "DESIGN.md).\n";
    return 0;
}

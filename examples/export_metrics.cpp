/**
 * @file
 * Batch measurement export: run one or more kernels under a set of
 * policies and emit machine-readable CSV/JSON/trace-event output for
 * external plotting (e.g. regenerating the paper's figures with
 * matplotlib, or loading a sweep into Perfetto).
 *
 * Usage: export_metrics [kernel=<name>|all]
 *                       [format=csv|json|trace-event] [out=<path>]
 *
 * When out= is given and format= is not, the format is inferred from
 * the path suffix (.csv, .json, .trace.json).
 */

#include <fstream>
#include <iostream>
#include <vector>

#include "common/config.hh"
#include "harness/export.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"

using namespace equalizer;

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const Config cfg = Config::fromArgs(
        args, std::vector<Knob>{
                  {"kernel", "roster kernel to run, or all", {}},
                  {"format", "csv, json or trace-event", {}},
                  {"out", "output path (format inferred from suffix)", {}},
              });
    const std::string which = cfg.getString("kernel", "kmn");
    const std::string format_name = cfg.getString("format", "");
    const std::string out_path = cfg.getString("out", "");

    ExportFormat format = ExportFormat::Csv;
    if (!format_name.empty())
        format = exportFormatFromName(format_name);
    else if (!out_path.empty())
        format = exportFormatForPath(out_path, ExportFormat::Csv);

    std::vector<std::string> kernels;
    if (which == "all")
        kernels = KernelZoo::names();
    else
        kernels.push_back(which);

    const std::vector<PolicySpec> policies = {
        policies::baseline(),
        policies::smHigh(),
        policies::memHigh(),
        policies::equalizer(EqualizerMode::Performance),
        policies::equalizer(EqualizerMode::Energy),
    };

    ExperimentRunner runner;
    ExportSink sink = ExportSink::metricsTable();
    sink.meta("kernel", ExportCell::str(which));
    for (const auto &name : kernels) {
        const auto &entry = KernelZoo::byName(name);
        for (const auto &policy : policies) {
            std::cerr << "[export] " << name << " / " << policy.name
                      << '\n';
            const auto r = runner.run(entry.params, policy);
            sink.addResult(name, policy.name, r.total, r.invocations);
        }
    }

    if (!out_path.empty()) {
        sink.writeFile(out_path, format);
        std::cerr << "[export] wrote " << sink.rowCount() << " rows to "
                  << out_path << " (" << exportFormatName(format)
                  << ")\n";
    } else {
        sink.write(std::cout, format);
    }
    return 0;
}

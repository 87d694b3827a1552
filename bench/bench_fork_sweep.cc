/**
 * @file
 * Fork-sweep demonstration: a VF x CTA operating-point sweep over the
 * tail of a multi-invocation application, run twice — cold (every point
 * re-simulates the shared warm-up prefix) and warm (the prefix is
 * simulated once and every point forks the warmed GPU state via
 * GpuTop::forkFrom). Per-point results are identical by construction
 * (asserted); the warm sweep only buys wall-clock time.
 *
 * Both sweeps run through the unified runSweep() plan API with the
 * same declarative grid, so their tables align row for row; the export
 * is the warm sweep's table in the ExportSink::sweepTable() schema
 * (docs/AUTOTUNE.md).
 *
 * Usage:
 *   bench_fork_sweep [kernel=<name>] [invocations=<n>] [prefix=<n>]
 *                    [export=<path>]
 *
 * invocations=<n> synthesizes an n-invocation schedule from the chosen
 * roster kernel; prefix=<n> of those are the shared warm-up.
 */

#include <chrono>
#include <functional>

#include "bench_util.hh"
#include "common/config.hh"
#include "harness/export.hh"
#include "sim/vf.hh"

using namespace equalizer;
using namespace equalizer::bench;

namespace
{

double
wallSeconds(const std::function<void()> &work)
{
    const auto start = std::chrono::steady_clock::now();
    work();
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        std::vector<std::string>(argv + 1, argv + argc),
        std::vector<Knob>{
            {"kernel", "roster kernel to sweep", {}},
            {"invocations", "synthesized invocation count", {}},
            {"prefix", "shared warm-up invocations", {}},
            {"export", "write the sweep table (.csv/.json)", {}},
        });
    const std::string kernel = cfg.getString("kernel", "sgemm");
    const int invocations =
        static_cast<int>(cfg.getInt("invocations", 8));
    const int prefix = static_cast<int>(cfg.getInt("prefix", 6));
    const std::string json_path = cfg.getString("export", "");

    KernelParams params = KernelZoo::byName(kernel).params;
    params.invocations.assign(static_cast<std::size_t>(invocations),
                              InvocationMod{});

    // A 2x3 VF x CTA grid: six operating points sharing one warm-up.
    SweepPlan plan;
    plan.kernel = params;
    plan.prefixPolicy = policies::baseline();
    plan.prefixInvocations = prefix;
    plan.grid.smStates = {VfState::Normal, VfState::High};
    plan.grid.memStates = {VfState::Normal};
    plan.grid.blocks = {1, 2, params.maxBlocksPerSm};

    banner("fork sweep: " + kernel + " x 6 operating points (" +
           std::to_string(prefix) + "-invocation shared prefix of " +
           std::to_string(invocations) + ")");

    ExperimentRunner runner(GpuConfig::gtx480(), PowerConfig::gtx480());
    SweepResult cold, warm;
    progress("cold sweep (prefix re-simulated per point)");
    plan.strategy = SweepStrategy::Cold;
    const double cold_s =
        wallSeconds([&] { cold = runner.runSweep(plan); });
    progress("warm sweep (prefix forked via GpuTop::forkFrom)");
    plan.strategy = SweepStrategy::Warm;
    const double warm_s =
        wallSeconds([&] { warm = runner.runSweep(plan); });

    // The whole point: forking must not change any result.
    bool identical = cold.table.size() == warm.table.size();
    TablePrinter t({"operating point", "suffix ms", "IPC", "energy J",
                    "identical"});
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        const auto &c = cold.points[i];
        const auto &w = warm.points[i];
        const bool same =
            c.total.smCycles == w.total.smCycles &&
            c.total.instructions == w.total.instructions &&
            c.total.dynamicJoules == w.total.dynamicJoules &&
            c.total.staticJoules == w.total.staticJoules;
        identical = identical && same;
        t.row({c.policy, fmt(w.total.seconds * 1e3, 3),
               fmt(w.total.ipc(), 3), fmt(w.total.totalJoules(), 5),
               same ? "yes" : "NO"});
    }
    t.print();

    const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
    std::cout << "cold " << fmt(cold_s, 2) << " s, warm "
              << fmt(warm_s, 2) << " s -> " << fmt(speedup, 2)
              << "x wall-clock reduction\n";

    if (!json_path.empty()) {
        ExportSink sink = ExportSink::sweepTable();
        sink.meta("bench", ExportCell::str("fork_sweep"));
        sink.meta("kernel", ExportCell::str(kernel));
        sink.meta("invocations", ExportCell::integer(invocations));
        sink.meta("prefix", ExportCell::integer(prefix));
        sink.meta("strategy", ExportCell::str("warm"));
        sink.meta("identical_to_cold",
                  ExportCell::integer(identical ? 1 : 0));
        for (const auto &row : warm.table)
            sink.addSweepPoint(row);
        sink.writeFile(json_path, exportFormatForPath(
                                      json_path, ExportFormat::Json));
        progress("wrote " + json_path);
    }

    if (!identical) {
        std::cerr << "FAIL: warm sweep diverged from cold sweep\n";
        return 1;
    }
    return 0;
}

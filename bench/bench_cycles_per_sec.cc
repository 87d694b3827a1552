/**
 * @file
 * Simulator-throughput benchmark backing the CI perf gate: short
 * fixed-workload runs of one roster kernel per paper category
 * (sgemm = compute, lbm = memory, kmn = cache), reporting simulated SM
 * cycles per wall-clock second and the fraction of SM cycles the
 * cycle-skipping fast path jumped over (docs/FAST_PATH.md).
 *
 * The workloads are fully deterministic, so the simulated cycle counts
 * are fixed and only wall-clock time varies between machines. CI runs
 * this in Release and compares cycles/sec against the committed
 * BENCH_BASELINE.json via scripts/check_bench_baseline.py (fail on a
 * >25% regression, warn at >10%). Refresh the baseline with:
 *
 *   build/bench/bench_cycles_per_sec export=BENCH_BASELINE.json
 *
 * Usage:
 *   bench_cycles_per_sec [kernels=a,b,c] [threads=<n>] [repeats=<n>]
 *                        [fast_path=0|1] [compare=0|1] [serve=0|1]
 *                        [export=<path>]
 *   repeats=N times each kernel N times and keeps the best wall time
 *   (simulated results are identical across repeats by construction).
 *   compare=1 additionally times each kernel with fast_path=0 and
 *   reports the fast-path wall-clock speedup.
 *   serve=1 (default) appends "serve:poisson" and "serve:edf" rows
 *   timing a fixed serving workload through RequestServer under the
 *   preemptive and earliest-deadline-first dispatchers
 *   (docs/SERVING.md), so serving throughput is regression-gated and
 *   its simulated cycle counts pinned from day one.
 */

#include <algorithm>
#include <chrono>

#include "bench_util.hh"
#include "common/config.hh"
#include "gpu/gpu_top.hh"
#include "harness/export.hh"
#include "serve/arrival.hh"
#include "serve/server.hh"

using namespace equalizer;
using namespace equalizer::bench;

namespace
{

/** Best-of-@p repeats wall seconds plus the (identical) run result. */
struct TimedRun
{
    double wallSeconds = 0.0;
    AppRunResult result;
};

/** Best-of-@p repeats wall seconds for the fixed serving workload. */
struct TimedServe
{
    double wallSeconds = 0.0;
    ServeSummary summary;
    std::uint64_t fastForwardedCycles = 0;
};

/**
 * The perf-gate serving workload: a fixed-seed Poisson burst over a
 * mixed short/long kernel set under @p policy, so the gate times the
 * whole serving stack — quantum stepping, checkpoint shelves,
 * dispatch bookkeeping. Deterministic by construction, so its
 * executed-cycle count is pinned by the exact sm_cycles check.
 * @p slo_cycles stamps every request with a deadline, which the
 * deadline-aware policies need to order by.
 */
TimedServe
timeServe(const GpuConfig &gcfg, int repeats, ServePolicy policy,
          Cycle slo_cycles)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.count = 24;
    spec.ratePerMcycle = 120.0;
    spec.seed = 7;
    spec.sloCycles = slo_cycles;
    spec.mix = {{"sgemm", 1}, {"bp-1", 0}, {"prtcl-2", 0}};
    const std::vector<ServeRequest> requests = generateArrivals(spec);

    ServeOptions opts;
    opts.policy = policy;
    opts.kernelScale = 0.25;

    TimedServe out;
    for (int i = 0; i < repeats; ++i) {
        GpuTop gpu(gcfg);
        RequestServer server(gpu, opts);
        const auto start = std::chrono::steady_clock::now();
        ServeReport rep = server.serve(requests);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        if (i == 0 || wall.count() < out.wallSeconds)
            out.wallSeconds = wall.count();
        out.summary = std::move(rep.summary);
        out.fastForwardedCycles = gpu.fastForwardedCycles();
    }
    return out;
}

TimedRun
timeKernel(const GpuConfig &gcfg, int threads, int repeats,
           const ZooEntry &entry)
{
    TimedRun out;
    for (int i = 0; i < repeats; ++i) {
        // A fresh runner per repeat: the runner's result cache would
        // otherwise satisfy repeats 2..N without simulating.
        ExperimentRunner runner(gcfg, PowerConfig::gtx480(), threads);
        const auto start = std::chrono::steady_clock::now();
        auto r = runner.run(entry.params, policies::baseline());
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        if (i == 0 || wall.count() < out.wallSeconds)
            out.wallSeconds = wall.count();
        out.result = std::move(r);
    }
    return out;
}

/** One table row: its exported cells and its printed form. */
struct ThroughputRow
{
    std::vector<ExportCell> cells;
    std::vector<std::string> printed;

    ThroughputRow(const std::string &label, double wall_s,
                  std::uint64_t cycles, std::uint64_t ff_cycles)
    {
        const double cps =
            wall_s > 0.0 ? static_cast<double>(cycles) / wall_s : 0.0;
        const double ff_ratio =
            cycles ? static_cast<double>(ff_cycles) /
                         static_cast<double>(cycles)
                   : 0.0;
        cells = {ExportCell::str(label), ExportCell::num(wall_s),
                 ExportCell::integer(static_cast<std::int64_t>(cycles)),
                 ExportCell::num(cps),
                 ExportCell::integer(static_cast<std::int64_t>(ff_cycles)),
                 ExportCell::num(ff_ratio)};
        printed = {label,
                   fmt(wall_s, 3),
                   std::to_string(cycles),
                   fmt(cps, 0),
                   std::to_string(ff_cycles),
                   fmt(ff_ratio, 3)};
    }

    /** Append the compare=1 columns. */
    void
    addComparison(double slow_wall_s, double speedup)
    {
        cells.insert(cells.end(), {ExportCell::num(slow_wall_s),
                                   ExportCell::num(speedup)});
        printed.insert(printed.end(),
                       {fmt(slow_wall_s, 3), fmt(speedup, 2) + "x"});
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        std::vector<std::string>(argv + 1, argv + argc),
        std::vector<Knob>{
            {"kernels", "comma-separated roster kernels to time", {}},
            {"threads", "simulation worker threads (1 = serial)", {}},
            {"repeats", "timings per kernel; best is reported", {}},
            {"fast_path", "enable the cycle-skipping fast path", {}},
            {"compare",
             "also time fast_path=0 and report the speedup", {}},
            {"serve",
             "append a serve:poisson row through RequestServer", {}},
            {"export", "write the throughput table (.csv/.json)", {}},
        });
    const std::vector<std::string> kernels =
        cfg.getList("kernels", "sgemm,lbm,kmn");
    const int threads = static_cast<int>(cfg.getInt("threads", 1));
    const int repeats =
        std::max(1, static_cast<int>(cfg.getInt("repeats", 3)));
    const bool fast_path = cfg.getBool("fast_path", true);
    const bool compare = cfg.getBool("compare", false);
    const bool serve = cfg.getBool("serve", true);
    const std::string export_path = cfg.getString("export", "");

    GpuConfig gcfg = GpuConfig::gtx480();
    gcfg.fastPath = fast_path;

    banner("simulator throughput (threads=" + std::to_string(threads) +
           ", repeats=" + std::to_string(repeats) +
           ", fast_path=" + std::string(fast_path ? "1" : "0") + ")");

    std::vector<std::string> columns = {"kernel", "wall_seconds",
                                        "sm_cycles", "cycles_per_sec",
                                        "fast_forwarded_cycles",
                                        "ff_ratio"};
    std::vector<std::string> headers = {"kernel",  "wall s",
                                        "cycles",  "cycles/s",
                                        "ff",      "ff ratio"};
    if (compare) {
        columns.insert(columns.end(),
                       {"slow_wall_seconds", "fast_speedup"});
        headers.insert(headers.end(), {"slow s", "speedup"});
    }
    ExportSink sink(columns);
    sink.meta("bench", ExportCell::str("cycles_per_sec"));
    sink.meta("threads", ExportCell::integer(threads));
    sink.meta("repeats", ExportCell::integer(repeats));
    sink.meta("fast_path", ExportCell::integer(fast_path ? 1 : 0));

    TablePrinter t(headers);
    auto emit = [&](const ThroughputRow &row) {
        sink.row(row.cells);
        t.row(row.printed);
    };

    for (const auto &name : kernels) {
        const ZooEntry &entry = KernelZoo::byName(name);
        progress("timing " + name);
        const TimedRun run = timeKernel(gcfg, threads, repeats, entry);
        const auto &m = run.result.total;
        ThroughputRow row(name, run.wallSeconds, m.smCycles,
                          m.fastForwardedCycles);

        if (compare) {
            GpuConfig slow_cfg = gcfg;
            slow_cfg.fastPath = false;
            progress("timing " + name + " (fast_path=0)");
            const TimedRun slow =
                timeKernel(slow_cfg, threads, repeats, entry);
            if (slow.result.total.smCycles != m.smCycles) {
                fatal("fast/slow cycle mismatch on ", name, ": ",
                      m.smCycles, " vs ", slow.result.total.smCycles);
            }
            row.addComparison(slow.wallSeconds,
                              run.wallSeconds > 0.0
                                  ? slow.wallSeconds / run.wallSeconds
                                  : 0.0);
        }
        emit(row);
    }

    if (serve) {
        // The serving stack end to end; sm_cycles here is the summed
        // device cycles executed across requests (the serving wall
        // clock adds modeled preemption costs on top, so it is not a
        // device quantity). Two rows: the preemptive dispatcher on a
        // deadline-free stream, and edf on the same stream with a
        // uniform 70k-cycle SLO to order by.
        struct ServeRow
        {
            const char *label;
            ServePolicy policy;
            Cycle sloCycles;
        };
        for (const ServeRow &sr :
             {ServeRow{"serve:poisson", ServePolicy::Preempt, 0},
              ServeRow{"serve:edf", ServePolicy::Edf, 70'000}}) {
            progress(std::string("timing ") + sr.label +
                     " (RequestServer)");
            const TimedServe run =
                timeServe(gcfg, repeats, sr.policy, sr.sloCycles);
            ThroughputRow row(sr.label, run.wallSeconds,
                              run.summary.executedCycles,
                              run.fastForwardedCycles);
            if (compare)
                row.addComparison(run.wallSeconds, 1.0);
            emit(row);
        }
    }
    t.print();

    if (!export_path.empty()) {
        sink.writeFile(export_path,
                       exportFormatForPath(export_path,
                                           ExportFormat::Json));
        progress("wrote " + export_path);
    }
    return 0;
}

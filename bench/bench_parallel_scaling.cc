/**
 * @file
 * Parallel-executor scaling: simulated SM cycles per wall-clock second
 * at 1/2/4/8 worker threads on the default 15-SM configuration, and the
 * cost of one no-op parallelFor over the SMs (the per-cycle barrier).
 *
 * The simulation is bit-deterministic across thread counts, so every
 * row replays the identical run and the only thing that varies is
 * wall-clock time. The JSON output is uploaded as a CI artifact so the
 * performance trajectory stays visible per PR.
 *
 * Usage:
 *   bench_parallel_scaling [kernel=<name>] [sms=<n>] [threads=a,b,c]
 *                          [export=<path>] [trace=0|1]
 *   trace=1 re-runs each row with an attached tracer draining into a
 *   null sink and reports the tracing overhead (acceptance: <2%).
 */

#include <chrono>
#include <functional>

#include "bench_util.hh"
#include "common/config.hh"
#include "harness/export.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"

using namespace equalizer;
using namespace equalizer::bench;

namespace
{

/**
 * Microseconds per no-op parallelFor(n) on a pool of @p threads: the
 * fixed fork-join cost the SM phase pays once per SM cycle.
 */
double
parallelForUs(int threads, int n)
{
    ParallelExecutor exec(threads);
    const std::function<void(int)> noop = [](int) {};
    constexpr int warmup = 1'000;
    constexpr int calls = 20'000;
    for (int i = 0; i < warmup; ++i)
        exec.parallelFor(n, noop);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i)
        exec.parallelFor(n, noop);
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - start;
    return us.count() / calls;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        std::vector<std::string>(argv + 1, argv + argc),
        std::vector<Knob>{
            {"kernel", "roster kernel to run", {}},
            {"sms", "number of SMs", {}},
            {"threads", "comma-separated worker-thread counts", {}},
            {"export", "write the scaling table (.csv/.json)",
             {}},
            {"trace", "also measure tracing overhead per row", {}},
        });
    const std::string kernel = cfg.getString("kernel", "kmn");
    std::vector<int> thread_counts;
    for (const std::string &t : cfg.getList("threads", "1,2,4,8"))
        thread_counts.push_back(ParallelExecutor::resolveThreads(
            static_cast<int>(Config::parseInt("threads", t))));
    const std::string json_path = cfg.getString("export", "");
    const bool measure_trace = cfg.getBool("trace", false);

    GpuConfig gcfg = GpuConfig::gtx480();
    gcfg.numSms = static_cast<int>(cfg.getInt("sms", gcfg.numSms));

    const ZooEntry &entry = KernelZoo::byName(kernel);

    banner("parallel scaling: " + kernel + " on " +
           std::to_string(gcfg.numSms) + " SMs (hardware threads: " +
           std::to_string(ParallelExecutor::hardwareThreads()) + ")");

    std::vector<std::string> columns = {"threads", "wall_seconds",
                                        "sm_cycles", "cycles_per_sec",
                                        "parallel_for_us"};
    std::vector<std::string> headers = {"threads", "wall s",
                                        "sm cycles", "cycles/s",
                                        "speedup", "parallelFor us"};
    if (measure_trace) {
        columns.insert(columns.end(),
                       {"traced_wall_seconds", "trace_events",
                        "trace_overhead_pct"});
        headers.insert(headers.end(),
                       {"traced s", "events", "overhead"});
    }
    ExportSink sink(columns);
    sink.meta("bench", ExportCell::str("parallel_scaling"));
    sink.meta("kernel", ExportCell::str(kernel));
    sink.meta("sms", ExportCell::integer(gcfg.numSms));
    sink.meta("hardware_threads",
              ExportCell::integer(ParallelExecutor::hardwareThreads()));

    TablePrinter t(headers);
    double base_cps = 0.0;
    for (int threads : thread_counts) {
        progress("scaling threads=" + std::to_string(threads));
        ExperimentRunner runner(gcfg, PowerConfig::gtx480(), threads);

        const auto start = std::chrono::steady_clock::now();
        const auto r = runner.run(entry.params, policies::baseline());
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        const double seconds = wall.count();
        const double cps =
            seconds > 0.0
                ? static_cast<double>(r.total.smCycles) / seconds
                : 0.0;
        if (base_cps == 0.0)
            base_cps = cps;
        const double pfor_us = parallelForUs(runner.threads(), gcfg.numSms);

        std::vector<ExportCell> cells = {
            ExportCell::integer(runner.threads()),
            ExportCell::num(seconds),
            ExportCell::integer(
                static_cast<std::int64_t>(r.total.smCycles)),
            ExportCell::num(cps), ExportCell::num(pfor_us)};
        std::vector<std::string> row = {
            std::to_string(runner.threads()), fmt(seconds, 3),
            std::to_string(r.total.smCycles), fmt(cps, 0),
            fmt(base_cps > 0.0 ? cps / base_cps : 0.0, 2) + "x",
            fmt(pfor_us, 2)};

        if (measure_trace) {
            NullTraceSink null_sink;
            Tracer tracer(TraceConfig{}, null_sink);
            runner.setTracer(&tracer);
            const auto tstart = std::chrono::steady_clock::now();
            runner.run(entry.params, policies::baseline());
            const std::chrono::duration<double> twall =
                std::chrono::steady_clock::now() - tstart;
            runner.setTracer(nullptr);
            tracer.finish();

            const double traced = twall.count();
            const double overhead =
                seconds > 0.0 ? (traced - seconds) / seconds * 100.0
                              : 0.0;
            cells.insert(cells.end(),
                         {ExportCell::num(traced),
                          ExportCell::integer(static_cast<std::int64_t>(
                              tracer.eventsRecorded())),
                          ExportCell::num(overhead)});
            row.insert(row.end(),
                       {fmt(traced, 3),
                        std::to_string(tracer.eventsRecorded()),
                        fmt(overhead, 1) + "%"});
        }
        sink.row(cells);
        t.row(row);
    }
    t.print();

    if (!json_path.empty()) {
        sink.writeFile(json_path, exportFormatForPath(
                                      json_path, ExportFormat::Json));
        progress("wrote " + json_path);
    }
    return 0;
}

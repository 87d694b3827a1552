/**
 * @file
 * eqsim — the general-purpose simulator driver.
 *
 * Runs any roster kernel under any policy with GPU-configuration
 * overrides and prints a full measurement report (timing, energy
 * breakdown, warp states, cache/DRAM behaviour, VF residency).
 *
 * Usage:
 *   eqsim kernel=<name> [policy=<p>] [overrides...]
 *
 * Policies: baseline (default), sm-high, sm-low, mem-high, mem-low,
 *           blocks-<n>, equalizer-perf, equalizer-energy, dyncta, ccws
 *
 * Overrides:
 *   sms=<n> issue_width=<n> lsu_depth=<n> reg_ports=<n>
 *   scheduler=lrr|gto sm_mhz=<f> mem_mhz=<f>
 *   epoch=<cycles> hysteresis=<n> sample=<cycles>
 *   fast_path=<0|1> (cycle-skipping fast path, default on; results are
 *                bit-identical either way — fast_path=0 is the slow
 *                oracle for debugging, see docs/FAST_PATH.md)
 *   warm_start=<n> (simulate the first n invocations under the
 *                baseline policy, fork the warmed GPU state, and run
 *                the rest under the requested policy; the report then
 *                covers only the suffix — see docs/SNAPSHOT.md)
 *   sweep_mode=warm|cold (with warm_start: fork the warmed state via
 *                checkpointing, or re-simulate the prefix cold; the
 *                two modes produce byte-identical metrics, which CI
 *                diffs via export=)
 *   search=exhaustive|model (VF x CTA autotune over the kernel's
 *                operating-point grid after the warm_start prefix —
 *                docs/AUTOTUNE.md. exhaustive simulates every grid
 *                point (warm forks); model fits a bilinear
 *                cycles+joules predictor to a few warmed probes and
 *                simulates only the predicted Pareto frontier, then
 *                reports measured best-performance and best-energy
 *                configurations. export= writes the unified sweep
 *                table)
 *   probe_points=<n> (search=model: warmed probe simulations the
 *                model is fitted to, default 6)
 *   pareto_slack=<f> (search=model: epsilon of the predicted Pareto
 *                frontier cut, default 0.05)
 *   export=<path> (export the measured metrics; format inferred from
 *                the suffix: .csv, .json, .trace.json)
 *   trace=<path> (record an epoch-level execution trace; a .json path
 *                gets Chrome trace_event output for Perfetto, any
 *                other suffix the binary format — docs/TRACING.md)
 *   trace_buf_kb=<n> trace_epoch=<cycles> (tracing tunables)
 *   tenants=<k1,k2,...> (multi-tenant co-run: one tenant per kernel on
 *                exclusive SM partitions — docs/MULTI_TENANT.md; the
 *                report gains a per-tenant table and export= writes
 *                per-tenant rows)
 *   sm_limit=<f1,f2,...> (per-tenant SM-utilization caps in (0, 1],
 *                matched positionally to tenants=; missing entries
 *                default to 1.0 = unlimited; 0 is rejected, values
 *                above 1.0 clamp to unlimited with a warning)
 *   partition=rr|blocked (SM partition policy for tenants=)
 *   serve=1 (request-serving mode — docs/SERVING.md: an open-loop
 *                arrival stream of kernel-launch requests dispatched
 *                onto the device(s) in bounded quanta; policy= then
 *                selects the dispatcher: fcfs, sjf, edf, llf or
 *                preempt)
 *   admission=none|predictive (reject requests whose predicted
 *                completion already busts their SLO; rejections are
 *                counted and exported, never silently dropped)
 *   devices=<n> (shard the admission queue across n forked warm
 *                devices, each with its own scheduler core; dispatch
 *                picks the lowest predicted-free device)
 *   arrival=poisson|replay rate=<req/Mcycle> requests=<n> seed=<n>
 *   serve_kernels=<k[:prio],...> (Poisson kernel mix with optional
 *                priorities; larger = more urgent)
 *   replay=<path> (request trace to replay; arrival=replay)
 *   arrival_out=<path> (write the generated schedule as a replayable
 *                request trace)
 *   slo_us=<f> (Poisson per-request deadline; a replayed trace
 *                carries each request's own)
 *   quantum=<cycles> preempt_cost=<cycles>
 *   serve_scale=<f> (shrink factor for request grids, default 0.25)
 *   list=1 (print the roster, the knob registry and exit)
 *
 * Unknown keys are rejected with a "did you mean" suggestion;
 * hyphenated spellings (warm-start=) parse with a warning.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "harness/co_run.hh"
#include "harness/export.hh"
#include "harness/policies.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"
#include "serve/arrival.hh"
#include "serve/server.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace_reader.hh"

using namespace equalizer;

namespace
{

/** A cycle-count knob; a negative value is fatal rather than wrapping. */
Cycle
cyclesKnob(const Config &cfg, const std::string &key, Cycle default_value)
{
    const std::int64_t v =
        cfg.getInt(key, static_cast<std::int64_t>(default_value));
    if (v < 0)
        fatal(key, "= must not be negative, got ", v);
    return static_cast<Cycle>(v);
}

/** The policy= knob, with Equalizer tuned by epoch=/sample=/hysteresis=. */
PolicySpec
policyKnob(const Config &cfg)
{
    EqualizerConfig ecfg;
    ecfg.epochCycles = cyclesKnob(cfg, "epoch", 4096);
    ecfg.sampleInterval = cyclesKnob(cfg, "sample", 128);
    ecfg.hysteresis = static_cast<int>(cfg.getInt("hysteresis", 3));
    return policies::byName(cfg.getString("policy", "baseline"), ecfg);
}

/** The documented knob registry (printed by list=1). */
const std::vector<Knob> &
knobs()
{
    static const std::vector<Knob> k = {
        {"kernel", "roster kernel to run", {}},
        {"policy", "controller policy (baseline, equalizer-perf, ...)",
         {}},
        {"sms", "number of SMs", {}},
        {"issue_width", "instructions issued per SM cycle", {}},
        {"lsu_depth", "LSU queue depth", {}},
        {"reg_ports", "register file read ports", {}},
        {"sm_mhz", "nominal SM clock in MHz", {}},
        {"mem_mhz", "nominal memory clock in MHz", {}},
        {"scheduler", "warp scheduler: lrr or gto", {}},
        {"epoch", "Equalizer decision epoch in cycles", {}},
        {"hysteresis", "Equalizer hysteresis threshold", {}},
        {"sample", "warp-state sample interval in cycles", {}},
        {"fast_path",
         "cycle-skipping fast path (1 = on, 0 = slow oracle)", {}},
        {"warm_start", "baseline invocations to warm up before the "
                       "requested policy", {}},
        {"sweep_mode", "warm-up handoff: warm (fork the warmed state) "
                       "or cold (re-simulate the prefix)",
         {}},
        {"search",
         "VF x CTA autotune over the operating-point grid: exhaustive "
         "or model",
         {}},
        {"probe_points",
         "search=model: warmed probe simulations to fit the model to",
         {}},
        {"pareto_slack",
         "search=model: epsilon of the predicted Pareto frontier cut",
         {}},
        {"export", "write measured metrics (.csv/.json/.trace.json)",
         {}},
        {"trace", "record an execution trace (.json = Chrome "
                  "trace_event, else binary)", {}},
        {"trace_buf_kb", "per-SM trace ring capacity in KiB", {}},
        {"trace_epoch", "trace drain interval in cycles (power of 2)",
         {}},
        {"tenants", "comma-separated kernels for a multi-tenant co-run",
         {}},
        {"sm_limit",
         "per-tenant SM-utilization caps in (0, 1], matched to tenants=",
         {}},
        {"partition", "tenant SM partition policy: rr or blocked", {}},
        {"serve",
         "request-serving mode: policy= becomes the dispatcher "
         "(fcfs, sjf, edf, llf, preempt)",
         {}},
        {"admission",
         "admission control: none or predictive (reject requests "
         "predicted to bust their SLO)",
         {}},
        {"devices",
         "devices to shard the admission queue across (forked warm "
         "clones)",
         {}},
        {"arrival", "arrival process: poisson or replay", {}},
        {"rate", "mean arrivals per million wall cycles", {}},
        {"requests", "requests to generate (arrival=poisson)", {}},
        {"seed", "arrival-stream random seed", {}},
        {"serve_kernels",
         "Poisson kernel mix: name[:priority],... (larger = more "
         "urgent)",
         {}},
        {"replay", "request trace to replay (arrival=replay)", {}},
        {"arrival_out",
         "write the generated schedule as a replayable request trace",
         {}},
        {"slo_us",
         "per-request latency deadline in microseconds (Poisson only)",
         {}},
        {"quantum", "SM cycles per dispatcher quantum", {}},
        {"preempt_cost",
         "modeled save/restore cost of a preemption, in cycles", {}},
        {"serve_scale", "shrink factor for request grids", {}},
        {"list", "print the roster and knob registry, then exit", {}},
    };
    return k;
}

/**
 * The trace= wiring every mode shares: a .json path records in memory
 * and converts to Chrome trace_event JSON at finish(); any other path
 * streams the binary format directly to disk.
 */
class TraceSession
{
  public:
    explicit TraceSession(const Config &cfg)
        : path_(cfg.getString("trace", ""))
    {
        if (path_.empty())
            return;
        TraceConfig tcfg;
        const std::int64_t buf_kb = cfg.getInt("trace_buf_kb", 64);
        if (buf_kb <= 0)
            fatal("trace_buf_kb= must be positive, got ", buf_kb);
        tcfg.bufKb = static_cast<std::size_t>(buf_kb);
        tcfg.epochCycles = cyclesKnob(cfg, "trace_epoch", 4096);
        tcfg.validate(); // before the file sink creates the file
        if (chromeTracePath(path_)) {
            mem_ = std::make_unique<MemoryTraceSink>();
            tracer_ = std::make_unique<Tracer>(tcfg, *mem_);
        } else {
            file_ = std::make_unique<FileTraceSink>(path_);
            tracer_ = std::make_unique<Tracer>(tcfg, *file_);
        }
    }

    /** The tracer to install, or nullptr without trace=. */
    Tracer *tracer() const { return tracer_.get(); }

    /** Drain the tracer, write the Chrome form, print the summary. */
    void
    finish()
    {
        if (!tracer_)
            return;
        tracer_->finish();
        if (mem_) {
            writeChromeTraceFile(TraceReader::fromBytes(mem_->serialize()),
                                 path_);
        }
        std::cout << "trace: " << tracer_->eventsRecorded()
                  << " events -> " << path_;
        if (tracer_->eventsDropped() > 0)
            std::cout << " (" << tracer_->eventsDropped()
                      << " dropped; raise trace_buf_kb)";
        std::cout << '\n';
    }

  private:
    std::string path_;
    std::unique_ptr<MemoryTraceSink> mem_;
    std::unique_ptr<FileTraceSink> file_;
    std::unique_ptr<Tracer> tracer_;
};

/**
 * The serve= mode (docs/SERVING.md): generate or replay an open-loop
 * arrival schedule, dispatch it onto devices= forked devices in
 * bounded quanta under the selected policy and admission control, and
 * report latency percentiles, throughput, rejections and SLO
 * violations.
 */
int
runServeMode(const Config &cfg, const GpuConfig &gcfg)
{
    const std::string policy_name = cfg.getString("policy", "fcfs");
    const ServePolicy policy = servePolicyFromString(policy_name);
    const AdmissionPolicy admission = admissionPolicyFromString(
        cfg.getString("admission", "none"));
    const int devices = static_cast<int>(cfg.getInt("devices", 1));
    if (devices < 1)
        fatal("devices= must be at least 1, got ", devices);

    ArrivalSpec spec;
    spec.kind = arrivalKindFromString(cfg.getString("arrival", "poisson"));
    spec.count = static_cast<int>(cfg.getInt("requests", 32));
    spec.ratePerMcycle = cfg.getDouble("rate", 20.0);
    spec.seed = static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    spec.replayPath = cfg.getString("replay", "");
    const double slo_us = cfg.getDouble("slo_us", 0.0);
    if (!(slo_us >= 0.0))
        fatal("slo_us= must not be negative, got ", slo_us);
    spec.sloCycles =
        static_cast<Cycle>(slo_us * gcfg.smNominalHz / 1e6);
    for (const auto &item :
         cfg.getList("serve_kernels", "prtcl-2:1,bp-1:0")) {
        ArrivalMix mix = parseArrivalMix(item);
        KernelZoo::byName(mix.kernel); // validate early
        spec.mix.push_back(std::move(mix));
    }
    if (spec.kind == ArrivalKind::Replay && spec.replayPath.empty())
        fatal("arrival=replay needs replay=<path>");
    if (spec.kind == ArrivalKind::Replay && cfg.contains("slo_us"))
        fatal("slo_us= does not apply to arrival=replay: the trace "
              "carries each request's SLO");

    const std::vector<ServeRequest> requests = generateArrivals(spec);
    if (const std::string out = cfg.getString("arrival_out", "");
        !out.empty())
        writeRequestTrace(out, requests);

    // Device 0 is built cold; every further device is a warm fork of
    // it (identical config fingerprint, so preemption shelves restore
    // on any device). The fork happens before the tracer attaches:
    // traces cover device 0 only.
    std::vector<std::unique_ptr<GpuTop>> gpus;
    for (int d = 0; d < devices; ++d) {
        gpus.push_back(
            std::make_unique<GpuTop>(gcfg, PowerConfig::gtx480()));
        if (d > 0)
            gpus.back()->forkFrom(*gpus.front());
    }
    GpuTop &gpu = *gpus.front();

    TraceSession trace(cfg);
    gpu.setTracer(trace.tracer());

    ServeOptions opts;
    opts.policy = policy;
    opts.admission = admission;
    opts.quantumCycles = cyclesKnob(cfg, "quantum", 2048);
    opts.preemptSaveCycles = cyclesKnob(cfg, "preempt_cost", 512);
    opts.preemptRestoreCycles = opts.preemptSaveCycles;
    opts.kernelScale = cfg.getDouble("serve_scale", 0.25);

    std::cout << "serving " << requests.size() << " request(s), "
              << toString(spec.kind) << " arrivals, dispatcher "
              << toString(policy) << ", admission "
              << toString(admission) << ", " << devices
              << " device(s) x " << gcfg.numSms << " SMs\n";

    std::vector<GpuTop *> gpu_ptrs;
    for (auto &g : gpus)
        gpu_ptrs.push_back(g.get());
    RequestServer server(gpu_ptrs, opts);
    const ServeReport rep = server.serve(requests);
    gpu.setTracer(nullptr);
    trace.finish();

    if (const std::string export_path = cfg.getString("export", "");
        !export_path.empty()) {
        ExportSink sink = ExportSink::serveTable();
        const ServeSummary &s = rep.summary;
        sink.meta("policy", ExportCell::str(s.policy));
        sink.meta("admission", ExportCell::str(s.admission));
        sink.meta("devices", ExportCell::integer(s.devices));
        sink.meta("arrival", ExportCell::str(toString(spec.kind)));
        sink.meta("seed", ExportCell::integer(
                              static_cast<std::int64_t>(spec.seed)));
        sink.meta("requests", ExportCell::integer(s.requests));
        sink.meta("completed", ExportCell::integer(s.completed));
        sink.meta("rejected", ExportCell::integer(s.rejected));
        sink.meta("rejection_rate", ExportCell::num(s.rejectionRate));
        sink.meta("preemptions", ExportCell::integer(s.preemptions));
        sink.meta("wall_cycles",
                  ExportCell::integer(
                      static_cast<std::int64_t>(s.wallCycles)));
        sink.meta("p50_latency",
                  ExportCell::integer(
                      static_cast<std::int64_t>(s.p50Latency)));
        sink.meta("p95_latency",
                  ExportCell::integer(
                      static_cast<std::int64_t>(s.p95Latency)));
        sink.meta("p99_latency",
                  ExportCell::integer(
                      static_cast<std::int64_t>(s.p99Latency)));
        sink.meta("mean_latency", ExportCell::num(s.meanLatency));
        sink.meta("throughput_per_mcycle",
                  ExportCell::num(s.throughputPerMcycle));
        sink.meta("slo_violations",
                  ExportCell::integer(s.sloViolations));
        sink.meta("slo_violation_rate",
                  ExportCell::num(s.sloViolationRate));
        for (const auto &d : rep.deviceStats) {
            const std::string p = "dev" + std::to_string(d.device);
            sink.meta(p + "_completed",
                      ExportCell::integer(d.completed));
            sink.meta(p + "_preemptions",
                      ExportCell::integer(d.preemptions));
            sink.meta(p + "_executed_cycles",
                      ExportCell::integer(static_cast<std::int64_t>(
                          d.executedCycles)));
            sink.meta(p + "_wall_cycles",
                      ExportCell::integer(static_cast<std::int64_t>(
                          d.wallCycles)));
        }
        for (const auto &rec : rep.records)
            sink.addServeRequest(s.policy, rec);
        sink.writeFile(export_path,
                       exportFormatForPath(export_path,
                                           ExportFormat::Json));
    }

    const ServeSummary &s = rep.summary;
    banner("serving");
    TablePrinter t({"metric", "value"});
    t.row({"dispatcher", s.policy});
    t.row({"admission", s.admission});
    t.row({"devices", std::to_string(s.devices)});
    t.row({"requests", std::to_string(s.requests)});
    t.row({"completed", std::to_string(s.completed)});
    t.row({"rejected", std::to_string(s.rejected)});
    t.row({"preemptions", std::to_string(s.preemptions)});
    t.row({"wall cycles", std::to_string(s.wallCycles)});
    t.row({"executed cycles", std::to_string(s.executedCycles)});
    t.row({"throughput", fmt(s.throughputPerMcycle, 3) + " req/Mcycle"});
    t.print();

    if (s.devices > 1) {
        banner("devices");
        TablePrinter dev({"device", "completed", "preemptions",
                          "executed cycles", "wall cycles"});
        for (const auto &d : rep.deviceStats)
            dev.row({std::to_string(d.device),
                     std::to_string(d.completed),
                     std::to_string(d.preemptions),
                     std::to_string(d.executedCycles),
                     std::to_string(d.wallCycles)});
        dev.print();
    }

    banner("latency (SM cycles)");
    TablePrinter lat({"percentile", "cycles"});
    lat.row({"p50", std::to_string(s.p50Latency)});
    lat.row({"p95", std::to_string(s.p95Latency)});
    lat.row({"p99", std::to_string(s.p99Latency)});
    lat.row({"max", std::to_string(s.maxLatency)});
    lat.row({"mean", fmt(s.meanLatency, 1)});
    lat.print();

    if (std::any_of(requests.begin(), requests.end(),
                    [](const ServeRequest &r) { return r.sloCycles > 0; })) {
        banner("SLO");
        TablePrinter slo({"metric", "value"});
        if (spec.sloCycles > 0) // replayed requests carry their own
            slo.row({"deadline", std::to_string(spec.sloCycles) +
                                     " cycles (" + fmt(slo_us, 1) +
                                     " us)"});
        slo.row({"violations", std::to_string(s.sloViolations)});
        slo.row({"violation rate", pct(s.sloViolationRate)});
        slo.print();
    }
    return 0;
}

/**
 * The search= mode (docs/AUTOTUNE.md): sweep the kernel's VF x CTA
 * operating-point grid after the warm_start prefix — exhaustively or
 * model-guided — and report the measured best-performance and
 * best-energy configurations plus the predicted-vs-measured table.
 */
int
runSearchMode(const Config &cfg, const GpuConfig &gcfg)
{
    const std::string search = cfg.getString("search", "");
    if (search != "exhaustive" && search != "model")
        fatal("search must be 'exhaustive' or 'model', got '", search,
              "'");
    const ZooEntry &entry =
        KernelZoo::byName(cfg.getString("kernel", "kmn"));
    ExperimentRunner runner(gcfg, PowerConfig::gtx480());

    SweepPlan plan;
    plan.kernel = entry.params;
    plan.strategy = search == "model" ? SweepStrategy::Model
                                      : SweepStrategy::Warm;
    plan.prefixPolicy = policies::baseline();
    plan.prefixInvocations =
        static_cast<int>(cfg.getInt("warm_start", 2));
    plan.probePoints = static_cast<int>(cfg.getInt("probe_points", 6));
    plan.paretoSlack = cfg.getDouble("pareto_slack", 0.05);
    if (plan.prefixInvocations >= plan.kernel.invocationCount()) {
        // Most roster kernels run once; a warm-up prefix needs a
        // longer schedule, so synthesize one (the bench_fork_sweep
        // trick): warm_start baseline invocations plus a tuned tail.
        plan.kernel.invocations.assign(
            static_cast<std::size_t>(plan.prefixInvocations + 1),
            InvocationMod{});
    }

    std::cout << "autotune (" << search << ") of " << entry.params.name
              << " after " << plan.prefixInvocations
              << " warm-up invocation(s), " << gcfg.numSms << " SMs\n";

    const SweepResult res = runner.runSweep(plan);
    int simulated = 0;
    for (const auto &row : res.table)
        simulated += row.simulated ? 1 : 0;

    if (const std::string export_path = cfg.getString("export", "");
        !export_path.empty()) {
        ExportSink sink = ExportSink::sweepTable();
        sink.meta("kernel", ExportCell::str(entry.params.name));
        sink.meta("search", ExportCell::str(search));
        sink.meta("warm_start",
                  ExportCell::integer(plan.prefixInvocations));
        sink.meta("grid_points", ExportCell::integer(
                                     static_cast<std::int64_t>(
                                         res.table.size())));
        sink.meta("simulated_points", ExportCell::integer(simulated));
        sink.meta("best_perf", ExportCell::integer(res.bestPerf));
        sink.meta("best_energy", ExportCell::integer(res.bestEnergy));
        if (search == "model") {
            sink.meta("fit_error_seconds",
                      ExportCell::num(res.fitErrorSeconds));
            sink.meta("fit_error_joules",
                      ExportCell::num(res.fitErrorJoules));
        }
        for (const auto &row : res.table)
            sink.addSweepPoint(row);
        sink.writeFile(export_path,
                       exportFormatForPath(export_path,
                                           ExportFormat::Json));
    }

    banner("autotune");
    TablePrinter t({"metric", "value"});
    t.row({"grid points", std::to_string(res.table.size())});
    t.row({"simulated points", std::to_string(simulated)});
    if (search == "model") {
        t.row({"fit error (time)", pct(res.fitErrorSeconds)});
        t.row({"fit error (energy)", pct(res.fitErrorJoules)});
        t.row({"probe IPC", fmt(res.probeIpc, 3)});
        t.row({"probe memory pressure",
               fmt(res.probeMemoryPressure, 3)});
    }
    if (res.bestPerf >= 0) {
        const auto &p = res.table[static_cast<std::size_t>(res.bestPerf)];
        t.row({"best perf", p.policy + " (" +
                                fmt(p.measuredSeconds * 1e3, 4) +
                                " ms)"});
    }
    if (res.bestEnergy >= 0) {
        const auto &e =
            res.table[static_cast<std::size_t>(res.bestEnergy)];
        t.row({"best energy", e.policy + " (" +
                                  fmt(e.measuredJoules, 5) + " J)"});
    }
    t.print();

    banner("simulated points");
    TablePrinter pts({"point", "policy", "pred ms", "meas ms", "pred J",
                      "meas J"});
    for (const auto &row : res.table) {
        if (!row.simulated)
            continue;
        pts.row({std::to_string(row.id), row.policy,
                 search == "model" ? fmt(row.predictedSeconds * 1e3, 4)
                                   : std::string("-"),
                 fmt(row.measuredSeconds * 1e3, 4),
                 search == "model" ? fmt(row.predictedJoules, 5)
                                   : std::string("-"),
                 fmt(row.measuredJoules, 5)});
    }
    pts.print();
    return 0;
}

/**
 * The tenants= mode: partition the device, co-run one kernel per
 * tenant and report/export per-tenant attribution.
 */
int
runTenantsMode(const Config &cfg, const GpuConfig &gcfg)
{
    const std::vector<std::string> kernels = cfg.getList("tenants", "");
    const std::vector<std::string> limits = cfg.getList("sm_limit", "");
    if (limits.size() > kernels.size())
        fatal("sm_limit= has ", limits.size(), " entries for ",
              kernels.size(), " tenants");
    const PartitionPolicy partition =
        partitionPolicyFromName(cfg.getString("partition", "rr"));
    const PolicySpec policy = policyKnob(cfg);

    std::vector<CoRunTenant> tenants;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        CoRunTenant t;
        t.kernel = kernels[i];
        if (i < limits.size())
            t.smLimit = parseSmLimitKnob(limits[i]);
        tenants.push_back(std::move(t));
    }

    GpuTop gpu(gcfg, PowerConfig::gtx480());
    std::unique_ptr<GpuController> controller = policy.build();
    gpu.setController(controller.get());

    TraceSession trace(cfg);
    gpu.setTracer(trace.tracer());

    std::cout << "co-run of " << kernels.size() << " tenant(s), policy "
              << policy.name << ", " << gcfg.numSms << " SMs\n";

    CoRunOptions opts;
    opts.partition = partition;
    const CoRunResult r = runCoRun(gpu, tenants, opts);
    gpu.setTracer(nullptr);
    trace.finish();

    if (const std::string export_path = cfg.getString("export", "");
        !export_path.empty()) {
        ExportSink sink = ExportSink::tenantTable();
        sink.meta("policy", ExportCell::str(policy.name));
        sink.meta("partition",
                  ExportCell::str(cfg.getString("partition", "rr")));
        sink.meta("co_run", ExportCell::str(r.combined.kernel));
        sink.meta("sm_cycles",
                  ExportCell::integer(
                      static_cast<std::int64_t>(r.combined.smCycles)));
        for (const auto &t : r.tenants)
            sink.addTenantMetrics(policy.name, t);
        sink.writeFile(export_path,
                       exportFormatForPath(export_path,
                                           ExportFormat::Json));
    }

    banner("co-run");
    TablePrinter timing({"metric", "value"});
    timing.row({"label", r.combined.kernel});
    timing.row({"time", fmt(r.combined.seconds * 1e3, 4) + " ms"});
    timing.row({"SM cycles", std::to_string(r.combined.smCycles)});
    timing.row({"instructions",
                std::to_string(r.combined.instructions)});
    timing.row({"total energy",
                fmt(r.combined.totalJoules(), 5) + " J"});
    timing.print();

    banner("tenants");
    TablePrinter tt({"tenant", "kernel", "sm_limit", "SMs", "dispatched",
                     "blocks done", "instructions", "occupancy",
                     "limited cycles"});
    for (const auto &t : r.tenants)
        tt.row({t.tenant, t.kernels, fmt(t.smLimit, 2),
                std::to_string(t.smCount),
                std::to_string(t.dispatchedBlocks),
                std::to_string(t.blocksCompleted),
                std::to_string(t.instructions), pct(t.occupancyShare()),
                std::to_string(t.limitedCycles)});
    tt.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const Config cfg = Config::fromArgs(args, knobs());

    if (cfg.getBool("list", false)) {
        TablePrinter t({"kernel", "category", "application", "W_cta",
                        "max blocks", "grid", "invocations"});
        for (const auto &e : KernelZoo::all())
            t.row({e.params.name,
                   kernelCategoryName(e.params.category), e.application,
                   std::to_string(e.params.warpsPerBlock),
                   std::to_string(e.params.maxBlocksPerSm),
                   std::to_string(e.params.totalBlocks),
                   std::to_string(e.params.invocationCount())});
        t.print();
        std::cout << "\nknobs:\n" << Config::knobUsage(knobs());
        return 0;
    }

    GpuConfig gcfg = GpuConfig::gtx480();
    // (gcfg overrides below also apply to the tenants= co-run mode.)
    gcfg.numSms = static_cast<int>(cfg.getInt("sms", gcfg.numSms));
    gcfg.issueWidth =
        static_cast<int>(cfg.getInt("issue_width", gcfg.issueWidth));
    // Each SM's LSU queue ring is allocated up front at this depth.
    if (const std::int64_t depth =
            cfg.getInt("lsu_depth", gcfg.lsuQueueDepth);
        depth >= 1 && depth <= 4096)
        gcfg.lsuQueueDepth = static_cast<int>(depth);
    else
        fatal("lsu_depth= must be in [1, 4096], got ", depth);
    gcfg.regReadPorts =
        static_cast<int>(cfg.getInt("reg_ports", gcfg.regReadPorts));
    gcfg.smNominalHz =
        cfg.getDouble("sm_mhz", gcfg.smNominalHz / 1e6) * 1e6;
    gcfg.memNominalHz =
        cfg.getDouble("mem_mhz", gcfg.memNominalHz / 1e6) * 1e6;
    if (const std::string sched = cfg.getString("scheduler", "lrr");
        sched == "gto")
        gcfg.scheduler = SchedulerPolicy::GreedyThenOldest;
    else if (sched != "lrr")
        fatal("scheduler= must be lrr or gto, got '", sched, "'");
    gcfg.fastPath = cfg.getBool("fast_path", gcfg.fastPath);

    if (cfg.getBool("serve", false))
        return runServeMode(cfg, gcfg);

    if (!cfg.getString("tenants", "").empty())
        return runTenantsMode(cfg, gcfg);

    if (!cfg.getString("search", "").empty())
        return runSearchMode(cfg, gcfg);

    const std::string kernel_name = cfg.getString("kernel", "kmn");
    const ZooEntry &entry = KernelZoo::byName(kernel_name);
    const int warm_start =
        static_cast<int>(cfg.getInt("warm_start", 0));
    const std::string sweep_mode = cfg.getString("sweep_mode", "warm");
    const SweepStrategy strategy = sweepStrategyFromName(sweep_mode);
    if (strategy == SweepStrategy::Model)
        fatal("sweep_mode=model is not a warm-start handoff; use "
              "search=model for the autotuner");
    ExperimentRunner runner(gcfg, PowerConfig::gtx480());
    const PolicySpec policy = policyKnob(cfg);
    TraceSession trace(cfg);
    runner.setTracer(trace.tracer());

    std::cout << "kernel " << kernel_name << " ("
              << kernelCategoryName(entry.params.category) << "), policy "
              << policy.name << ", " << gcfg.numSms << " SMs";
    if (warm_start > 0) {
        std::cout << ", warm start after " << warm_start
                  << " baseline invocation(s) (" << sweep_mode << ")";
    }
    std::cout << '\n';

    AppRunResult r;
    if (warm_start >= entry.params.invocationCount()) {
        fatal("warm_start=", warm_start, " leaves no invocations: ",
              kernel_name, " has ", entry.params.invocationCount());
    }
    if (warm_start > 0) {
        SweepPlan plan;
        plan.kernel = entry.params;
        plan.strategy = strategy;
        plan.prefixPolicy = policies::baseline();
        plan.prefixInvocations = warm_start;
        plan.points = {policy};
        const auto sweep = runner.runSweep(plan);
        r = sweep.points.at(0);
    } else {
        r = runner.run(entry.params, policy);
    }
    const auto &m = r.total;
    trace.finish();

    if (const std::string export_path = cfg.getString("export", "");
        !export_path.empty()) {
        ExportSink sink = ExportSink::metricsTable();
        sink.meta("kernel", ExportCell::str(kernel_name));
        sink.meta("policy", ExportCell::str(policy.name));
        sink.addResult(kernel_name, policy.name, r.total,
                       r.invocations);
        sink.writeFile(export_path,
                       exportFormatForPath(export_path,
                                           ExportFormat::Json));
    }

    banner("timing");
    TablePrinter timing({"metric", "value"});
    timing.row({"time", fmt(m.seconds * 1e3, 4) + " ms"});
    timing.row({"SM cycles", std::to_string(m.smCycles)});
    timing.row({"memory cycles", std::to_string(m.memCycles)});
    timing.row({"instructions", std::to_string(m.instructions)});
    timing.row({"IPC (all SMs)", fmt(m.ipc(), 3)});
    timing.row({"SM cycles with every SM asleep",
                std::to_string(m.fastForwardedCycles)});
    timing.row({"SM ticks run",
                std::to_string(m.smTicks) + " (" +
                    pct(m.outcomeCycles
                            ? static_cast<double>(m.smTicks) /
                                  static_cast<double>(m.outcomeCycles)
                            : 0.0) +
                    " of SM cycles)"});
    const std::uint64_t partition_cycles =
        m.memCycles * static_cast<std::uint64_t>(gcfg.mem.numPartitions);
    timing.row({"partition ticks run",
                std::to_string(m.partitionTicks) + " (" +
                    pct(partition_cycles
                            ? static_cast<double>(m.partitionTicks) /
                                  static_cast<double>(partition_cycles)
                            : 0.0) +
                    " of memory cycles)"});
    timing.row({"invocations",
                std::to_string(r.invocations.size())});
    timing.print();

    banner("energy");
    TablePrinter energy({"component", "value"});
    energy.row({"dynamic", fmt(m.dynamicJoules, 5) + " J"});
    energy.row({"static (leak+standby)", fmt(m.staticJoules, 5) + " J"});
    energy.row({"total", fmt(m.totalJoules(), 5) + " J"});
    energy.row({"mean power",
                fmt(m.totalJoules() / m.seconds, 1) + " W"});
    energy.row({"dram power-down", pct(m.dramPowerDownFraction)});
    energy.print();

    banner("warp states (fraction of active warp-cycles)");
    const double active = static_cast<double>(m.outcomeTotals.active);
    TablePrinter states({"state", "fraction"});
    if (active > 0) {
        states.row({"waiting",
                    pct(static_cast<double>(m.outcomeTotals.waiting) /
                        active)});
        states.row({"excess-mem (X_mem)",
                    pct(static_cast<double>(m.outcomeTotals.excessMem) /
                        active)});
        states.row({"excess-alu (X_alu)",
                    pct(static_cast<double>(m.outcomeTotals.excessAlu) /
                        active)});
        states.row({"issued",
                    pct(static_cast<double>(m.outcomeTotals.issued) /
                        active)});
    }
    states.print();

    banner("memory hierarchy");
    TablePrinter mem({"metric", "value"});
    mem.row({"L1 hit rate", pct(m.l1HitRate())});
    mem.row({"L1 accesses", std::to_string(m.l1Hits + m.l1Misses)});
    mem.row({"L2 hits / misses", std::to_string(m.l2Hits) + " / " +
                                     std::to_string(m.l2Misses)});
    mem.row({"DRAM accesses", std::to_string(m.dramAccesses)});
    mem.row({"DRAM row-hit rate",
             pct(m.dramAccesses
                     ? static_cast<double>(m.dramRowHits) / m.dramAccesses
                     : 0.0)});
    mem.print();

    banner("VF residency");
    TablePrinter vf({"domain", "low", "normal", "high"});
    Tick total = 0;
    for (auto t : m.smResidency)
        total += t;
    auto frac = [total](Tick t) {
        return total ? pct(static_cast<double>(t) / total) : pct(0.0);
    };
    vf.row({"SM", frac(m.smResidency[0]), frac(m.smResidency[1]),
            frac(m.smResidency[2])});
    vf.row({"memory", frac(m.memResidency[0]), frac(m.memResidency[1]),
            frac(m.memResidency[2])});
    vf.print();
    return 0;
}

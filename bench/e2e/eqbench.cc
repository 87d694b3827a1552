/**
 * @file
 * eqbench: the repository's end-to-end benchmark (README.md).
 *
 * Usage:
 *   eqbench workload=<roster|parallel|autotune|serve> seed=<n>
 *           [seconds=<s>] [trace=1] [export=<json>] [trace_out=<json>]
 *           [update_expected=1]
 *
 * An untraced run makes max(1, floor(seconds / the workload's nominal
 * pass seconds)) passes, each after a few timed batches of set-ups, and
 * reports the end-to-end metrics: wall_s is the median pass wall,
 * setup_s the median batch, per set-up. trace=1 runs an untraced and a
 * traced pass, plus the component probes, and reports the per-layer
 * metrics instead; its spans go to trace_out=.
 *
 * Every pass is checked: each op's invariants, equal digests across
 * passes (traced or not, and at threads=1 for parallel), and at seed 0
 * the digests and SM cycles pinned in expected.json. The last stdout
 * line is one JSON object {"correct", "attempted", "failed",
 * "metrics"}; the exit code is 1 when any check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "common/config.hh"
#include "common/log.hh"
#include "expected.hh"
#include "harness/export.hh"
#include "probes.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace equalizer;
using namespace eqbench;

namespace
{

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Timed set-up batches before each untraced pass, and after the last. */
constexpr int setupBatches = 5;

/** a / b, or 0 when b is 0 (a layer the workload does not exercise). */
double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/**
 * Times the set-up in batches long enough (at least 1 ms, sized by the
 * first batch) that the clock's resolution does not matter. The last
 * set-up of a batch feeds the pass that follows.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(Workload &w) : w_(w) {}

    void
    batch()
    {
        while (true) {
            const auto start = Clock::now();
            for (int i = 0; i < perBatch_; ++i)
                w_.setup();
            const double batch_s = secondsSince(start);
            if (samples_.empty() && batch_s < 1e-3) {
                perBatch_ *= 2;
                continue;
            }
            samples_.push_back(batch_s / perBatch_);
            return;
        }
    }

    /** Seconds per set-up: the median over the batches. */
    double seconds() const { return median(samples_); }

  private:
    Workload &w_;
    int perBatch_ = 1;
    std::vector<double> samples_;
};

/** Counts ops and failed ops across every check of the run. */
class Checker
{
  public:
    Checker(std::map<std::string, std::string> expected, bool pinned)
        : expected_(std::move(expected)), pinned_(pinned)
    {
    }

    /**
     * Check one pass: each op's invariants, equality with the ops of
     * @p reference (an earlier pass on the same inputs), and at seed 0
     * the expected.json group digests and runs' SM cycles.
     */
    void
    check(const PassResult &p, const PassResult *reference,
          const std::string &what)
    {
        std::set<std::size_t> bad;
        for (std::size_t i = 0; i < p.ops.size(); ++i) {
            if (!p.ops[i].ok || !sameAs(reference, p, i))
                bad.insert(i);
        }
        if (pinned_) {
            for (const auto &[group, digest] : groupDigests(p)) {
                const std::string want = expectedEntry(group);
                if (want == hexDigest(digest))
                    continue;
                note(what + ": " + group + " digest " + hexDigest(digest) +
                     ", expected " + want);
                for (std::size_t i = 0; i < p.ops.size(); ++i)
                    if (p.ops[i].group == group)
                        bad.insert(i);
            }
            // Runs are the ops of the run-list workloads, in order.
            for (std::size_t i = 0; i < p.runs.size(); ++i) {
                const AppRunResult &r = p.runs[i];
                const auto it =
                    expected_.find("sm_cycles/" + r.kernel + "/" + r.policy);
                const std::string got = std::to_string(r.total.smCycles);
                if (it == expected_.end() || it->second == got)
                    continue;
                note(what + ": " + it->first + " = " + got + ", expected " +
                     it->second);
                bad.insert(i);
            }
        }
        if (!bad.empty()) {
            note(what + ": " + std::to_string(bad.size()) + " of " +
                 std::to_string(p.ops.size()) + " ops failed");
        }
        attempted_ += static_cast<int>(p.ops.size());
        failed_ += static_cast<int>(bad.size());
    }

    /** One check outside the workload's ops. */
    void
    require(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            note(what + " failed");
        }
    }

    /** require() that expected.json's entry @p key reads @p value. */
    void
    requireEntry(const std::string &key, const std::string &value)
    {
        const std::string want = expectedEntry(key);
        require(want == value, key + " = " + value + ", expected " + want);
    }

    /** Group digests of @p p; the ops of one group are contiguous. */
    static std::vector<std::pair<std::string, std::uint64_t>>
    groupDigests(const PassResult &p)
    {
        std::vector<std::pair<std::string, std::uint64_t>> groups;
        for (const Op &op : p.ops) {
            if (groups.empty() || groups.back().first != op.group)
                groups.emplace_back(op.group, 0);
            std::uint64_t &acc = groups.back().second;
            acc = foldDigest(acc, op.digest);
        }
        return groups;
    }

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }

  private:
    /** Op @p i of @p p has @p reference's digest (or no reference). */
    static bool
    sameAs(const PassResult *reference, const PassResult &p, std::size_t i)
    {
        if (!reference)
            return true;
        const std::vector<Op> &ops = reference->ops;
        return ops.size() == p.ops.size() && ops[i].digest == p.ops[i].digest;
    }

    /** expected.json's value for @p key, or "none". */
    std::string
    expectedEntry(const std::string &key) const
    {
        const auto it = expected_.find(key);
        return it == expected_.end() ? "none" : it->second;
    }

    void
    note(const std::string &msg)
    {
        std::cerr << "[check] " << msg << '\n';
    }

    std::map<std::string, std::string> expected_;
    bool pinned_;
    int attempted_ = 0;
    int failed_ = 0;
};

/**
 * Host megabytes of the process's peak resident set: VmHWM, because
 * Linux carries ru_maxrss across execve, so it would report the
 * launching process's peak whenever that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Simulated totals of the runs and sweep points of one pass. */
RunMetrics
runTotals(const PassResult &p)
{
    RunMetrics sum;
    for (const AppRunResult &r : p.runs)
        sum += r.total;
    for (const SweepResult &s : p.sweeps)
        for (const AppRunResult &point : s.points)
            sum += point.total;
    return sum;
}

/** The workload's ExportSink table of one pass. */
ExportSink
exportTable(const PassResult &p)
{
    if (!p.sweeps.empty()) {
        ExportSink sink = ExportSink::sweepTable();
        for (const SweepResult &s : p.sweeps)
            for (const SweepPointRow &row : s.table)
                sink.addSweepPoint(row);
        return sink;
    }
    if (!p.serve.records.empty()) {
        ExportSink sink = ExportSink::serveTable();
        for (const RequestRecord &rec : p.serve.records)
            sink.addServeRequest(p.serve.summary.policy, rec);
        return sink;
    }
    ExportSink sink = ExportSink::metricsTable();
    for (const AppRunResult &r : p.runs)
        sink.addResult(r.kernel, r.policy, r.total, r.invocations);
    return sink;
}

/**
 * Every pass makes the same ops on the same inputs. An op is one run,
 * one sweep or one request, so requests_per_s is ops per host second.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<PassResult> &passes, double setup_s)
{
    std::vector<double> walls;
    for (const PassResult &p : passes)
        walls.push_back(p.wallS);
    const double wall = median(walls);
    const PassResult &first = passes.front();
    const double ops = static_cast<double>(first.ops.size());
    return {
        {"wall_s", wall, "s"},
        {"sim_cycles_per_s", first.simCycles / wall, "1/s"},
        {"requests_per_s", ops / wall, "1/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/**
 * The traced run: an untraced and a traced pass on the same inputs, the
 * threads=1 rerun of a multi-threaded workload, and the probes.
 */
std::vector<Metric>
perLayerMetrics(const std::string &name, std::uint64_t seed, Workload &w,
                Checker &check, SpanLog &log)
{
    const PassResult plain = w.pass(nullptr);
    check.check(plain, nullptr, "untraced pass");
    w.setup();
    const PassResult traced = w.pass(&log);
    check.check(traced, &plain, "traced pass");
    const double untraced_s = plain.wallS;

    // Everything read from the log here covers the traced pass only:
    // the probes below add their spans afterwards.
    const double covered_s = log.topLevelSeconds();
    const double run_s = log.secondsIn("ExperimentRunner::run");
    const double sweep_s = log.secondsIn("ExperimentRunner::runSweep");
    const double serve_s = log.secondsIn("RequestServer::serve");
    const double hook_calls = log.counterTotal("on_sm_cycle_calls");
    const double hook_s = log.counterTotal("on_sm_cycle_s");

    double speedup = 1.0;
    double excess_s = 0.0;
    if (w.threads() > 1) {
        auto serial = makeWorkload(name, seed, 1);
        serial->setup();
        const PassResult t1 = serial->pass(nullptr);
        check.check(t1, &plain, "threads=1 rerun");
        speedup = t1.wallS / untraced_s;
        excess_s = untraced_s - t1.wallS;
    }

    const ComponentCosts comp = probeComponents(w.threads(), log);
    const TraceCosts tc = probeTracing(log);
    check.require(tc.observational, "tracer probe digest identity");
    for (const auto &[kernel, cycles] : tc.baselineCycles)
        check.requireEntry("sm_cycles/" + kernel + "/baseline",
                           std::to_string(cycles));
    const ModelCosts mc = probeModel(traced.sweeps, GpuConfig::gtx480(), log);

    double export_s = 0.0;
    double export_bytes = 0.0;
    {
        const ExportSink sink = exportTable(traced);
        std::ostringstream os;
        ScopedSpan span(log, "ExportSink::write", -1);
        const auto start = Clock::now();
        sink.write(os, ExportFormat::Json);
        export_s = secondsSince(start);
        export_bytes = static_cast<double>(os.str().size());
    }

    const RunMetrics m = runTotals(traced);
    double instructions = static_cast<double>(m.instructions);
    for (const RequestRecord &rec : traced.serve.records)
        instructions += static_cast<double>(rec.instructions);
    const double sm_cycles = traced.simCycles;
    const double ff_cycles = static_cast<double>(traced.ffCycles);

    double grid = 0, probes = 0, simulated = 0, forks = 0, fit_err = 0;
    for (const SweepResult &s : traced.sweeps) {
        grid += static_cast<double>(s.table.size());
        probes += static_cast<double>(s.stats.counterValue("sweep.probes"));
        forks += static_cast<double>(s.stats.counterValue("sweep.forks"));
        for (const SweepPointRow &row : s.table)
            simulated += row.simulated ? 1 : 0;
        fit_err +=
            s.fitErrorSeconds / static_cast<double>(traced.sweeps.size());
    }

    const ServeSummary &ss = traced.serve.summary;
    double modeled_ns = 0.0;
    for (const std::string &k : serveKernels()) {
        double kernel_cycles = 0.0;
        for (const RequestRecord &rec : traced.serve.records)
            if (rec.req.kernel == k)
                kernel_cycles += static_cast<double>(rec.executedCycles);
        if (kernel_cycles > 0.0)
            modeled_ns += kernel_cycles * standaloneNsPerCycle(k, log);
    }

    const double covered_ns = covered_s * 1e9;
    const double predicted_s =
        w.threads() > 1 ? comp.parallelForUs * sm_cycles / 1e6 : 0.0;
    const double evict_ms = ss.preemptions * (comp.saveMs + comp.loadMs);
    const double checkpoint_s = (forks * comp.forkMs + evict_ms) / 1e3;
    const double l2 = static_cast<double>(m.l2Hits + m.l2Misses);
    const double dram = static_cast<double>(m.dramAccesses);
    const double row_hits = static_cast<double>(m.dramRowHits);
    const double executed = static_cast<double>(ss.executedCycles);
    const double p99 = static_cast<double>(ss.p99Latency);
    const double serve_ns = serve_s * 1e9;
    const double dispatch = serve_s > 0.0 ? 1.0 - modeled_ns / serve_ns : 0.0;
    return {
        {"sim.parallel_for_us", comp.parallelForUs, "us"},
        {"sim.parallel_speedup", speedup, "ratio"},
        {"sim.parallel_excess_s", excess_s, "s"},
        {"sim.parallel_for_predicted_s", predicted_s, "s"},
        {"sim.checkpoint_bytes", comp.checkpointBytes, "bytes"},
        {"sim.save_ms", comp.saveMs, "ms"},
        {"sim.load_ms", comp.loadMs, "ms"},
        {"sim.fork_ms", comp.forkMs, "ms"},
        {"sim.forks", forks, "count"},
        {"sim.checkpoint_share", ratio(checkpoint_s, untraced_s), "ratio"},
        {"gpu.sm_cycles", sm_cycles, "count"},
        {"gpu.instructions", instructions, "count"},
        {"gpu.ff_cycles", ff_cycles, "count"},
        {"gpu.ff_ratio", ratio(ff_cycles, sm_cycles), "ratio"},
        {"gpu.host_ns_per_sm_cycle", ratio(covered_ns, sm_cycles), "ns"},
        {"gpu.host_ns_per_instruction", ratio(covered_ns, instructions), "ns"},
        {"mem.mem_cycles", static_cast<double>(m.memCycles), "count"},
        {"mem.l1_hit_rate", m.l1HitRate(), "ratio"},
        {"mem.l2_accesses", l2, "count"},
        {"mem.l2_hit_rate", ratio(static_cast<double>(m.l2Hits), l2), "ratio"},
        {"mem.dram_accesses", dram, "count"},
        {"mem.dram_row_hit_rate", ratio(row_hits, dram), "ratio"},
        {"mem.memsys_tick_ns", comp.memsysTickNs, "ns"},
        {"mem.dram_tick_ns", comp.dramTickNs, "ns"},
        {"mem.tag_lookup_ns", comp.tagLookupNs, "ns"},
        {"power.energy_record_ns", comp.energyRecordNs, "ns"},
        {"equalizer.on_sm_cycle_calls", hook_calls, "count"},
        {"equalizer.on_sm_cycle_s", hook_s, "s"},
        {"equalizer.controller_share", ratio(hook_s, run_s), "ratio"},
        {"equalizer.decide_ns", comp.decideNs, "ns"},
        {"trace.events", tc.events, "count"},
        {"trace.bytes", tc.bytes, "bytes"},
        {"trace.sink_s", tc.sinkSeconds, "s"},
        {"trace.overhead_pct", tc.overheadPct, "%"},
        {"harness.runs", static_cast<double>(traced.runs.size()), "count"},
        {"harness.run_s", run_s, "s"},
        {"harness.sweep_s", sweep_s, "s"},
        {"harness.export_s", export_s, "s"},
        {"harness.export_bytes", export_bytes, "bytes"},
        {"autotune.grid_points", grid, "count"},
        {"autotune.probes", probes, "count"},
        {"autotune.simulated_points", simulated, "count"},
        {"autotune.fit_error_s", fit_err, "ratio"},
        {"autotune.fit_us", mc.fitUs, "us"},
        {"autotune.predict_us", mc.predictUs, "us"},
        {"autotune.host_s_per_point", ratio(sweep_s, simulated), "s"},
        {"serve.completed", static_cast<double>(ss.completed), "count"},
        {"serve.preemptions", static_cast<double>(ss.preemptions), "count"},
        {"serve.executed_cycles", executed, "count"},
        {"serve.sim_p99_latency_cycles", p99, "cycles"},
        {"serve.sim_slo_violation_rate", ss.sloViolationRate, "ratio"},
        {"serve.host_ns_per_executed_cycle", ratio(serve_ns, executed), "ns"},
        {"serve.dispatch_share", dispatch, "ratio"},
        {"bench.trace_overhead_s", traced.wallS - untraced_s, "s"},
        {"bench.span_coverage", ratio(covered_s, traced.wallS), "ratio"},
    };
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
resultJson(const Checker &check, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    const char *correct = check.failed() == 0 ? "true" : "false";
    os << "{\"correct\": " << correct;
    os << ", \"attempted\": " << check.attempted();
    os << ", \"failed\": " << check.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": ";
        os << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        std::vector<std::string>(argv + 1, argv + argc),
        std::vector<Knob>{
            {"workload", "roster, parallel, autotune or serve", {}},
            {"seed", "input seed (0 = the zoo's own streams)", {}},
            {"seconds", "run length: passes = max(1, seconds / nominal)", {}},
            {"trace", "1 = traced run with per-layer metrics", {}},
            {"export", "write the result JSON here", {}},
            {"trace_out", "write the traced run's spans here", {}},
            {"update_expected",
             "1 = rewrite this workload's seed-0 digests", {}},
        });
    const std::string name = cfg.getString("workload", "");
    const std::int64_t seed_arg = cfg.getInt("seed", 0);
    const double seconds = cfg.getDouble("seconds", 20.0);
    const bool trace = cfg.getBool("trace", false);
    const std::string expected_path = EQBENCH_EXPECTED;
    const bool update = cfg.getBool("update_expected", false);
    if (seed_arg < 0)
        fatal("seed must be non-negative, got ", seed_arg);
    if (!(seconds > 0.0))
        fatal("seconds must be positive, got ", seconds);
    if (update && (seed_arg != 0 || trace))
        fatal("update_expected=1 needs seed=0 and an untraced run");
    const auto seed = static_cast<std::uint64_t>(seed_arg);

    std::unique_ptr<Workload> w = makeWorkload(name, seed);
    std::map<std::string, std::string> expected = readExpected(expected_path);

    // Untraced: timed set-up batches and a pass, a fixed number of times,
    // and set-up batches once more at the end, so that the set-up
    // samples span the run rather than one moment of the host's load.
    const double nominal_s = w->nominalPassSeconds();
    const int passes =
        trace ? 2 : std::max(1, static_cast<int>(seconds / nominal_s));
    std::vector<PassResult> results;
    SetupTimer setups(*w);
    const auto time_setups = [&setups] {
        for (int b = 0; b < setupBatches; ++b)
            setups.batch();
    };
    if (!trace) {
        for (int p = 0; p < passes; ++p) {
            time_setups();
            results.push_back(w->pass(nullptr));
        }
        time_setups();
    }
    if (update) {
        // Only the workload's own groups: parallel's ops are checked
        // against the roster's digests, never written.
        const auto groups = Checker::groupDigests(results.front());
        for (const auto &[group, digest] : groups)
            if (group.rfind(name, 0) == 0)
                expected[group] = hexDigest(digest);
        writeExpected(expected_path, expected);
    }

    Checker check(expected, seed == 0);
    std::vector<Metric> metrics;
    if (!trace) {
        for (std::size_t i = 0; i < results.size(); ++i)
            check.check(results[i], i ? &results.front() : nullptr,
                        "pass " + std::to_string(i));
        metrics = endToEndMetrics(results, setups.seconds());
    } else {
        SpanLog log;
        w->setup();
        metrics = perLayerMetrics(name, seed, *w, check, log);
        const std::string trace_out = cfg.getString("trace_out", "");
        if (!trace_out.empty()) {
            std::ofstream os(trace_out);
            if (!os)
                fatal("cannot write spans to '", trace_out, "'");
            log.writeJson(os);
        }
    }

    std::cout << "eqbench workload=" << name << " seed=" << seed;
    std::cout << " threads=" << w->threads() << " passes=" << passes;
    std::cout << " trace=" << trace << '\n';
    for (const Metric &m : metrics) {
        const std::string value = number(m.value);
        std::cout << "  " << m.name << " = " << value << ' ' << m.unit << '\n';
    }
    const std::string result = resultJson(check, metrics);
    const std::string export_path = cfg.getString("export", "");
    if (!export_path.empty()) {
        std::ofstream os(export_path);
        if (!os)
            fatal("cannot write '", export_path, "'");
        os << "{\"workload\": \"" << name << "\", \"seed\": " << seed;
        os << ", \"trace\": " << trace << ", \"passes\": " << passes;
        os << ", \"result\": " << result << "}\n";
    }
    std::cout << result << std::endl;
    return check.failed() == 0 ? 0 : 1;
}

/**
 * @file
 * Serving-policy comparison bench (docs/SERVING.md), two workloads:
 *
 * 1. Bursty: one long, low-priority kernel plus a flood of short,
 *    high-priority requests arriving while it runs, served under
 *    fcfs, sjf and preempt. Under FCFS every short request eats the
 *    long kernel's head-of-line blocking, while the preemptive
 *    dispatcher evicts the long kernel to a checkpoint shelf and
 *    serves the shorts immediately, so the preemptive p99 must come
 *    in below the FCFS p99 by roughly the long kernel's runtime.
 *
 * 2. Deadline-mixed: a backlog of long requests with loose SLOs
 *    interleaved with short requests on tight SLOs, served under
 *    fcfs, edf and llf. FCFS makes every short wait out the queued
 *    longs and bust its deadline; the deadline-aware policies jump
 *    the shorts ahead of queued longs, so edf's and llf's
 *    SLO-violation rates must come in strictly below fcfs's.
 *
 * Both wins are asserted with fatal() when the ordering breaks,
 * making each policy win a regression-gated fact, and every run
 * exports one summary row per (workload, policy).
 *
 * Usage:
 *   bench_serving [shorts=<n>] [export=<path>]
 */

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

/**
 * One long prtcl-2 (~58k device cycles at serving scale, priority 0)
 * at t=0, then @p shorts sgemm requests (~3.7k cycles, priority 1)
 * spread across the long kernel's runtime. Over 100 shorts keeps the
 * nearest-rank p99 off the single long request, so the percentile
 * reads the short-request experience.
 */
std::vector<ServeRequest>
burstyWorkload(int shorts)
{
    std::vector<ServeRequest> reqs;
    ServeRequest lng;
    lng.id = 0;
    lng.kernel = "prtcl-2";
    lng.priority = 0;
    lng.arrivalCycle = 0;
    reqs.push_back(lng);
    for (int i = 0; i < shorts; ++i) {
        ServeRequest s;
        s.id = i + 1;
        s.kernel = "sgemm";
        s.priority = 1;
        s.arrivalCycle = 2000 + static_cast<Cycle>(i) * 480;
        reqs.push_back(s);
    }
    return reqs;
}

/**
 * Four long prtcl-2 requests (~58k cycles each, loose 1M-cycle SLO)
 * front-load the queue, and 20 short sgemm requests (~3.7k cycles,
 * tight 150k-cycle SLO) arrive while the first long runs. FCFS drains
 * the longs first, so every short waits ~4 long runtimes and busts
 * its deadline; edf/llf reorder the queued shorts ahead of the queued
 * longs and meet them all — while the longs' loose deadlines still
 * hold either way.
 */
std::vector<ServeRequest>
deadlineMixedWorkload()
{
    std::vector<ServeRequest> reqs;
    int id = 0;
    for (int i = 0; i < 4; ++i) {
        ServeRequest lng;
        lng.id = id++;
        lng.kernel = "prtcl-2";
        lng.arrivalCycle = static_cast<Cycle>(i) * 1000;
        lng.sloCycles = 1'000'000;
        reqs.push_back(lng);
    }
    for (int i = 0; i < 20; ++i) {
        ServeRequest s;
        s.id = id++;
        s.kernel = "sgemm";
        s.arrivalCycle = 500 + static_cast<Cycle>(i) * 1000;
        s.sloCycles = 150'000;
        reqs.push_back(s);
    }
    return reqs;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(
        std::vector<std::string>(argv + 1, argv + argc),
        std::vector<Knob>{
            {"shorts", "short high-priority requests in the burst", {}},
            {"export", "write per-policy summary rows (.csv/.json)",
             {}},
        });
    const int shorts =
        std::max(1, static_cast<int>(cfg.getInt("shorts", 100)));
    const std::string export_path = cfg.getString("export", "");

    const std::vector<ServeRequest> requests = burstyWorkload(shorts);

    banner("serving policies on a bursty mixed workload (" +
           std::to_string(requests.size()) + " requests)");

    ExportSink sink = ExportSink::serveSummaryTable();
    sink.meta("bench", ExportCell::str("serving"));
    sink.meta("shorts", ExportCell::integer(shorts));

    TablePrinter t({"policy", "p50", "p95", "p99", "max", "preempts",
                    "wall cycles"});
    Cycle fcfs_p99 = 0;
    Cycle preempt_p99 = 0;
    for (const ServePolicy policy :
         {ServePolicy::Fcfs, ServePolicy::Sjf, ServePolicy::Preempt}) {
        progress(std::string("serving under ") + toString(policy));
        GpuTop gpu; // fresh device per policy for comparability
        ServeOptions opts;
        opts.policy = policy;
        opts.kernelScale = 0.25;
        RequestServer server(gpu, opts);
        const ServeReport rep = server.serve(requests);
        const ServeSummary &s = rep.summary;
        if (s.completed != s.requests)
            fatal("policy ", toString(policy), " completed ",
                  s.completed, "/", s.requests, " requests");
        sink.addServeSummary(s);
        t.row({s.policy, std::to_string(s.p50Latency),
               std::to_string(s.p95Latency),
               std::to_string(s.p99Latency),
               std::to_string(s.maxLatency),
               std::to_string(s.preemptions),
               std::to_string(s.wallCycles)});
        if (policy == ServePolicy::Fcfs)
            fcfs_p99 = s.p99Latency;
        if (policy == ServePolicy::Preempt)
            preempt_p99 = s.p99Latency;
    }
    t.print();

    if (preempt_p99 >= fcfs_p99)
        fatal("preemptive-priority p99 (", preempt_p99,
              ") did not beat FCFS p99 (", fcfs_p99,
              ") on the bursty workload — the preemption win "
              "regressed");
    std::cout << "preempt p99 " << preempt_p99 << " < fcfs p99 "
              << fcfs_p99 << " (-"
              << (fcfs_p99 - preempt_p99) * 100 / fcfs_p99 << "%)\n";

    const std::vector<ServeRequest> deadline_reqs =
        deadlineMixedWorkload();
    banner("deadline-aware policies on a deadline-mixed workload (" +
           std::to_string(deadline_reqs.size()) + " requests)");

    TablePrinter dt({"policy", "violations", "violation rate", "p99",
                     "wall cycles"});
    double fcfs_rate = 0.0;
    double edf_rate = 0.0;
    double llf_rate = 0.0;
    for (const ServePolicy policy :
         {ServePolicy::Fcfs, ServePolicy::Edf, ServePolicy::Llf}) {
        progress(std::string("serving under ") + toString(policy));
        GpuTop gpu;
        ServeOptions opts;
        opts.policy = policy;
        opts.kernelScale = 0.25;
        RequestServer server(gpu, opts);
        const ServeReport rep = server.serve(deadline_reqs);
        const ServeSummary &s = rep.summary;
        if (s.completed != s.requests)
            fatal("policy ", toString(policy), " completed ",
                  s.completed, "/", s.requests, " requests");
        sink.addServeSummary(s);
        dt.row({s.policy, std::to_string(s.sloViolations),
                pct(s.sloViolationRate), std::to_string(s.p99Latency),
                std::to_string(s.wallCycles)});
        if (policy == ServePolicy::Fcfs)
            fcfs_rate = s.sloViolationRate;
        if (policy == ServePolicy::Edf)
            edf_rate = s.sloViolationRate;
        if (policy == ServePolicy::Llf)
            llf_rate = s.sloViolationRate;
    }
    dt.print();

    if (edf_rate >= fcfs_rate)
        fatal("edf SLO-violation rate (", edf_rate,
              ") did not beat fcfs (", fcfs_rate,
              ") on the deadline-mixed workload — the deadline win "
              "regressed");
    if (llf_rate >= fcfs_rate)
        fatal("llf SLO-violation rate (", llf_rate,
              ") did not beat fcfs (", fcfs_rate,
              ") on the deadline-mixed workload — the deadline win "
              "regressed");
    std::cout << "edf rate " << pct(edf_rate) << ", llf rate "
              << pct(llf_rate) << " < fcfs rate " << pct(fcfs_rate)
              << '\n';

    if (!export_path.empty()) {
        sink.writeFile(export_path,
                       exportFormatForPath(export_path,
                                           ExportFormat::Json));
        progress("wrote " + export_path);
    }
    return 0;
}

#include "serve/server.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "gpu/gpu_top.hh"
#include "gpu/scheduler_core.hh"
#include "kernels/kernel_zoo.hh"
#include "trace/tracer.hh"

namespace equalizer
{

const char *
toString(ServePolicy policy)
{
    switch (policy) {
      case ServePolicy::Fcfs:
        return "fcfs";
      case ServePolicy::Sjf:
        return "sjf";
      case ServePolicy::Edf:
        return "edf";
      case ServePolicy::Llf:
        return "llf";
      case ServePolicy::Preempt:
        return "preempt";
    }
    return "unknown";
}

ServePolicy
servePolicyFromString(const std::string &name)
{
    if (name == "fcfs")
        return ServePolicy::Fcfs;
    if (name == "sjf")
        return ServePolicy::Sjf;
    if (name == "edf")
        return ServePolicy::Edf;
    if (name == "llf")
        return ServePolicy::Llf;
    if (name == "preempt")
        return ServePolicy::Preempt;
    fatal("unknown serve policy '", name,
          "' (fcfs, sjf, edf, llf, preempt)");
}

const char *
toString(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::None:
        return "none";
      case AdmissionPolicy::Predictive:
        return "predictive";
    }
    return "unknown";
}

AdmissionPolicy
admissionPolicyFromString(const std::string &name)
{
    if (name == "none")
        return AdmissionPolicy::None;
    if (name == "predictive")
        return AdmissionPolicy::Predictive;
    fatal("unknown admission policy '", name, "' (none, predictive)");
}

KernelParams
scaleKernelParams(KernelParams params, double scale)
{
    if (scale <= 0.0)
        fatal("scaleKernelParams: scale must be positive, got ", scale);
    if (scale < 1.0) {
        params.totalBlocks = std::max(
            1, static_cast<int>(params.totalBlocks * scale + 0.5));
        params.instrsPerWarp = std::max(
            32, static_cast<int>(params.instrsPerWarp * scale + 0.5));
    }
    // Serving requests are single launches at ANY scale: drop the
    // application's invocation schedule so one request = one grid,
    // and keep the long-block count inside the (possibly shrunk)
    // grid.
    params.invocations.clear();
    params.longBlocks = std::min(params.longBlocks, params.totalBlocks);
    return params;
}

RequestServer::RequestServer(GpuTop &gpu, ServeOptions opts)
    : RequestServer(std::vector<GpuTop *>{&gpu}, opts)
{
}

RequestServer::RequestServer(std::vector<GpuTop *> gpus, ServeOptions opts)
    : gpus_(std::move(gpus)), opts_(opts),
      predictor_(gpus_.empty() ? 1 : gpus_.front()->numSms())
{
    if (gpus_.empty())
        fatal("RequestServer: need at least one device");
    if (opts_.quantumCycles == 0)
        fatal("RequestServer: quantum must be positive");
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
        GpuTop *gpu = gpus_[i];
        if (gpu == nullptr)
            fatal("RequestServer: device ", i, " is null");
        if (gpu->midKernel())
            fatal("RequestServer: device ", i,
                  " already has a run in flight");
        if (gpu->numTenants() > 1)
            fatal("RequestServer: device ", i,
                  " is partitioned into tenants; serving drives whole "
                  "devices");
        if (gpu->numSms() != gpus_.front()->numSms())
            fatal("RequestServer: devices must be identically sized "
                  "(device ",
                  i, " has ", gpu->numSms(), " SMs, device 0 has ",
                  gpus_.front()->numSms(), ")");
        for (std::size_t j = 0; j < i; ++j)
            if (gpus_[j] == gpu)
                fatal("RequestServer: device ", i, " repeats device ",
                      j);
    }
}

namespace
{

/**
 * One device of a serve() run. Its wall clock is the serving time the
 * device has been simulated up to; the lane with the smallest wall is
 * always stepped next, so that wall doubles as the global "now" of
 * every admission and dispatch decision.
 */
struct Lane
{
    GpuTop *gpu = nullptr;
    std::unique_ptr<SchedulerCore> core;
    ServeDeviceStats stats; // wallCycles: wall at its last completion
    Cycle wall = 0;
    int running = -1;    // index into records
    bool parked = false; // idle and no work can ever reach it
};

/** Saturating cast: noWakeup (no deadline) orders after everything. */
std::int64_t
cycleKey(Cycle c)
{
    return static_cast<std::int64_t>(std::min<Cycle>(
        c, static_cast<Cycle>(std::numeric_limits<std::int64_t>::max())));
}

/**
 * The state of one serve() call — its records, lanes, queue, shelves
 * and next-arrival cursor — with one member function per lifecycle
 * step. RequestServer::serve() drives the steps; the predictor and the
 * kernel cache belong to the server and outlive the call.
 */
class ServeRun
{
  public:
    using KernelCache =
        std::map<std::string, std::unique_ptr<SyntheticKernel>>;

    ServeRun(const std::vector<GpuTop *> &gpus, const ServeOptions &opts,
             RuntimePredictor &predictor, KernelCache &kernels,
             const std::vector<ServeRequest> &requests)
        : opts_(opts), predictor_(predictor), kernels_(kernels),
          lanes_(gpus.size())
    {
        for (const auto &r : requests)
            records_.emplace_back().req = r;
        std::stable_sort(records_.begin(), records_.end(),
                         [](const RequestRecord &a, const RequestRecord &b) {
                             return a.req.arrivalCycle < b.req.arrivalCycle;
                         });
        for (std::size_t i = 0; i < gpus.size(); ++i) {
            lanes_[i].gpu = gpus[i];
            lanes_[i].core = std::make_unique<SchedulerCore>(*gpus[i]);
            lanes_[i].stats.device = static_cast<int>(i);
        }
    }

    /** Every request completed or rejected. */
    bool done() const { return settled_ == records_.size(); }

    /** The unparked lane with the smallest wall (index tie-break). */
    Lane &
    pickLane()
    {
        Lane *best = nullptr;
        for (auto &lane : lanes_)
            if (!lane.parked && (!best || lane.wall < best->wall))
                best = &lane;
        if (!best)
            fatal("RequestServer: all devices parked with ", settled_, "/",
                  records_.size(), " requests settled");
        if (best->wall > opts_.maxWallCycles)
            fatal("RequestServer: wall clock passed ", opts_.maxWallCycles,
                  " cycles with ", completed(), "/", records_.size(),
                  " requests done; likely a deadlock");
        return *best;
    }

    /** Admit (or predictively reject) every arrival by @p now. */
    void
    admit(Cycle now)
    {
        while (nextArrival_ < records_.size() &&
               records_[nextArrival_].req.arrivalCycle <= now) {
            RequestRecord &rec = records_[nextArrival_];
            const int idx = static_cast<int>(nextArrival_++);
            if (opts_.admission == AdmissionPolicy::Predictive &&
                rec.req.sloCycles > 0) {
                const Cycle service =
                    predictor_.predict(kernelFor(rec).params());
                if (now + backlogShare() + service >
                    rec.req.deadlineCycle()) {
                    rec.rejected = true;
                    ++settled_;
                    continue;
                }
            }
            queue_.push_back(idx);
        }
    }

    /** Idle @p lane: park or jump to the next arrival; true = work. */
    bool
    awaitWork(Lane &lane)
    {
        if (!queue_.empty())
            return true;
        if (nextArrival_ >= records_.size()) {
            // An eviction needs a queued challenger, so with nothing
            // queued or left to arrive no work can reach this lane.
            lane.parked = true;
            return false;
        }
        lane.wall = records_[nextArrival_].req.arrivalCycle;
        admit(lane.wall);
        return !queue_.empty(); // empty: the whole batch was rejected
    }

    /** Launch the policy's pick on idle @p lane, or restore its shelf. */
    void
    dispatch(Lane &lane)
    {
        const std::size_t pos = pickNext(lane.wall);
        const int idx = queue_[pos];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
        RequestRecord &rec = recordAt(idx);
        const KernelLaunch &launch = kernelFor(rec);
        auto shelf = shelves_.find(rec.req.id);
        if (shelf != shelves_.end()) {
            // Shelves restore on any lane: the devices are forked
            // clones with identical config fingerprints.
            lane.gpu->loadStateBuffer(shelf->second);
            shelves_.erase(shelf);
            lane.core->adoptResumedKernel(launch);
            lane.wall += opts_.preemptRestoreCycles;
        } else {
            lane.core->launchKernel(launch, opts_.maxKernelCycles);
            rec.startCycle = lane.wall;
        }
        rec.device = lane.stats.device;
        lane.running = idx;
    }

    /** Preempt: shelve @p lane's request for a pick that outranks it. */
    bool
    maybeEvict(Lane &lane)
    {
        if (opts_.policy != ServePolicy::Preempt || queue_.empty())
            return false;
        RequestRecord &run = recordAt(lane.running);
        const RequestRecord &ch = recordAt(queue_[pickNext(lane.wall)]);
        if (ch.req.priority <= run.req.priority || !evictionPays(run, ch))
            return false;
        shelves_[run.req.id] = lane.gpu->saveStateBuffer();
        lane.wall += opts_.preemptSaveCycles;
        ++run.preemptions;
        ++lane.stats.preemptions;
        // Re-insert at its admission rank: the victim keeps its
        // tie-breaks against younger arrivals.
        queue_.insert(std::lower_bound(queue_.begin(), queue_.end(),
                                       lane.running),
                      lane.running);
        lane.running = -1;
        return true;
    }

    /** Advance @p lane's request by one quantum on its device. */
    StepStatus
    stepQuantum(Lane &lane)
    {
        setGauges();
        const Cycle before = lane.gpu->smDomain().cycle();
        const StepStatus status = lane.core->step(opts_.quantumCycles);
        const Cycle advanced = lane.gpu->smDomain().cycle() - before;
        lane.wall += advanced;
        lane.stats.executedCycles += advanced;
        recordAt(lane.running).executedCycles += advanced;
        return status;
    }

    /** Retire @p lane's drained request and teach the predictor. */
    void
    complete(Lane &lane)
    {
        RequestRecord &rec = recordAt(lane.running);
        const RunMetrics m = lane.core->finish();
        rec.instructions = m.instructions;
        rec.completed = true;
        rec.completeCycle = lane.wall;
        rec.latencyCycles = lane.wall - rec.req.arrivalCycle;
        rec.sloViolated =
            rec.req.sloCycles > 0 && rec.latencyCycles > rec.req.sloCycles;
        predictor_.observe(kernelFor(rec).params(), rec.executedCycles);
        ++settled_;
        ++lane.stats.completed;
        lane.stats.wallCycles = lane.wall;
        lane.running = -1;
    }

    /** The final gauges and the report; call once, last. */
    ServeReport
    report()
    {
        setGauges();
        // Report in request-id order, independent of completion order.
        std::stable_sort(records_.begin(), records_.end(),
                         [](const RequestRecord &a, const RequestRecord &b) {
                             return a.req.id < b.req.id;
                         });
        ServeReport report;
        ServeSummary &s = report.summary;
        s.policy = toString(opts_.policy);
        s.admission = toString(opts_.admission);
        s.devices = static_cast<int>(lanes_.size());
        s.requests = static_cast<int>(records_.size());
        std::vector<Cycle> latencies;
        double latency_sum = 0.0;
        for (const auto &rec : records_) {
            s.executedCycles += rec.executedCycles;
            s.preemptions += rec.preemptions;
            s.rejected += rec.rejected ? 1 : 0;
            if (!rec.completed)
                continue;
            latencies.push_back(rec.latencyCycles);
            latency_sum += static_cast<double>(rec.latencyCycles);
            s.maxLatency = std::max(s.maxLatency, rec.latencyCycles);
            if (rec.sloViolated)
                ++s.sloViolations;
        }
        s.completed = static_cast<int>(latencies.size());
        // The serving wall clock of the whole run is the time of the
        // last completion anywhere — idle jumps past the final arrival
        // on a lane that then parks do not count as served time.
        for (const auto &lane : lanes_) {
            s.wallCycles = std::max(s.wallCycles, lane.stats.wallCycles);
            report.deviceStats.push_back(lane.stats);
        }
        s.p50Latency = latencyPercentile(latencies, 50.0);
        s.p95Latency = latencyPercentile(latencies, 95.0);
        s.p99Latency = latencyPercentile(latencies, 99.0);
        if (!latencies.empty()) {
            s.meanLatency =
                latency_sum / static_cast<double>(latencies.size());
            s.sloViolationRate = static_cast<double>(s.sloViolations) /
                                 static_cast<double>(latencies.size());
        }
        if (s.requests > 0)
            s.rejectionRate = static_cast<double>(s.rejected) /
                              static_cast<double>(s.requests);
        if (s.wallCycles > 0)
            s.throughputPerMcycle = static_cast<double>(s.completed) *
                                    1e6 /
                                    static_cast<double>(s.wallCycles);
        report.records = std::move(records_);
        return report;
    }

  private:
    RequestRecord &
    recordAt(int idx)
    {
        return records_[static_cast<std::size_t>(idx)];
    }

    /** The scaled launch of @p rec's kernel, built on first use. */
    const SyntheticKernel &
    kernelFor(const RequestRecord &rec)
    {
        std::unique_ptr<SyntheticKernel> &k = kernels_[rec.req.kernel];
        if (!k)
            k = std::make_unique<SyntheticKernel>(scaleKernelParams(
                KernelZoo::byName(rec.req.kernel).params, opts_.kernelScale));
        return *k;
    }

    /** The online predictor's remaining service for @p rec. */
    Cycle
    remainingOf(const RequestRecord &rec)
    {
        return predictor_.remaining(kernelFor(rec).params(),
                                    rec.executedCycles);
    }

    /**
     * Slack before @p rec busts its deadline if dispatched at @p now:
     * deadline minus (now + predicted remaining service). Negative =
     * already predicted late. Deadline-free requests report infinite
     * laxity so every deadline-carrying request outranks them.
     */
    std::int64_t
    laxityOf(const RequestRecord &rec, Cycle now)
    {
        if (rec.req.sloCycles == 0)
            return std::numeric_limits<std::int64_t>::max();
        return static_cast<std::int64_t>(rec.req.deadlineCycle()) -
               static_cast<std::int64_t>(now + remainingOf(rec));
    }

    /** The policy's dispatch key for @p rec at @p now: least first. */
    std::int64_t
    pickKey(const RequestRecord &rec, Cycle now)
    {
        switch (opts_.policy) {
          case ServePolicy::Fcfs:
            return 0;
          case ServePolicy::Sjf:
            return cycleKey(remainingOf(rec));
          case ServePolicy::Edf:
            return cycleKey(rec.req.deadlineCycle());
          case ServePolicy::Llf:
            return laxityOf(rec, now);
          case ServePolicy::Preempt:
            return -static_cast<std::int64_t>(rec.req.priority);
        }
        return 0;
    }

    /**
     * Queue position to dispatch at @p now: the first minimum of
     * pickKey(). The queue is in admission order, so every tie goes
     * to the earliest-admitted request and fcfs picks the head.
     */
    std::size_t
    pickNext(Cycle now)
    {
        EQ_ASSERT(!queue_.empty(), "pickNext on an empty queue");
        std::size_t best = 0;
        std::int64_t best_key = pickKey(recordAt(queue_[0]), now);
        for (std::size_t i = 1; i < queue_.size(); ++i) {
            const std::int64_t key = pickKey(recordAt(queue_[i]), now);
            if (key < best_key) {
                best_key = key;
                best = i;
            }
        }
        return best;
    }

    /**
     * Predictor gate on priority eviction: shelving only pays when the
     * victim's predicted remaining service exceeds the challenger's
     * plus the modeled save+restore round trip.
     */
    bool
    evictionPays(const RequestRecord &victim, const RequestRecord &ch)
    {
        const Cycle victim_rem = remainingOf(victim);
        return victim_rem > remainingOf(ch) + opts_.preemptSaveCycles +
                                opts_.preemptRestoreCycles;
    }

    /** Predicted remaining work running or queued, per device. */
    Cycle
    backlogShare()
    {
        Cycle backlog = 0;
        for (const auto &lane : lanes_)
            if (lane.running >= 0)
                backlog += remainingOf(recordAt(lane.running));
        for (int idx : queue_)
            backlog += remainingOf(recordAt(idx));
        return backlog / static_cast<Cycle>(lanes_.size());
    }

    int
    completed() const
    {
        int n = 0;
        for (const auto &lane : lanes_)
            n += lane.stats.completed;
        return n;
    }

    /** The serve.* gauges; their first-set order fixes the trace ids. */
    void
    setGauges()
    {
        Tracer *tracer = lanes_[0].gpu->tracer();
        if (!tracer || !tracer->attached())
            return;
        auto &g = tracer->gauges();
        const auto runId = [&](const Lane &lane) {
            return lane.running < 0
                       ? -1.0
                       : static_cast<double>(recordAt(lane.running).req.id);
        };
        int preemptions = 0;
        for (const auto &lane : lanes_)
            preemptions += lane.stats.preemptions;
        const int done = completed();
        g.set("serve.queue_depth", static_cast<double>(queue_.size()));
        g.set("serve.running_request", runId(lanes_[0]));
        g.set("serve.completed", static_cast<double>(done));
        g.set("serve.preemptions", static_cast<double>(preemptions));
        g.set("serve.rejected", static_cast<double>(settled_) - done);
        for (const auto &lane : lanes_) {
            const std::string p =
                "serve.dev" + std::to_string(lane.stats.device);
            g.set(p + ".running_request", runId(lane));
            g.set(p + ".completed",
                  static_cast<double>(lane.stats.completed));
            g.set(p + ".wall", static_cast<double>(lane.wall));
        }
    }

    const ServeOptions &opts_;
    RuntimePredictor &predictor_;
    KernelCache &kernels_;
    std::vector<RequestRecord> records_; // arrival order until report()
    std::vector<Lane> lanes_;
    std::map<int, std::vector<std::uint8_t>> shelves_;
    std::vector<int> queue_; // record indices, kept in admission order
    std::size_t nextArrival_ = 0;
    std::size_t settled_ = 0; // completed + rejected
};

} // namespace

ServeReport
RequestServer::serve(const std::vector<ServeRequest> &requests)
{
    ServeRun run(gpus_, opts_, predictor_, kernels_, requests);
    while (!run.done()) {
        Lane &lane = run.pickLane();
        run.admit(lane.wall);
        if (lane.running >= 0) {
            if (!run.maybeEvict(lane) &&
                run.stepQuantum(lane) == StepStatus::Drained)
                run.complete(lane);
        } else if (run.awaitWork(lane)) {
            run.dispatch(lane);
        }
    }
    return run.report();
}

} // namespace equalizer

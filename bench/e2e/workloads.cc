#include "workloads.hh"

#include <algorithm>
#include <optional>

#include "autotune/autotuner.hh"
#include "common/log.hh"
#include "expected.hh"
#include "gpu/gpu_top.hh"
#include "harness/policies.hh"
#include "kernels/kernel_zoo.hh"
#include "serve/arrival.hh"

namespace eqbench
{

using namespace equalizer;

namespace
{

/**
 * The full-size zoo kernel with the workload seed mixed into its stream
 * seed. Seed 0 keeps the zoo's own streams, which expected.json pins.
 */
KernelParams
seededKernel(const std::string &name, std::uint64_t seed)
{
    KernelParams p = KernelZoo::byName(name).params;
    if (seed != 0) {
        std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        p.seed ^= z ^ (z >> 31);
    }
    return p;
}

const std::vector<PolicySpec> &
rosterPolicies()
{
    static const std::vector<PolicySpec> policies = {
        policies::baseline(),
        policies::equalizer(EqualizerMode::Performance),
        policies::equalizer(EqualizerMode::Energy),
    };
    return policies;
}

/** The run simulated work and covered the kernel's whole schedule. */
bool
completeRun(const AppRunResult &r, const KernelParams &kernel)
{
    const auto invocations = static_cast<int>(r.invocations.size());
    return r.total.smCycles > 0 && r.total.instructions > 0 &&
           r.total.seconds > 0.0 && invocations == kernel.invocationCount();
}

/**
 * Application runs through ExperimentRunner::run: kernels x the
 * baseline and both Equalizer objectives, kernel-major.
 */
class RunListWorkload : public Workload
{
  public:
    RunListWorkload(std::vector<std::string> kernels, std::uint64_t seed,
                    int threads, double nominal_pass_s)
        : Workload(threads, nominal_pass_s), names_(std::move(kernels)),
          seed_(seed)
    {
    }

    void
    setup() override
    {
        kernels_.clear();
        for (const auto &name : names_)
            kernels_.push_back(seededKernel(name, seed_));
        runner_.emplace(GpuConfig::gtx480(), PowerConfig::gtx480(), threads());
    }

    PassResult
    pass(SpanLog *log) override
    {
        PassResult out;
        const auto start = Clock::now();
        for (const KernelParams &kernel : kernels_) {
            for (const PolicySpec &policy : rosterPolicies()) {
                const int item = static_cast<int>(out.runs.size());
                if (log)
                    out.runs.push_back(tracedRun(*log, item, kernel, policy));
                else
                    out.runs.push_back(plainRun(kernel, policy));

                const AppRunResult &r = out.runs.back();
                out.simCycles += static_cast<double>(r.total.smCycles);
                out.ffCycles += r.total.fastForwardedCycles;
                Op op;
                op.group = "roster/" + kernel.name + "/" + policy.name;
                op.digest = digestRun(r);
                op.ok = completeRun(r, kernel);
                out.ops.push_back(std::move(op));
            }
        }
        out.wallS = secondsSince(start);
        return out;
    }

  private:
    AppRunResult
    plainRun(const KernelParams &kernel, const PolicySpec &policy)
    {
        // The result cache would satisfy a repeated (kernel, policy)
        // without simulating; every timed run must simulate.
        runner_->clearCache();
        return runner_->run(kernel, policy);
    }

    /** run() with the policy's controller wrapped (Instrument hook). */
    AppRunResult
    tracedRun(SpanLog &log, int item, const KernelParams &kernel,
              const PolicySpec &policy)
    {
        ScopedSpan span(log, "ExperimentRunner::run", item);
        std::unique_ptr<ForwardingController> fwd;
        const auto wrap = [&fwd](GpuTop &gpu, GpuController *controller) {
            if (!controller)
                return; // the stock GPU has no hook to time
            fwd = std::make_unique<ForwardingController>(*controller);
            gpu.setController(fwd.get());
        };
        AppRunResult r = runner_->run(kernel, policy, wrap);
        if (fwd) {
            const double calls = static_cast<double>(fwd->smCycleCalls());
            log.count(span.index(), "on_sm_cycle_calls", calls);
            log.count(span.index(), "on_sm_cycle_s", fwd->smCycleSeconds());
        }
        return r;
    }

    std::vector<std::string> names_;
    std::uint64_t seed_;
    std::vector<KernelParams> kernels_;
    std::optional<ExperimentRunner> runner_;
};

/** Model-guided VF x CTA sweeps, set up as bench_autotune does. */
class AutotuneWorkload : public Workload
{
  public:
    AutotuneWorkload(std::uint64_t seed, double nominal_pass_s)
        : Workload(1, nominal_pass_s), seed_(seed)
    {
    }

    void
    setup() override
    {
        plans_.clear();
        for (const char *name : {"lbm", "kmn"}) {
            SweepPlan plan;
            plan.kernel = seededKernel(name, seed_);
            plan.strategy = SweepStrategy::Model;
            plan.prefixPolicy = policies::baseline();
            plan.prefixInvocations = prefixInvocations;
            if (prefixInvocations >= plan.kernel.invocationCount()) {
                const std::size_t n = prefixInvocations + 1;
                plan.kernel.invocations.assign(n, InvocationMod{});
            }
            plans_.push_back(std::move(plan));
        }
        runner_.emplace(GpuConfig::gtx480(), PowerConfig::gtx480(), 1);
    }

    PassResult
    pass(SpanLog *log) override
    {
        PassResult out;
        const auto start = Clock::now();
        for (const SweepPlan &plan : plans_) {
            const int item = static_cast<int>(out.sweeps.size());
            if (log) {
                ScopedSpan span(*log, "ExperimentRunner::runSweep", item);
                out.sweeps.push_back(runner_->runSweep(plan));
            } else {
                out.sweeps.push_back(runner_->runSweep(plan));
            }

            const SweepResult &s = out.sweeps.back();
            for (const AppRunResult &p : s.points) {
                out.simCycles += static_cast<double>(p.total.smCycles);
                out.ffCycles += p.total.fastForwardedCycles;
            }
            Op op;
            op.group = "autotune/" + plan.kernel.name;
            op.digest = digestSweep(s);
            op.ok = winnersMeasured(s, plan);
            out.ops.push_back(std::move(op));
        }
        out.wallS = secondsSince(start);
        return out;
    }

  private:
    static constexpr int prefixInvocations = 2;

    /** Every grid point has a row and both winners are measured rows. */
    bool
    winnersMeasured(const SweepResult &s, const SweepPlan &plan) const
    {
        const auto grid =
            expandSweepGrid(runner_->gpuConfig(), plan.kernel, plan.grid);
        const auto measured = [&s](int i) {
            return i >= 0 && static_cast<std::size_t>(i) < s.table.size() &&
                   s.table[static_cast<std::size_t>(i)].simulated;
        };
        return s.table.size() == grid.size() && measured(s.bestPerf) &&
               measured(s.bestEnergy) &&
               s.bestPerf == bestSweepRow(s.table, false) &&
               s.bestEnergy == bestSweepRow(s.table, true);
    }

    std::uint64_t seed_;
    std::vector<SweepPlan> plans_;
    std::optional<ExperimentRunner> runner_;
};

/**
 * Open-loop Poisson arrivals served under the preemptive policy on two
 * devices, the second a forkFrom clone of the first. Latency is
 * simulated (arrival to completion on the serving wall clock), so the
 * generator cannot fall behind the host.
 */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, double nominal_pass_s)
        : Workload(1, nominal_pass_s), seed_(seed)
    {
    }

    void
    setup() override
    {
        // One Poisson stream per kernel at a third of the rate, merged:
        // the superposition is a Poisson stream at the full rate whose
        // kernel counts do not vary with the seed. With a uniform pick
        // per request they would, and the kernels differ widely in
        // length.
        const std::vector<std::string> &kernels = serveKernels();
        const std::size_t n = kernels.size();
        requests_.clear();
        for (std::size_t k = 0; k < n; ++k) {
            const int share = serveRequests / static_cast<int>(n);
            const int rest = serveRequests % static_cast<int>(n);
            ArrivalSpec spec;
            spec.kind = ArrivalKind::Poisson;
            spec.count = share + (static_cast<int>(k) < rest ? 1 : 0);
            spec.ratePerMcycle = 36.0 / static_cast<double>(n);
            spec.seed = seed_ * n + k;
            spec.sloCycles = 70'000;
            spec.mix = {{kernels[k], kernels[k] == "sgemm" ? 1 : 0}};
            for (ServeRequest &r : generateArrivals(spec))
                requests_.push_back(std::move(r));
        }
        const auto by_arrival = [](const auto &a, const auto &b) {
            return a.arrivalCycle < b.arrivalCycle;
        };
        std::stable_sort(requests_.begin(), requests_.end(), by_arrival);
        for (std::size_t i = 0; i < requests_.size(); ++i)
            requests_[i].id = static_cast<int>(i);

        // No executor is installed: the devices take the serial path.
        devices_.clear();
        for (int d = 0; d < 2; ++d)
            devices_.push_back(std::make_unique<GpuTop>());
        devices_[1]->forkFrom(*devices_[0]);
    }

    PassResult
    pass(SpanLog *log) override
    {
        ServeOptions opts;
        opts.policy = ServePolicy::Preempt;
        opts.kernelScale = serveKernelScale;
        std::vector<GpuTop *> gpus;
        for (const auto &d : devices_)
            gpus.push_back(d.get());

        PassResult out;
        const auto start = Clock::now();
        if (log) {
            std::unique_ptr<RequestServer> server;
            {
                ScopedSpan span(*log, "RequestServer::RequestServer", 0);
                server = std::make_unique<RequestServer>(gpus, opts);
            }
            ScopedSpan span(*log, "RequestServer::serve", 0);
            out.serve = server->serve(requests_);
        } else {
            RequestServer server(gpus, opts);
            out.serve = server.serve(requests_);
        }
        out.wallS = secondsSince(start);

        out.simCycles = static_cast<double>(out.serve.summary.executedCycles);
        for (const auto &d : devices_)
            out.ffCycles += d->fastForwardedCycles();
        for (const RequestRecord &rec : out.serve.records) {
            Op op;
            op.group = "serve";
            op.digest = digestRequest(rec);
            op.ok = rec.completed && !rec.rejected;
            out.ops.push_back(std::move(op));
        }
        return out;
    }

  private:
    std::uint64_t seed_;
    std::vector<ServeRequest> requests_;
    std::vector<std::unique_ptr<GpuTop>> devices_;
};

} // namespace

const std::vector<std::string> &
serveKernels()
{
    static const std::vector<std::string> kernels{"sgemm", "bp-1", "prtcl-2"};
    return kernels;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, int threads)
{
    // The nominal pass seconds are measured (README.md, First numbers).
    if (name == "roster") {
        // Three kernels per paper category, in the paper's order:
        // compute, memory, cache, unsaturated.
        std::vector<std::string> kernels = {
            "sgemm", "mri-q", "cutcp",   "lbm",  "cfd-1", "leuko-1",
            "kmn",   "spmv",  "histo-1", "bp-1", "stncl", "sc",
        };
        const int t = threads < 0 ? 1 : threads;
        return std::make_unique<RunListWorkload>(kernels, seed, t, 20.0);
    }
    if (name == "parallel") {
        std::vector<std::string> kernels = {"sgemm", "lbm", "kmn"};
        const int t = threads < 0 ? 2 : threads;
        return std::make_unique<RunListWorkload>(kernels, seed, t, 12.0);
    }
    if (name == "autotune")
        return std::make_unique<AutotuneWorkload>(seed, 15.0);
    if (name == "serve")
        return std::make_unique<ServeWorkload>(seed, 15.0);
    fatal("unknown workload '", name,
          "' (roster, parallel, autotune or serve)");
}

} // namespace eqbench

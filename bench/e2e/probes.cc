#include "probes.hh"

#include <algorithm>
#include <functional>

#include "autotune/model.hh"
#include "equalizer/decision.hh"
#include "expected.hh"
#include "gpu/gpu_top.hh"
#include "gpu/scheduler_core.hh"
#include "kernels/kernel_zoo.hh"
#include "mem/dram.hh"
#include "mem/memory_system.hh"
#include "mem/tag_array.hh"
#include "serve/server.hh"
#include "sim/parallel_executor.hh"
#include "trace/tracer.hh"
#include "workloads.hh"

namespace eqbench
{

using namespace equalizer;

namespace
{

/** Keep the compiler from discarding a probed call's result. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/**
 * Median over @p batches timed batches of @p per_batch calls fn(i), in
 * seconds per call. One span covers all batches, with the call count
 * as its counter.
 */
template <typename Fn>
double
secondsPerCall(SpanLog &log, const std::string &name, int batches,
               int per_batch, const Fn &fn)
{
    ScopedSpan span(log, name, -1);
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        const auto start = Clock::now();
        for (int i = 0; i < per_batch; ++i)
            fn(i);
        per_call.push_back(secondsSince(start) / per_batch);
    }
    const double calls = static_cast<double>(batches) * per_batch;
    log.count(span.index(), "calls", calls);
    return median(per_call);
}

/** Fifteen batches of @p per_batch calls, in ns per call. */
template <typename Fn>
double
nsPerCall(SpanLog &log, const std::string &name, int per_batch, const Fn &fn)
{
    return secondsPerCall(log, name, 15, per_batch, fn) * 1e9;
}

/** Nine single timed calls, in ms per call. */
template <typename Fn>
double
msPerCall(SpanLog &log, const std::string &name, const Fn &fn)
{
    return secondsPerCall(log, name, 9, 1, fn) * 1e3;
}

/** A runner on the stock GPU with the serial SM phase. */
ExperimentRunner
serialRunner()
{
    return ExperimentRunner(GpuConfig::gtx480(), PowerConfig::gtx480(), 1);
}

} // namespace

ComponentCosts
probeComponents(int threads, SpanLog &log)
{
    ComponentCosts c;
    const GpuConfig gcfg = GpuConfig::gtx480();

    {
        ParallelExecutor executor(threads);
        const std::function<void(int)> noop = [](int) {};
        const auto call = [&](int) {
            executor.parallelFor(gcfg.numSms, noop);
        };
        const int batch = threads > 1 ? 2'000 : 50'000;
        const double ns =
            nsPerCall(log, "ParallelExecutor::parallelFor", batch, call);
        c.parallelForUs = ns / 1e3;
    }

    {
        // A loaded memory system: every tick one SM injects a load to a
        // fresh line and drains its ready responses.
        EnergyModel energy;
        MemorySystem mem(gcfg.mem, gcfg.numSms, energy);
        Addr addr = 0;
        Cycle now = 0;
        const auto tick = [&](int i) {
            const SmId sm = i % gcfg.numSms;
            auto &queue = mem.smInjectQueue(sm);
            if (!queue.full()) {
                MemAccess acc;
                acc.lineAddr = addr;
                acc.sm = sm;
                queue.push(acc);
                addr += lineBytes * 7;
            }
            mem.tick(++now);
            keep(mem.drainResponses(sm, now, 4));
        };
        c.memsysTickNs = nsPerCall(log, "MemorySystem::tick", 20'000, tick);
    }

    {
        EnergyModel energy;
        DramPartition dram(gcfg.mem, 0, energy);
        Addr addr = 0;
        Cycle now = 0;
        const auto tick = [&](int) {
            if (!dram.full()) {
                MemAccess acc;
                acc.lineAddr = addr;
                addr += lineBytes * 6;
                dram.submit(acc, now);
            }
            keep(dram.tick(now++));
        };
        c.dramTickNs = nsPerCall(log, "DramPartition::tick", 100'000, tick);
    }

    {
        TagArray tags(64, 4);
        for (int i = 0; i < 256; ++i)
            tags.insert(static_cast<Addr>(i) * lineBytes);
        Addr addr = 0;
        const auto lookup = [&](int) {
            keep(tags.lookup(addr));
            addr = (addr + lineBytes) & 0xFFFF;
        };
        c.tagLookupNs = nsPerCall(log, "TagArray::lookup", 200'000, lookup);
    }

    {
        DecisionInputs in;
        in.wCta = 8;
        in.numBlocks = 4;
        in.maxBlocks = 8;
        double x = 0.0;
        const auto call = [&](int) {
            in.counters.nMem = x;
            in.counters.nAlu = 10.0 - x;
            in.counters.nWaiting = 20.0;
            in.counters.nActive = 40.0;
            keep(decide(in));
            x = x < 12.0 ? x + 0.5 : 0.0;
        };
        c.decideNs = nsPerCall(log, "decide", 200'000, call);
    }

    {
        EnergyModel energy;
        const auto rec = [&](int) { energy.record(EnergyEvent::SmAluOp); };
        c.energyRecordNs = nsPerCall(log, "EnergyModel::record", 200'000, rec);
        keep(energy.dynamicJoules());
    }

    {
        // A mid-kernel kmn image: 50k SM cycles in, caches and queues
        // populated, as a preempted or forked device would be.
        GpuTop gpu(gcfg);
        const SyntheticKernel launch(KernelZoo::byName("kmn").params, 0);
        SchedulerCore core(gpu);
        core.launchKernel(launch);
        core.step(50'000);

        std::vector<std::uint8_t> image;
        const auto save = [&](int) { image = gpu.saveStateBuffer(); };
        c.saveMs = msPerCall(log, "GpuTop::saveStateBuffer", save);
        c.checkpointBytes = static_cast<double>(image.size());

        GpuTop restored(gcfg);
        const auto load = [&](int) { restored.loadStateBuffer(image); };
        c.loadMs = msPerCall(log, "GpuTop::loadStateBuffer", load);

        GpuTop child(gcfg);
        const auto fork = [&](int) { child.forkFrom(gpu); };
        c.forkMs = msPerCall(log, "GpuTop::forkFrom", fork);
    }
    return c;
}

TraceCosts
probeTracing(SpanLog &log)
{
    TraceCosts t;
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (const char *name : {"sgemm", "lbm", "kmn"}) {
        const KernelParams &kernel = KernelZoo::byName(name).params;
        // Alternate untraced and traced runs and keep each side's
        // fastest, so a burst of host contention cannot pose as
        // tracing overhead.
        double plain_best = 0.0;
        double traced_best = 0.0;
        for (int rep = 0; rep < 2; ++rep) {
            ExperimentRunner plain = serialRunner();
            auto start = Clock::now();
            AppRunResult untraced;
            {
                ScopedSpan span(log, "ExperimentRunner::run", -1);
                untraced = plain.run(kernel, policies::baseline());
            }
            const double p = secondsSince(start);
            plain_best = rep ? std::min(plain_best, p) : p;

            MemoryTraceSink memory_sink;
            CountingTraceSink sink(memory_sink);
            Tracer tracer(TraceConfig{}, sink);
            ExperimentRunner traced_runner = serialRunner();
            traced_runner.setTracer(&tracer);
            start = Clock::now();
            AppRunResult traced;
            {
                ScopedSpan span(log, "ExperimentRunner::run+Tracer", -1);
                traced = traced_runner.run(kernel, policies::baseline());
                tracer.finish();
            }
            const double tr = secondsSince(start);
            traced_best = rep ? std::min(traced_best, tr) : tr;

            const bool same = digestRun(untraced) == digestRun(traced);
            t.observational = t.observational && same;
            if (rep == 0) {
                t.events += static_cast<double>(sink.eventCount());
                t.bytes += static_cast<double>(sink.byteCount());
                t.sinkSeconds += sink.seconds();
                t.baselineCycles.emplace_back(name, untraced.total.smCycles);
            }
        }
        plain_s += plain_best;
        traced_s += traced_best;
    }
    t.overheadPct = (traced_s - plain_s) / plain_s * 100.0;
    return t;
}

ModelCosts
probeModel(const std::vector<SweepResult> &sweeps, const GpuConfig &cfg,
           SpanLog &log)
{
    ModelCosts m;
    for (const SweepResult &s : sweeps) {
        // Probes are simulated first, so they lead the points list;
        // their operating points are their table rows.
        const std::uint64_t probes = s.stats.counterValue("sweep.probes");
        std::vector<MeasuredSample> samples;
        for (std::size_t i = 0; i < probes && i < s.points.size(); ++i) {
            const RunMetrics &m = s.points[i].total;
            for (const SweepPointRow &row : s.table) {
                if (row.policy != s.points[i].policy)
                    continue;
                const OperatingPoint op{row.smVf, row.memVf, row.cta};
                samples.push_back({op, m.seconds, m.totalJoules()});
            }
        }
        if (samples.empty())
            continue;

        const auto fit = [&](int) {
            keep(SweepModel::fit(samples, cfg.smNominalHz));
        };
        m.fitUs += nsPerCall(log, "SweepModel::fit", 200, fit) / 1e3;

        const SweepModel model = SweepModel::fit(samples, cfg.smNominalHz);
        const auto predict = [&](int) {
            std::vector<std::pair<double, double>> objectives;
            for (const SweepPointRow &row : s.table) {
                const OperatingPoint op{row.smVf, row.memVf, row.cta};
                objectives.emplace_back(model.predictSeconds(op),
                                        model.predictJoules(op));
            }
            keep(paretoFrontier(objectives, 0.05));
        };
        const double predict_ns =
            nsPerCall(log, "SweepModel::predict+paretoFrontier", 200, predict);
        m.predictUs += predict_ns / 1e3;
    }
    return m;
}

double
standaloneNsPerCycle(const std::string &kernel, SpanLog &log)
{
    const KernelParams &params = KernelZoo::byName(kernel).params;
    const KernelParams scaled = scaleKernelParams(params, serveKernelScale);
    const SyntheticKernel launch(scaled, 0);
    std::vector<double> ns_per_cycle;
    for (int r = 0; r < 3; ++r) {
        GpuTop gpu;
        ScopedSpan span(log, "GpuTop::runKernel", -1);
        const auto start = Clock::now();
        const RunMetrics m = gpu.runKernel(launch);
        const double cycles = static_cast<double>(m.smCycles);
        ns_per_cycle.push_back(secondsSince(start) * 1e9 / cycles);
    }
    return median(ns_per_cycle);
}

} // namespace eqbench

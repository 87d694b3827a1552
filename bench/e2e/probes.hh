/**
 * @file
 * Component probes of the traced run: simulator modules timed in
 * isolation through their public functions, each reported as the
 * median of repeated timed batches.
 */

#ifndef EQBENCH_PROBES_HH
#define EQBENCH_PROBES_HH

#include <string>
#include <vector>

#include "gpu/gpu_config.hh"
#include "harness/runner.hh"
#include "spans.hh"

namespace eqbench
{

/** Per-call host costs of isolated simulator components. */
struct ComponentCosts
{
    double parallelForUs = 0.0;   ///< no-op ParallelExecutor::parallelFor(15)
    double memsysTickNs = 0.0;    ///< MemorySystem::tick under load
    double dramTickNs = 0.0;      ///< DramPartition::tick under load
    double tagLookupNs = 0.0;     ///< TagArray::lookup
    double decideNs = 0.0;        ///< Algorithm 1 decide()
    double energyRecordNs = 0.0;  ///< EnergyModel::record
    double checkpointBytes = 0.0; ///< kmn image stepped 50k cycles
    double saveMs = 0.0;          ///< saveStateBuffer of that image
    double loadMs = 0.0;          ///< loadStateBuffer of that image
    double forkMs = 0.0;          ///< forkFrom that device
};

/** Time every isolated component; parallelFor at @p threads. */
ComponentCosts probeComponents(int threads, SpanLog &log);

/**
 * What a Tracer costs on the full-size zoo sgemm, lbm and kmn baseline
 * runs (the BENCH_BASELINE.json kernels, whose SM cycles are pinned).
 */
struct TraceCosts
{
    double events = 0.0;       ///< events reaching the sink
    double bytes = 0.0;        ///< binary trace bytes reaching the sink
    double sinkSeconds = 0.0;  ///< host time inside the sink
    double overheadPct = 0.0;  ///< traced vs untraced wall, percent
    bool observational = true; ///< traced runs had untraced digests
    /// SM cycles of each untraced run, by kernel name.
    std::vector<std::pair<std::string, equalizer::Cycle>> baselineCycles;
};

TraceCosts probeTracing(SpanLog &log);

/** Host cost of the autotuner's model over one pass's sweeps. */
struct ModelCosts
{
    double fitUs = 0.0;     ///< SweepModel::fit on the probe rows
    double predictUs = 0.0; ///< predict every grid point + paretoFrontier
};

ModelCosts probeModel(const std::vector<equalizer::SweepResult> &sweeps,
                      const equalizer::GpuConfig &cfg, SpanLog &log);

/**
 * Host ns per SM cycle of one serve request kernel (scaled as the serve
 * workload scales it) run standalone on a fresh device.
 */
double standaloneNsPerCycle(const std::string &kernel, SpanLog &log);

} // namespace eqbench

#endif // EQBENCH_PROBES_HH

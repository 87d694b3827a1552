/**
 * @file
 * The request server (docs/SERVING.md): an admission queue over one or
 * more simulated GPUs, advanced in bounded quanta through
 * SchedulerCore::step(), with five dispatch policies:
 *
 *  - fcfs:    run-to-completion in arrival order;
 *  - sjf:     shortest-predicted-remaining first (non-preemptive),
 *             runtimes from the online structural RuntimePredictor;
 *  - edf:     earliest absolute deadline (arrival + SLO) first,
 *             non-preemptive; deadline-free requests go last;
 *  - llf:     least laxity first (deadline minus wall minus predicted
 *             remaining service), non-preemptive — a long request with
 *             a loose deadline can still be more urgent than a short
 *             one with a tight deadline;
 *  - preempt: priority-preemptive — a higher-priority arrival evicts
 *             the running request to a checkpoint shelf
 *             (saveStateBuffer) and the victim later resumes from it
 *             (loadStateBuffer + adoptResumedKernel), charged a
 *             modeled save/restore cost on the wall clock. Eviction is
 *             predictor-gated: a higher priority alone does not evict
 *             unless the victim's predicted remaining service exceeds
 *             the challenger's predicted service plus the modeled
 *             save+restore cost, so near-finished victims run out.
 *
 * Admission control (admission=predictive) rejects a request at
 * admission time when its predicted completion — current backlog
 * spread across devices plus its own predicted service — already
 * busts its SLO. Rejected requests are counted and reported in every
 * export; they are never silently dropped.
 *
 * Multi-device serving shards one admission queue across N devices
 * (forked warm clones of one GpuTop): each device runs its own
 * SchedulerCore, and the dispatch pick is deterministic — the lowest
 * predicted-free device, index tie-break.
 *
 * Determinism: the device simulation is deterministic, arrivals are a
 * pure function of the spec, and every dispatch decision is
 * arithmetic over those quantities — so a whole serve() run
 * (per-request records, percentiles, trace bytes) is byte-identical
 * for a fixed seed, at any device count.
 */

#ifndef EQ_SERVE_SERVER_HH
#define EQ_SERVE_SERVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/synthetic_kernel.hh"
#include "serve/predictor.hh"
#include "serve/request.hh"

namespace equalizer
{

class GpuTop;

/** Dispatcher policy of the serving frontend. */
enum class ServePolicy
{
    Fcfs,    ///< first-come, first-served, run to completion
    Sjf,     ///< shortest predicted remaining time, non-preemptive
    Edf,     ///< earliest absolute deadline, non-preemptive
    Llf,     ///< least laxity (deadline - wall - predicted remaining)
    Preempt, ///< priority-preemptive via checkpoint shelves
};

const char *toString(ServePolicy policy);

/** Parse "fcfs" / "sjf" / "edf" / "llf" / "preempt"; fatal() else. */
ServePolicy servePolicyFromString(const std::string &name);

/** Admission-control policy of the serving frontend. */
enum class AdmissionPolicy
{
    None,       ///< admit everything
    Predictive, ///< reject when predicted completion busts the SLO
};

const char *toString(AdmissionPolicy policy);

/** Parse "none" / "predictive"; fatal() on anything else. */
AdmissionPolicy admissionPolicyFromString(const std::string &name);

/** Serving-loop knobs (see docs/SERVING.md for the cost model). */
struct ServeOptions
{
    ServePolicy policy = ServePolicy::Fcfs;

    /** Reject-at-admission policy (docs/SERVING.md). */
    AdmissionPolicy admission = AdmissionPolicy::None;

    /** SM cycles per SchedulerCore::step() quantum. */
    Cycle quantumCycles = 2048;

    /** Modeled wall-clock cost of evicting a request to its shelf. */
    Cycle preemptSaveCycles = 512;

    /** Modeled wall-clock cost of restoring a shelved request. */
    Cycle preemptRestoreCycles = 512;

    /**
     * Shrink factor applied to request grids (totalBlocks and
     * instrsPerWarp): serving studies sweep many requests, so the
     * 0.25 default turns a seconds-long zoo kernel into a tens-of-ms
     * request while keeping its resource character. 1.0 keeps the
     * full-size grid (the invocation schedule is still dropped — a
     * request is always exactly one grid).
     */
    double kernelScale = 0.25;

    /** Per-kernel deadlock valve, as in GpuTop::runKernel(). */
    Cycle maxKernelCycles = 2'000'000'000ULL;

    /** Whole-run deadlock valve on the wall clock. */
    Cycle maxWallCycles = 1'000'000'000'000ULL;
};

/** Aggregate serving metrics of one serve() run. */
struct ServeSummary
{
    std::string policy;
    std::string admission;
    int devices = 1;
    int requests = 0;
    int completed = 0;
    int rejected = 0;        ///< refused by admission control
    int preemptions = 0;     ///< total evictions across requests
    Cycle wallCycles = 0;    ///< wall clock at last completion
    Cycle executedCycles = 0;///< device SM cycles across requests
    Cycle p50Latency = 0;
    Cycle p95Latency = 0;
    Cycle p99Latency = 0;
    Cycle maxLatency = 0;
    double meanLatency = 0.0;
    double throughputPerMcycle = 0.0; ///< completions per 1e6 wall cyc
    int sloViolations = 0;
    double sloViolationRate = 0.0; ///< violations / completed
    double rejectionRate = 0.0;    ///< rejected / requests
};

/** Per-device attribution of one serve() run. */
struct ServeDeviceStats
{
    int device = 0;          ///< device index
    int completed = 0;       ///< requests this device completed
    int preemptions = 0;     ///< evictions charged to this device
    Cycle executedCycles = 0;///< SM cycles this device executed
    Cycle wallCycles = 0;    ///< device wall at its last completion
};

/** Everything serve() measured. */
struct ServeReport
{
    ServeSummary summary;
    std::vector<RequestRecord> records; ///< request id order
    std::vector<ServeDeviceStats> deviceStats; ///< device index order
};

/**
 * @p params normalized for serving: the grid (totalBlocks and
 * instrsPerWarp) shrunk by @p scale when scale < 1 (floor: one block,
 * 32 instructions), the application's invocation schedule dropped and
 * longBlocks clamped to the grid unconditionally — a request is
 * always exactly one nominal grid, whatever the scale.
 */
KernelParams scaleKernelParams(KernelParams params, double scale);

class RequestServer
{
  public:
    /**
     * Single-device serving: @p gpu must be idle (no run in flight)
     * and single-tenant; the server drives it exclusively for the
     * duration of serve().
     */
    RequestServer(GpuTop &gpu, ServeOptions opts);

    /**
     * Multi-device serving: one admission queue sharded across
     * @p gpus (each idle, single-tenant, identically configured —
     * fork warm clones from one device so checkpoint shelves restore
     * anywhere). Device pick is deterministic: lowest predicted-free
     * device, index tie-break.
     */
    RequestServer(std::vector<GpuTop *> gpus, ServeOptions opts);

    /**
     * Run the whole schedule to completion and report. Requests may
     * arrive unsorted; they are served in arrival order (ties by id).
     */
    ServeReport serve(const std::vector<ServeRequest> &requests);

    const RuntimePredictor &predictor() const { return predictor_; }

  private:
    std::vector<GpuTop *> gpus_;
    ServeOptions opts_;
    RuntimePredictor predictor_;
    // Scaled launch objects, one per kernel name, alive for the
    // server's lifetime (invocations keep a pointer into these). Their
    // params() are what the predictor is asked about.
    std::map<std::string, std::unique_ptr<SyntheticKernel>> kernels_;
};

} // namespace equalizer

#endif // EQ_SERVE_SERVER_HH

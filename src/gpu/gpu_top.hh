/**
 * @file
 * The whole GPU: clock domains, SMs, memory system, energy accounting,
 * tenants, kernel invocations and the controller hook.
 */

#ifndef EQ_GPU_GPU_TOP_HH
#define EQ_GPU_GPU_TOP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/controller.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_invocation.hh"
#include "gpu/kernel_launch.hh"
#include "gpu/metrics.hh"
#include "gpu/sm.hh"
#include "gpu/tenant.hh"
#include "mem/memory_system.hh"
#include "power/energy_model.hh"
#include "sim/clock_domain.hh"
#include "sim/parallel_executor.hh"
#include "sim/state.hh"
#include "trace/tracer.hh"

namespace equalizer
{

/** Latency of a VF transition once committed (paper: 512 SM cycles). */
inline constexpr Cycle vrmTransitionSmCycles = 512;

/**
 * What to do when a checkpoint's controller state does not belong to
 * the live controller.
 */
enum class ControllerMismatch
{
    Fatal, ///< refuse the restore (loadCheckpoint: strict)
    Drop,  ///< discard the stored controller state (forkFrom: points
           ///< deliberately swap policies at the fork)
};

/**
 * Top-level GPU model.
 *
 * Execution is organised around first-class KernelInvocation objects,
 * each owning a launch, an SM partition and a work-distribution
 * cursor, grouped under Tenants (docs/MULTI_TENANT.md):
 *
 *  - runKernel() executes one whole-device invocation to completion
 *    and returns its metrics. The instance retains architectural state
 *    (VF states, controller state, L2 contents) across invocations, so
 *    an application is simulated by calling runKernel repeatedly.
 *  - configureTenants()/enqueueKernel()/runTenants() co-run several
 *    tenants on exclusive SM partitions, each with a queue of
 *    invocations and an optional SM-utilization limiter.
 */
class GpuTop
{
  public:
    explicit GpuTop(GpuConfig cfg = GpuConfig::gtx480(),
                    PowerConfig power = PowerConfig::gtx480());

    /** Install the runtime policy (non-owning; may be nullptr). */
    void setController(GpuController *controller)
    {
        controller_ = controller;
    }

    /**
     * Remove every per-SM hook a policy may have installed (L1
     * eviction/miss observers, memory-issue filters). Called when a
     * sweep swaps policies mid-application so a hook-installing
     * warm-up policy (e.g. CCWS) cannot keep steering the suffix.
     */
    void clearPolicyHooks();

    /**
     * Install a worker pool for the per-SM parallel phase (non-owning;
     * nullptr or a 1-thread pool selects the serial oracle path). SMs
     * then tick concurrently between epoch barriers; the memory system,
     * controller hooks, observers, work distribution and stats all stay
     * on the calling thread, so results are bit-identical to the serial
     * path for any thread count (docs/PARALLELISM.md).
     */
    void setParallelExecutor(ParallelExecutor *executor)
    {
        executor_ = executor;
    }

    /** Threads used for the SM phase (1 = serial path). */
    int simThreads() const
    {
        return executor_ ? executor_->threads() : 1;
    }

    /**
     * Install a per-SM-cycle observer (tracing for figures). Runs after
     * the controller hook.
     */
    void setCycleObserver(std::function<void(GpuTop &)> observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Install the epoch-level tracer (non-owning; nullptr detaches).
     * Attaches a ring to every SM, registers the built-in device
     * gauges (plus per-tenant gauges when tenants are configured), and
     * drains at every tracer epoch boundary inside the serial barrier
     * phase — so a threads=N trace is byte-identical to threads=1
     * (docs/TRACING.md).
     */
    void setTracer(Tracer *tracer);

    /** The installed tracer, or nullptr (components emit through it). */
    Tracer *tracer() const { return tracer_; }

    /**
     * Execute one kernel invocation to completion on the whole device.
     * Requires the default single-tenant configuration (co-runs go
     * through enqueueKernel()/runTenants()).
     *
     * @param kernel The launch to run.
     * @param max_sm_cycles Safety valve: panic when exceeded.
     */
    RunMetrics runKernel(const KernelLaunch &kernel,
                         Cycle max_sm_cycles = 2'000'000'000ULL);

    // --- Multi-tenant residency (docs/MULTI_TENANT.md).

    /**
     * Carve the device into exclusive per-tenant SM partitions. An
     * empty spec list restores the implicit single tenant owning every
     * SM with no utilization limit. Not allowed mid-run. Tenant
     * smLimit values must lie in (0, 1]; 1.0 disables the limiter.
     */
    void configureTenants(const std::vector<TenantSpec> &specs,
                          PartitionPolicy policy =
                              PartitionPolicy::RoundRobin);

    int numTenants() const { return static_cast<int>(tenants_.size()); }
    Tenant &tenant(int i) { return tenants_[static_cast<std::size_t>(i)]; }
    const Tenant &tenant(int i) const
    {
        return tenants_[static_cast<std::size_t>(i)];
    }

    /** True after configureTenants() with a non-empty spec list. */
    bool explicitTenants() const { return explicitTenants_; }

    /** Queue a launch on one tenant (non-owning pointer). */
    void enqueueKernel(int tenant, const KernelLaunch &kernel);

    /**
     * Run every tenant's queue to completion: each tenant launches its
     * queue head on its partition, relaunching the next queued kernel
     * the cycle an invocation's grid drains. Returns combined
     * whole-device metrics; per-tenant attribution comes from
     * tenant(i) counters and the invocations() records.
     *
     * @param label RunMetrics::kernel for the co-run ("" derives
     *        "concurrent:a:b..." from the initial launches).
     */
    RunMetrics runTenants(Cycle max_sm_cycles = 2'000'000'000ULL,
                          const std::string &label = "");

    /** Invocations of the current (or most recent) run. */
    const std::vector<KernelInvocation> &invocations() const
    {
        return invocations_;
    }

    /**
     * Index into invocations() of the invocation owning SM @p s, or -1
     * when the SM is not bound to any current invocation.
     */
    int invocationOnSm(int s) const
    {
        return smInvocation_[static_cast<std::size_t>(s)];
    }

    /**
     * Request a VF state change on one domain. Takes effect after the
     * VRM transition latency (512 SM cycles), paper Section V-A1.
     */
    void requestVfState(PowerDomain domain, VfState target);

    // --- Component access (controllers, tests, harness).
    int numSms() const { return static_cast<int>(sms_.size()); }

    StreamingMultiprocessor &sm(int i)
    {
        return *sms_[static_cast<std::size_t>(i)];
    }

    const StreamingMultiprocessor &sm(int i) const
    {
        return *sms_[static_cast<std::size_t>(i)];
    }

    ClockDomain &smDomain() { return smDomain_; }
    ClockDomain &memDomain() { return memDomain_; }
    const ClockDomain &smDomain() const { return smDomain_; }
    const ClockDomain &memDomain() const { return memDomain_; }

    MemorySystem &memorySystem() { return memSystem_; }
    EnergyModel &energy() { return energy_; }

    const GpuConfig &config() const { return cfg_; }

    /** Uniformly set every SM's target block count. */
    void setAllTargetBlocks(int target);

    // --- Checkpoint / restore / fork (docs/SNAPSHOT.md).

    /**
     * Serialize or restore the complete architectural state, including
     * tenants and in-flight invocations — a checkpoint taken mid-co-run
     * round-trips (resumeTenants()). On load, @p on_mismatch decides
     * what happens when the stored controller state belongs to a
     * different policy than the live controller.
     */
    void visitState(StateVisitor &v, ControllerMismatch on_mismatch);

    /** Serialize the full state into an in-memory checkpoint. */
    std::vector<std::uint8_t> saveStateBuffer() const;

    /**
     * Restore from an in-memory checkpoint. The checkpoint must carry
     * the fingerprint of this instance's configuration; any structural
     * difference is fatal().
     */
    void loadStateBuffer(const std::vector<std::uint8_t> &buf,
                         ControllerMismatch on_mismatch =
                             ControllerMismatch::Fatal);

    /** saveStateBuffer() to a file. */
    void saveCheckpoint(const std::string &path) const;

    /** Strict restore from a file written by saveCheckpoint(). */
    void loadCheckpoint(const std::string &path);

    /**
     * Become an exact copy of @p parent (same GpuConfig/PowerConfig
     * required). Controller state transfers when both sides run the
     * same policy and is dropped otherwise, so a sweep can fork one
     * warmed-up prefix into N differently-controlled points.
     */
    void forkFrom(const GpuTop &parent);

    /**
     * Continue a single-invocation run that was mid-flight when the
     * state was saved. @p kernel must be the same launch (validated by
     * name); instruction streams are rebuilt by deterministic replay.
     * Returns the full invocation's metrics, bit-identical to an
     * uninterrupted runKernel().
     */
    RunMetrics resumeKernel(const KernelLaunch &kernel);

    /**
     * Continue a (possibly multi-tenant) run that was mid-flight when
     * the state was saved. @p kernels must offer a launch for every
     * in-flight invocation and queued launch (matched by name).
     * Returns the whole run's combined metrics, bit-identical to an
     * uninterrupted runTenants().
     */
    RunMetrics
    resumeTenants(const std::vector<const KernelLaunch *> &kernels);

    /** True when the (restored) state is inside a run. */
    bool midKernel() const { return run_.active; }

    /**
     * SM cycles jumped over by the cycle-skipping fast path since
     * construction (docs/FAST_PATH.md). Deliberately not serialized and
     * not exported — it differs between fast- and slow-path runs, which
     * must stay byte-comparable everywhere else.
     */
    Cycle fastForwardedCycles() const { return fastForwardedCycles_; }

    /** Label of the in-flight (or most recent) run. */
    const std::string &currentKernelName() const
    {
        return currentKernelName_;
    }

  private:
    /**
     * The steppable run loop (gpu/scheduler_core.hh) owns the launch
     * preambles and the clock-edge interleave; runKernel(),
     * runTenants() and resume*() are thin clients of it.
     */
    friend class SchedulerCore;

    struct Snapshot
    {
        Cycle smCycles = 0;
        Cycle memCycles = 0;
        std::uint64_t instructions = 0;
        double dynamicJoules = 0.0;
        WarpStateCounts outcomes;
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t dramAccesses = 0;
        std::uint64_t dramRowHits = 0;
        std::uint64_t dramPoweredDownCycles = 0;
        std::array<Tick, numVfStates> smResidency{};
        std::array<Tick, numVfStates> memResidency{};
    };

    /**
     * Everything a run keeps between launch and completion, promoted
     * to a member so a checkpoint taken mid-run carries it and
     * resumeKernel()/resumeTenants() can re-enter the loop.
     */
    struct RunContext
    {
        bool active = false; ///< between beginRun() and run completion
        Snapshot before;     ///< baseline for the run's metrics
        Cycle cycleLimit = 0;
    };

    Snapshot takeSnapshot() const;
    void distributeBlocks();
    bool allDone() const;
    void tickSms(Cycle mem_now);

    /**
     * The cycle-skipping fast path (docs/FAST_PATH.md): when every SM
     * is provably stalled and the memory system provably quiet, compute
     * a conservative global bound (SM wakeups, memory deadlines,
     * controller actions, tracer epoch boundaries, the cycle limit, VF
     * transitions) and fire all clock edges strictly before it at once,
     * replaying their per-cycle bookkeeping analytically. Returns true
     * when at least one edge was skipped. Bit-identical to ticking by
     * construction; the caller re-enters the normal loop either way.
     * Vetoed outright during multi-tenant runs (docs/MULTI_TENANT.md).
     *
     * @param sm_stop Absolute SM cycle of the caller's quantum
     *     boundary (noWakeup = unbounded): a skip may land exactly on
     *     it but never beyond, so SchedulerCore::step(n) pauses on
     *     time even when the whole quantum is skippable.
     */
    bool tryFastForward(Cycle sm_stop);

    /** Whole-run setup shared by runKernel() and runTenants(). */
    void beginRun(const std::string &label, Cycle max_sm_cycles);

    /**
     * Create the invocation for @p tenant's launch @p kernel, bind its
     * SM partition and reset its work cursor. Hook/trace emission is
     * separate (launchHooks) so a run's initial launches bind every SM
     * before the first controller callback.
     */
    KernelInvocation &makeInvocation(Tenant &tenant,
                                     const KernelLaunch &kernel);

    /** onInvocationLaunch + KernelBegin trace event for @p inv. */
    void launchHooks(KernelInvocation &inv);

    /**
     * Record completion on @p inv (metrics deltas over its SM set),
     * unbind its SMs and emit its KernelEnd trace event.
     */
    void completeInvocation(KernelInvocation &inv);

    /**
     * Per-SM-cycle tenant bookkeeping in the serial barrier phase:
     * token-bucket limiter steps, and — when a tenant's grid drains —
     * invocation completion and relaunch of its next queued kernel.
     * Skipped entirely for the implicit single tenant (zero overhead
     * on the classic path).
     */
    void serviceTenants();

    /** Completion hooks, final trace events and the metrics delta. */
    RunMetrics finishRun();

    void traceEpoch(Cycle cycle);
    void defineTenantGauges();
    void rebuildSmInvocationMap();
    std::uint64_t instructionsOn(const std::vector<int> &sm_set) const;
    std::uint64_t blocksCompletedOn(const std::vector<int> &sm_set) const;

    GpuConfig cfg_;
    EnergyModel energy_;
    ClockDomain smDomain_;
    ClockDomain memDomain_;
    MemorySystem memSystem_;
    std::vector<std::unique_ptr<StreamingMultiprocessor>> sms_;

    GpuController *controller_ = nullptr;
    ParallelExecutor *executor_ = nullptr;
    Tracer *tracer_ = nullptr;
    std::function<void(GpuTop &)> observer_;

    /// Exclusive SM partitions; always at least the implicit tenant 0.
    std::vector<Tenant> tenants_;
    bool explicitTenants_ = false;

    /// The current (or most recent) run's invocations.
    std::vector<KernelInvocation> invocations_;

    /// SM index -> invocations_ index (-1 = unbound). Rebuilt, never
    /// serialized.
    std::vector<int> smInvocation_;

    /// Launches still queued across all tenants (cheap loop guard).
    std::size_t pendingLaunches_ = 0;

    /// Serialized label of the run (single kernel: its name).
    std::string currentKernelName_;
    RunContext run_;

    // --- Fast-path bookkeeping (none of it serialized: skips are
    // transparent, so the skip pattern may differ across a
    // checkpoint/restore while every simulated quantity stays equal).
    Cycle fastForwardedCycles_ = 0;
    Cycle ffAtRunStart_ = 0;  ///< counter value at beginRun()
    Cycle ffBackoffUntil_ = 0;///< SM cycle before which probes are skipped
    Cycle ffBackoff_ = 1;     ///< current backoff span (doubles to 32)
};

} // namespace equalizer

#endif // EQ_GPU_GPU_TOP_HH

/**
 * @file
 * SchedulerCore: the reentrant, externally-steppable run loop.
 *
 * GpuTop::runKernel()/runTenants()/resume*() run it to completion;
 * external drivers (the request-serving frontend in src/serve/, tests)
 * advance the device by bounded quanta and regain control between
 * them. Pausing between clock edges is state-neutral, so a run
 * advanced via any sequence of step() calls is bit-identical to a
 * single run-to-completion call, with tracing/checkpointing behaviour
 * untouched.
 *
 * All mutable run state stays inside GpuTop (its RunContext is part of
 * the checkpoint image); a SchedulerCore is a cheap, stateless
 * handle that can be recreated at will — e.g. after loadStateBuffer()
 * — and re-entered via the adopt*() calls.
 */

#ifndef EQ_GPU_SCHEDULER_CORE_HH
#define EQ_GPU_SCHEDULER_CORE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/metrics.hh"

namespace equalizer
{

class GpuTop;
class KernelLaunch;

/** What a bounded step() observed when it returned. */
enum class StepStatus
{
    Running, ///< quantum exhausted; work remains
    Drained, ///< every invocation completed; call finish()
};

const char *toString(StepStatus status);

class SchedulerCore
{
  public:
    explicit SchedulerCore(GpuTop &gpu) : gpu_(gpu) {}

    /**
     * Bind @p kernel on the implicit whole-device tenant and arm the
     * run — guards, invocation creation, controller launch hook and
     * initial block distribution. Follow with step()/run().
     */
    void launchKernel(const KernelLaunch &kernel,
                      Cycle max_sm_cycles = 2'000'000'000ULL);

    /** Bind every tenant's queue head and arm a multi-tenant run. */
    void launchTenants(Cycle max_sm_cycles = 2'000'000'000ULL,
                       const std::string &label = "");

    /**
     * Re-enter a run restored by loadStateBuffer(): validate that the
     * image is mid-kernel and rebind the (non-serialized) launch
     * pointer.
     */
    void adoptResumedKernel(const KernelLaunch &kernel);

    /** Multi-invocation flavour of adoptResumedKernel(). */
    void
    adoptResumedTenants(const std::vector<const KernelLaunch *> &kernels);

    /**
     * Advance the device by at most @p n_cycles SM cycles (memory
     * edges interleave on global time as always). noWakeup means
     * unbounded. Returns Drained when every invocation completed
     * (then call finish() exactly once), Running when the quantum
     * was exhausted first (the device is at a clock-edge boundary:
     * checkpoint, swap or just keep stepping).
     */
    StepStatus step(Cycle n_cycles = noWakeup);

    /** step() until Drained (run-to-completion). */
    void run();

    /** Completion hooks, final trace events and the metrics delta. */
    RunMetrics finish();

    /** True while the armed/adopted run has not been finish()ed. */
    bool active() const;

    GpuTop &gpu() { return gpu_; }

  private:
    GpuTop &gpu_;
};

} // namespace equalizer

#endif // EQ_GPU_SCHEDULER_CORE_HH

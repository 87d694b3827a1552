/**
 * @file
 * Runtime-policy hook. Equalizer, DynCTA, CCWS and the static operating
 * points all plug into the GPU through this interface.
 */

#ifndef EQ_GPU_CONTROLLER_HH
#define EQ_GPU_CONTROLLER_HH

#include <string>

#include "common/types.hh"

namespace equalizer
{

class GpuTop;
class KernelInvocation;
class StateVisitor;

/**
 * A hardware runtime policy observing and steering the GPU.
 *
 * Hooks are invoked by GpuTop: onKernelLaunch once per run (all SMs are
 * bound, blocks not yet distributed); onInvocationLaunch once per
 * kernel invocation (including a tenant's mid-co-run relaunch of its
 * next queued kernel); onSmCycle after every SM clock edge (all SMs
 * have ticked); onKernelComplete when every grid has drained.
 */
class GpuController
{
  public:
    virtual ~GpuController() = default;

    /** Short policy name for reports ("equalizer-perf", "sm-high", ...). */
    virtual std::string name() const = 0;

    virtual void onKernelLaunch(GpuTop &) {}

    /**
     * Per-invocation launch hook: the invocation's SMs are bound to its
     * kernel; decisions should be keyed by the invocation's SM set so
     * co-resident tenants don't disturb each other. Default no-op keeps
     * device-global policies working unchanged.
     */
    virtual void onInvocationLaunch(GpuTop &, const KernelInvocation &) {}

    virtual void onSmCycle(GpuTop &) {}
    virtual void onKernelComplete(GpuTop &) {}

    /**
     * Serialize controller-internal state (epoch counters, victim tag
     * arrays, ...). Stateless controllers keep the default no-op. On
     * load the controller may re-install its hooks on @p gpu.
     */
    virtual void visitControllerState(StateVisitor &, GpuTop &) {}

    /**
     * Retired: the simulator never calls it. It stays only because
     * bench/e2e's forwarding controller overrides it, and goes with
     * that override.
     */
    virtual Cycle nextActionCycle(const GpuTop &, Cycle /*now*/) const
    {
        return 0;
    }
};

} // namespace equalizer

#endif // EQ_GPU_CONTROLLER_HH

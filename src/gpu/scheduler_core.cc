#include "gpu/scheduler_core.hh"

#include <algorithm>

#include "common/log.hh"
#include "gpu/gpu_top.hh"

namespace equalizer
{

const char *
toString(StepStatus status)
{
    switch (status) {
      case StepStatus::Running:
        return "running";
      case StepStatus::Drained:
        return "drained";
    }
    return "unknown";
}

void
SchedulerCore::launchKernel(const KernelLaunch &kernel, Cycle max_sm_cycles)
{
    GpuTop &g = gpu_;
    if (g.numTenants() > 1)
        fatal("runKernel: the device is partitioned into ", g.numTenants(),
              " tenants; use enqueueKernel()/runTenants()");
    if (g.pendingLaunches_ > 0)
        fatal("runKernel: queued launches pending; use runTenants()");

    g.invocations_.clear();
    g.makeInvocation(g.tenants_.front(), kernel);
    if (g.controller_)
        g.controller_->onKernelLaunch(g);
    g.beginRun(kernel.info().name, max_sm_cycles);
    g.launchHooks(g.invocations_.front());
    g.distributeBlocks();
}

void
SchedulerCore::launchTenants(Cycle max_sm_cycles, const std::string &label)
{
    GpuTop &g = gpu_;
    if (g.run_.active)
        fatal("runTenants: a run is already in flight");
    if (g.pendingLaunches_ == 0)
        fatal("runTenants: nothing queued; enqueueKernel() first");

    // Bind every tenant's queue head before the first controller
    // callback.
    g.invocations_.clear();
    std::fill(g.smInvocation_.begin(), g.smInvocation_.end(), -1);
    std::vector<std::size_t> initial;
    for (auto &t : g.tenants_) {
        if (t.queueEmpty())
            continue;
        const KernelLaunch *k = t.popQueue();
        --g.pendingLaunches_;
        g.makeInvocation(t, *k);
        initial.push_back(g.invocations_.size() - 1);
    }
    if (g.controller_)
        g.controller_->onKernelLaunch(g);

    std::string lbl = label;
    if (lbl.empty()) {
        if (initial.size() == 1) {
            lbl = g.invocations_[initial.front()].name();
        } else {
            lbl = "concurrent";
            for (std::size_t i : initial)
                lbl += ":" + g.invocations_[i].name();
        }
    }
    g.beginRun(lbl, max_sm_cycles);
    for (std::size_t i : initial)
        g.launchHooks(g.invocations_[i]);
    g.distributeBlocks();
}

void
SchedulerCore::adoptResumedKernel(const KernelLaunch &kernel)
{
    GpuTop &g = gpu_;
    if (!g.run_.active)
        fatal("resumeKernel: the restored state is not inside a kernel "
              "invocation");
    if (g.invocations_.size() != 1)
        fatal("resumeKernel: the restored run has ", g.invocations_.size(),
              " invocations; use resumeTenants()");
    if (kernel.info().name != g.currentKernelName_)
        fatal("resumeKernel: state was saved inside kernel '",
              g.currentKernelName_, "', not '", kernel.info().name, "'");
    g.invocations_.front().rebindLaunch(&kernel);
    for (int s : g.invocations_.front().smSet())
        g.sms_[static_cast<std::size_t>(s)]->rebindKernel(&kernel);
}

void
SchedulerCore::adoptResumedTenants(
    const std::vector<const KernelLaunch *> &kernels)
{
    GpuTop &g = gpu_;
    if (!g.run_.active)
        fatal("resumeTenants: the restored state is not inside a run");
    for (auto &inv : g.invocations_) {
        if (!inv.active())
            continue;
        const KernelLaunch *match = nullptr;
        for (const auto *k : kernels)
            if (k->info().name == inv.name())
                match = k;
        if (!match)
            fatal("resumeTenants: no launch named '", inv.name(),
                  "' offered for an in-flight invocation");
        inv.rebindLaunch(match);
        for (int s : inv.smSet())
            g.sms_[static_cast<std::size_t>(s)]->rebindKernel(match);
    }
    for (auto &t : g.tenants_)
        t.rebindQueue(kernels);
}

StepStatus
SchedulerCore::step(Cycle n_cycles)
{
    GpuTop &g = gpu_;
    if (!g.run_.active)
        fatal("SchedulerCore::step: no run armed; launch or adopt first");

    // The quantum boundary in absolute SM cycles; saturate so a huge
    // quantum degrades to "unbounded" instead of wrapping.
    const Cycle sm_now = g.smDomain_.cycle();
    const Cycle stop = (n_cycles == noWakeup || n_cycles >= noWakeup - sm_now)
                           ? noWakeup
                           : sm_now + n_cycles;

    // Pausing between iterations is state-neutral, so any step()
    // partition of a run is bit-identical to run-to-completion.
    while (true) {
        // A paused device is settled: callers see no sleeper's lag.
        if (g.allDone()) {
            g.settleSms();
            return StepStatus::Drained;
        }
        if (stop != noWakeup && g.smDomain_.cycle() >= stop) {
            g.settleSms();
            return StepStatus::Running;
        }
        if (g.memDomain_.nextEdge() <= g.smDomain_.nextEdge()) {
            // Sleeping partitions' deferred L2 energy is priced at the
            // memory voltage it was spent at.
            if (g.memDomain_.transitionPending() &&
                g.memDomain_.pendingAt() <= g.memDomain_.nextEdge())
                g.memSystem_.settle();
            g.memDomain_.advance();
            g.energy_.setDomainStates(g.smDomain_.state(),
                                      g.memDomain_.state());
            g.memSystem_.tick(g.memDomain_.cycle());
        } else {
            // Sleepers' lag is priced at the SM voltage it was spent at,
            // so credit it before a VF change applies at this edge.
            if (g.smDomain_.transitionPending() &&
                g.smDomain_.pendingAt() <= g.smDomain_.nextEdge())
                g.settleSms();
            g.smDomain_.advance();
            g.energy_.setDomainStates(g.smDomain_.state(),
                                      g.memDomain_.state());
            const Cycle mem_now = g.memDomain_.cycle();
            g.tickSms(mem_now);
            g.serviceTenants();
            g.distributeBlocks();
            if (g.controller_)
                g.controller_->onSmCycle(g);
            if (g.observer_)
                g.observer_(g);
            if (g.tracer_ && g.tracer_->epochBoundary(g.smDomain_.cycle()))
                g.traceEpoch(g.smDomain_.cycle());

            if (g.smDomain_.cycle() > g.run_.cycleLimit)
                panic("kernel '", g.currentKernelName_,
                      "' exceeded its cycle limit at SM cycle ",
                      g.smDomain_.cycle(), "; likely a deadlock");
        }
    }
}

void
SchedulerCore::run()
{
    while (step() != StepStatus::Drained) {
    }
}

RunMetrics
SchedulerCore::finish()
{
    return gpu_.finishRun();
}

bool
SchedulerCore::active() const
{
    return gpu_.run_.active;
}

} // namespace equalizer

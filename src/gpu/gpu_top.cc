#include "gpu_top.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/log.hh"
#include "gpu/scheduler_core.hh"

namespace equalizer
{

namespace
{

/**
 * Tick of the clock edge that brings @p domain from its current cycle
 * @p dom_now to cycle @p c (requires c > dom_now). noWakeup maps to the
 * far future without overflowing the multiply.
 */
Tick
edgeTickOf(const ClockDomain &domain, Cycle c, Cycle dom_now)
{
    if (c == noWakeup)
        return std::numeric_limits<Tick>::max();
    return domain.nextEdge() +
           static_cast<Tick>(c - dom_now - 1) * domain.period();
}

/** Number of @p domain edges that fire at ticks strictly before @p t. */
Cycle
edgesBefore(const ClockDomain &domain, Tick t)
{
    if (domain.nextEdge() >= t)
        return 0;
    return static_cast<Cycle>((t - 1 - domain.nextEdge()) /
                              domain.period()) +
           1;
}

} // namespace

GpuTop::GpuTop(GpuConfig cfg, PowerConfig power)
    : cfg_(cfg), energy_(power), smDomain_("sm", cfg.smNominalHz),
      memDomain_("mem", cfg.memNominalHz),
      memSystem_(cfg_.mem, cfg_.numSms, energy_)
{
    energy_.ensureSmShards(cfg_.numSms);
    for (int s = 0; s < cfg_.numSms; ++s)
        sms_.push_back(std::make_unique<StreamingMultiprocessor>(
            cfg_, s, memSystem_, energy_));
    energy_.setDomainStates(smDomain_.state(), memDomain_.state());
    smInvocation_.assign(static_cast<std::size_t>(cfg_.numSms), -1);
    configureTenants({});
}

void
GpuTop::tickSms(Cycle mem_now)
{
    // The parallel phase: SMs share no mutable state with each other
    // (each owns its warps, L1, LSU, injection/response queues and
    // energy shard), so they may tick concurrently. Everything after
    // this call runs on the calling thread — the epoch barrier.
    if (executor_ && executor_->threads() > 1) {
        executor_->parallelFor(numSms(), [this, mem_now](int s) {
            sms_[static_cast<std::size_t>(s)]->tick(mem_now);
        });
    } else {
        for (const auto &sm : sms_)
            sm->tick(mem_now);
    }
}

void
GpuTop::requestVfState(PowerDomain domain, VfState target)
{
    ClockDomain &d =
        domain == PowerDomain::Sm ? smDomain_ : memDomain_;
    if (d.state() == target && !d.transitionPending())
        return;
    const Tick delay = vrmTransitionSmCycles * smDomain_.period();
    d.scheduleState(target, d.nextEdge() + delay);
}

void
GpuTop::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (tracer_) {
        tracer_->attach(numSms());
        for (int s = 0; s < numSms(); ++s)
            sms_[static_cast<std::size_t>(s)]->setTraceRing(
                tracer_->ring(s));
        // Built-in device gauges, sampled once per tracer epoch.
        auto &g = tracer_->gauges();
        g.define("instructions");
        g.define("l1_hit_rate");
        g.define("l2_hit_rate");
        g.define("dram_accesses");
        g.define("mean_dram_queue_depth");
        defineTenantGauges();
    } else {
        for (const auto &sm : sms_)
            sm->setTraceRing(nullptr);
    }
}

void
GpuTop::defineTenantGauges()
{
    // Only explicitly configured tenants get gauges: the implicit
    // whole-device tenant must leave single-tenant traces byte-
    // identical to the pre-tenant format.
    if (!explicitTenants_)
        return;
    for (auto &t : tenants_) {
        t.setGaugeNames("tenant." + t.name() + ".dispatched_blocks",
                        "tenant." + t.name() + ".limiter_debt",
                        "tenant." + t.name() + ".occupancy_share");
        if (tracer_) {
            auto &g = tracer_->gauges();
            g.define(t.gaugeDispatched());
            g.define(t.gaugeDebt());
            g.define(t.gaugeShare());
        }
    }
}

void
GpuTop::traceEpoch(Cycle cycle)
{
    // Per-SM queue high-water marks, collected at the barrier where
    // nothing else runs (the counters are single-writer during the
    // parallel phase; reading them here is ordered by the join).
    std::uint64_t issued = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    for (int s = 0; s < numSms(); ++s) {
        auto &sm = *sms_[static_cast<std::size_t>(s)];
        tracer_->emit(makeSmEvent(
            TraceEventKind::HighWater, cycle, s,
            static_cast<std::int64_t>(sm.lsu().takeQueueHighWater()),
            static_cast<std::int64_t>(
                memSystem_.smInjectQueue(s).takeHighWater()),
            static_cast<std::int64_t>(sm.l1().takeMshrHighWater())));
        issued += sm.instructionsIssued();
        l1_hits += sm.l1().hits();
        l1_misses += sm.l1().misses();
    }

    auto &g = tracer_->gauges();
    g.set("instructions", static_cast<double>(issued));
    const std::uint64_t l1_total = l1_hits + l1_misses;
    g.set("l1_hit_rate", l1_total ? static_cast<double>(l1_hits) /
                                        static_cast<double>(l1_total)
                                  : 0.0);
    const std::uint64_t l2_total =
        memSystem_.l2Hits() + memSystem_.l2Misses();
    g.set("l2_hit_rate",
          l2_total ? static_cast<double>(memSystem_.l2Hits()) /
                         static_cast<double>(l2_total)
                   : 0.0);
    g.set("dram_accesses",
          static_cast<double>(memSystem_.dramAccesses()));
    g.set("mean_dram_queue_depth", memSystem_.meanDramQueueDepth());

    // Per-tenant attribution gauges (explicit tenants only, so the
    // single-tenant trace format is unchanged). Set here in the serial
    // barrier — the canonical drain keeps traces byte-identical across
    // thread counts.
    if (explicitTenants_) {
        for (const auto &t : tenants_) {
            g.set(t.gaugeDispatched(),
                  static_cast<double>(t.dispatchedBlocks()));
            g.set(t.gaugeDebt(), t.limiterDebt());
            g.set(t.gaugeShare(), t.occupancyShare());
        }
    }

    tracer_->drainEpoch(cycle);
}

void
GpuTop::setAllTargetBlocks(int target)
{
    for (const auto &sm : sms_)
        sm->setTargetBlocks(target);
}

void
GpuTop::clearPolicyHooks()
{
    for (const auto &sm : sms_) {
        sm->l1().setEvictionHook({});
        sm->l1().setMissHook({});
        sm->setMemIssueFilter({});
    }
}

void
GpuTop::configureTenants(const std::vector<TenantSpec> &specs,
                         PartitionPolicy policy)
{
    if (run_.active)
        fatal("configureTenants: not allowed while a run is in flight");
    if (pendingLaunches_ > 0)
        fatal("configureTenants: ", pendingLaunches_,
              " queued launch(es) pending; run or reset them first");

    tenants_.clear();
    invocations_.clear();
    std::fill(smInvocation_.begin(), smInvocation_.end(), -1);

    if (specs.empty()) {
        // The implicit whole-device tenant of the classic paths.
        std::vector<int> all(static_cast<std::size_t>(numSms()));
        std::iota(all.begin(), all.end(), 0);
        tenants_.emplace_back(0, TenantSpec{"default", 1.0},
                              std::move(all));
        explicitTenants_ = false;
        return;
    }

    const int nt = static_cast<int>(specs.size());
    if (nt > numSms())
        fatal("configureTenants: ", nt, " tenants but only ", numSms(),
              " SMs (partitions are exclusive)");

    std::vector<std::vector<int>> parts(static_cast<std::size_t>(nt));
    for (int s = 0; s < numSms(); ++s) {
        const int t = policy == PartitionPolicy::RoundRobin
                          ? s % nt
                          : std::min(nt - 1, s * nt / numSms());
        parts[static_cast<std::size_t>(t)].push_back(s);
    }

    for (int i = 0; i < nt; ++i) {
        TenantSpec spec = specs[static_cast<std::size_t>(i)];
        if (spec.name.empty())
            spec.name = "t" + std::to_string(i);
        if (!(spec.smLimit > 0.0) || spec.smLimit > 1.0)
            fatal("tenant '", spec.name, "': sm_limit must be in (0, 1]"
                  ", got ", spec.smLimit);
        tenants_.emplace_back(i, std::move(spec),
                              std::move(parts[static_cast<std::size_t>(
                                  i)]));
    }
    explicitTenants_ = true;
    defineTenantGauges();
}

void
GpuTop::enqueueKernel(int tenant, const KernelLaunch &kernel)
{
    if (tenant < 0 || tenant >= numTenants())
        fatal("enqueueKernel: no tenant ", tenant, " (have ",
              numTenants(), ")");
    tenants_[static_cast<std::size_t>(tenant)].enqueue(&kernel);
    ++pendingLaunches_;
}

std::uint64_t
GpuTop::instructionsOn(const std::vector<int> &sm_set) const
{
    std::uint64_t n = 0;
    for (int s : sm_set)
        n += sms_[static_cast<std::size_t>(s)]->instructionsIssued();
    return n;
}

std::uint64_t
GpuTop::blocksCompletedOn(const std::vector<int> &sm_set) const
{
    std::uint64_t n = 0;
    for (int s : sm_set)
        n += sms_[static_cast<std::size_t>(s)]->blocksCompleted();
    return n;
}

KernelInvocation &
GpuTop::makeInvocation(Tenant &tenant, const KernelLaunch &kernel)
{
    invocations_.emplace_back(tenant.id(), &kernel, tenant.smSet());
    KernelInvocation &inv = invocations_.back();
    const int idx = static_cast<int>(invocations_.size()) - 1;
    for (int s : inv.smSet()) {
        sms_[static_cast<std::size_t>(s)]->setKernel(&kernel);
        smInvocation_[static_cast<std::size_t>(s)] = idx;
    }
    return inv;
}

void
GpuTop::launchHooks(KernelInvocation &inv)
{
    inv.onLaunch(smDomain_.cycle(), instructionsOn(inv.smSet()),
                 blocksCompletedOn(inv.smSet()));
    if (controller_)
        controller_->onInvocationLaunch(*this, inv);
    if (tracer_)
        tracer_->emit(makeStringEvent(TraceEventKind::KernelBegin,
                                      smDomain_.cycle(),
                                      inv.name().c_str()));
}

void
GpuTop::distributeBlocks()
{
    // Breadth-first per invocation: one block per SM per sweep, so
    // small grids spread across the partition instead of piling onto
    // the first few SMs. Dispatch is gated by the owning tenant's
    // token bucket (tenant.hh); partitions are exclusive, so the
    // per-invocation order equals one sweep over the whole device.
    for (auto &inv : invocations_) {
        if (!inv.active() || !inv.gwde().hasBlocks())
            continue;
        Tenant &t = tenants_[static_cast<std::size_t>(inv.tenantId())];
        if (!t.canDispatch())
            continue;
        bool assigned = true;
        while (assigned && inv.gwde().hasBlocks()) {
            assigned = false;
            for (int s : inv.smSet()) {
                if (!inv.gwde().hasBlocks())
                    break;
                auto &sm = *sms_[static_cast<std::size_t>(s)];
                if (sm.wantsBlock()) {
                    sm.assignBlock(inv.gwde().takeBlock());
                    t.onDispatch();
                    assigned = true;
                }
            }
        }
    }
}

bool
GpuTop::allDone() const
{
    if (pendingLaunches_ > 0)
        return false;
    for (const auto &inv : invocations_)
        if (inv.active() && inv.gwde().hasBlocks())
            return false;
    for (const auto &sm : sms_)
        if (!sm->idle())
            return false;
    return true;
}

void
GpuTop::completeInvocation(KernelInvocation &inv)
{
    inv.onComplete(smDomain_.cycle(), instructionsOn(inv.smSet()),
                   blocksCompletedOn(inv.smSet()));
    for (int s : inv.smSet())
        smInvocation_[static_cast<std::size_t>(s)] = -1;
    if (tracer_)
        tracer_->emit(makeStringEvent(TraceEventKind::KernelEnd,
                                      smDomain_.cycle(),
                                      inv.name().c_str()));
}

void
GpuTop::serviceTenants()
{
    // Relaunch: the cycle an invocation's grid drains, its tenant's
    // next queued kernel takes over the partition. Checked before the
    // limiter step so a fresh grid's pending work is visible to it.
    if (pendingLaunches_ > 0) {
        for (std::size_t i = 0; i < invocations_.size(); ++i) {
            KernelInvocation &inv = invocations_[i];
            if (!inv.active() || inv.gwde().hasBlocks())
                continue;
            Tenant &t =
                tenants_[static_cast<std::size_t>(inv.tenantId())];
            if (t.queueEmpty())
                continue; // completion detected lazily by allDone()
            bool idle = true;
            for (int s : inv.smSet()) {
                if (!sms_[static_cast<std::size_t>(s)]->idle()) {
                    idle = false;
                    break;
                }
            }
            if (!idle)
                continue;
            completeInvocation(inv);
            const KernelLaunch *next = t.popQueue();
            --pendingLaunches_;
            // makeInvocation may reallocate invocations_; inv is dead
            // after this point.
            KernelInvocation &fresh = makeInvocation(t, *next);
            launchHooks(fresh);
        }
    }

    // Token-bucket limiter step for every tenant (busy accounting also
    // feeds the occupancy gauges and the fairness bench).
    if (explicitTenants_) {
        for (auto &t : tenants_) {
            int busy = 0;
            for (int s : t.smSet()) {
                if (sms_[static_cast<std::size_t>(s)]->residentBlocks() >
                    0)
                    ++busy;
            }
            bool pending = false;
            for (const auto &inv : invocations_) {
                if (inv.active() && inv.tenantId() == t.id() &&
                    inv.gwde().hasBlocks()) {
                    pending = true;
                    break;
                }
            }
            t.tickLimiter(busy, pending);
        }
    }
}

GpuTop::Snapshot
GpuTop::takeSnapshot() const
{
    Snapshot s;
    s.smCycles = smDomain_.cycle();
    s.memCycles = memDomain_.cycle();
    s.dynamicJoules = energy_.dynamicJoules();
    for (const auto &sm : sms_) {
        s.instructions += sm->instructionsIssued();
        s.outcomes += sm->outcomeTotals();
        s.l1Hits += sm->l1().hits();
        s.l1Misses += sm->l1().misses();
    }
    s.l2Hits = memSystem_.l2Hits();
    s.l2Misses = memSystem_.l2Misses();
    s.dramAccesses = memSystem_.dramAccesses();
    s.dramRowHits = memSystem_.dramRowHits();
    s.dramPoweredDownCycles = memSystem_.dramPoweredDownCycles();
    for (int i = 0; i < numVfStates; ++i) {
        const auto v = static_cast<VfState>(i);
        s.smResidency[static_cast<std::size_t>(i)] = smDomain_.residency(v);
        s.memResidency[static_cast<std::size_t>(i)] =
            memDomain_.residency(v);
    }
    return s;
}

void
GpuTop::beginRun(const std::string &label, Cycle max_sm_cycles)
{
    currentKernelName_ = label;
    run_.before = takeSnapshot();
    run_.cycleLimit = smDomain_.cycle() + max_sm_cycles;
    run_.active = true;
    ffAtRunStart_ = fastForwardedCycles_;
}

bool
GpuTop::tryFastForward(Cycle sm_stop)
{
    // A per-cycle observer may read (or mutate) anything; never skip
    // an edge it would have seen.
    if (observer_)
        return false;

    // Multi-tenant runs (explicit partitions, queued relaunches or
    // several in-flight invocations) take the slow path outright: the
    // limiter and relaunch logic act on arbitrary cycles.
    if (explicitTenants_ || pendingLaunches_ > 0 ||
        invocations_.size() != 1)
        return false;

    const Cycle sm_now = smDomain_.cycle();
    if (sm_now < ffBackoffUntil_)
        return false;
    // Deterministic backoff: a failed probe in a busy phase doubles the
    // re-probe distance (capped low — stall onsets must not be missed
    // by much). Purely a probe-cost throttle: skips are transparent, so
    // when the probe runs has no effect on any simulated quantity.
    const auto fail = [&] {
        ffBackoffUntil_ = sm_now + ffBackoff_;
        ffBackoff_ = std::min<Cycle>(ffBackoff_ * 2, 32);
        return false;
    };

    // The controller's next possible action bounds the span; the
    // default (0) is a standing veto for policies without the hook.
    const Cycle ctrl_bound =
        controller_ ? controller_->nextActionCycle(*this, sm_now)
                    : noWakeup;
    if (ctrl_bound <= sm_now)
        return fail();

    // Per-SM stall probes in fixed index order, so the decision (and
    // the min-reduce below) is identical at any threads= setting.
    Cycle sm_wakeup = noWakeup;
    for (int s = 0; s < numSms(); ++s) {
        const auto chk = sms_[static_cast<std::size_t>(s)]->checkStalled();
        if (!chk.skippable)
            return fail();
        if (chk.wakeup <= sm_now)
            fatal("fast path: SM ", s, " reported stall wakeup ",
                  chk.wakeup, " at cycle ", sm_now,
                  " (not in the future); rerun with fast_path=0 and "
                  "diff traces — see docs/FAST_PATH.md");
        sm_wakeup = std::min(sm_wakeup, chk.wakeup);
    }

    // Safety net: pending work the barrier phase would distribute means
    // the machine is not quiescent. (Normally unreachable — the last
    // distributeBlocks() already satisfied every willing SM.)
    const KernelInvocation &inv = invocations_.front();
    if (inv.active() && inv.gwde().hasBlocks())
        for (const auto &sm : sms_)
            if (sm->wantsBlock())
                return fail();

    const Cycle mem_now = memDomain_.cycle();
    const Cycle mem_ev = memSystem_.nextEventCycle(mem_now);
    if (mem_ev <= mem_now)
        return fail(); // hard veto: a matured response awaits an SM tick

    Cycle sm_bound = std::min(sm_wakeup, ctrl_bound);
    if (tracer_ && tracer_->attached()) {
        const Cycle e = tracer_->epochCycles();
        sm_bound = std::min(sm_bound, (sm_now / e + 1) * e);
    }
    // The edge after the limit must run slowly so the panic fires.
    sm_bound = std::min(sm_bound, run_.cycleLimit + 1);
    // A bounded step() pauses once its quantum boundary is reached, so
    // a skip may land exactly on it but never beyond. (sm_stop !=
    // noWakeup, so the + 1 cannot wrap.)
    if (sm_stop != noWakeup)
        sm_bound = std::min(sm_bound, sm_stop + 1);

    // Convert both bounds to global time and skip every edge strictly
    // before the earliest, leaving that edge for the slow path. VF
    // transitions apply on an edge at-or-after their due tick, so
    // clamping to the due tick keeps the span transition-free.
    Tick tstar = std::min(edgeTickOf(smDomain_, sm_bound, sm_now),
                          edgeTickOf(memDomain_, mem_ev, mem_now));
    if (smDomain_.transitionPending())
        tstar = std::min(tstar, smDomain_.pendingAt());
    if (memDomain_.transitionPending())
        tstar = std::min(tstar, memDomain_.pendingAt());

    const Cycle n_mem = edgesBefore(memDomain_, tstar);
    const Cycle n_sm = edgesBefore(smDomain_, tstar);
    if (n_mem == 0 && n_sm == 0)
        return fail();

    memDomain_.advanceCycles(n_mem);
    memSystem_.skipCycles(mem_now, n_mem);
    smDomain_.advanceCycles(n_sm);
    if (n_sm > 0)
        for (const auto &sm : sms_)
            sm->skipCycles(n_sm);
    fastForwardedCycles_ += n_sm;
    ffBackoff_ = 1;
    ffBackoffUntil_ = 0;
    return true;
}

RunMetrics
GpuTop::finishRun()
{
    if (controller_)
        controller_->onKernelComplete(*this);

    // Close out invocations still open — the common case: the final
    // invocation's completion is detected lazily by allDone(), so its
    // KernelEnd lands here, after the controller's completion hook.
    for (auto &inv : invocations_)
        if (inv.active())
            completeInvocation(inv);

    if (tracer_)
        tracer_->drainRings(smDomain_.cycle());

    const Snapshot before = run_.before;
    const Snapshot after = takeSnapshot();
    run_.active = false;

    RunMetrics m;
    m.kernel = currentKernelName_;
    m.smCycles = after.smCycles - before.smCycles;
    m.memCycles = after.memCycles - before.memCycles;
    m.instructions = after.instructions - before.instructions;
    m.dynamicJoules = after.dynamicJoules - before.dynamicJoules;

    std::array<Tick, numVfStates> sm_res{};
    std::array<Tick, numVfStates> mem_res{};
    Tick elapsed = 0;
    for (std::size_t i = 0; i < numVfStates; ++i) {
        sm_res[i] = after.smResidency[i] - before.smResidency[i];
        mem_res[i] = after.memResidency[i] - before.memResidency[i];
        elapsed += sm_res[i];
    }
    m.smResidency = sm_res;
    m.memResidency = mem_res;
    m.seconds = static_cast<double>(elapsed) /
                static_cast<double>(ticksPerSecond);

    const std::uint64_t pd_cycles =
        after.dramPoweredDownCycles - before.dramPoweredDownCycles;
    const std::uint64_t partition_cycles =
        (after.memCycles - before.memCycles) *
        static_cast<std::uint64_t>(memSystem_.numPartitions());
    m.dramPowerDownFraction =
        partition_cycles
            ? static_cast<double>(pd_cycles) /
                  static_cast<double>(partition_cycles)
            : 0.0;
    m.staticJoules = energy_.staticJoules(sm_res, mem_res,
                                          m.dramPowerDownFraction);

    m.outcomeTotals = after.outcomes;
    m.outcomeTotals.active -= before.outcomes.active;
    m.outcomeTotals.waiting -= before.outcomes.waiting;
    m.outcomeTotals.issued -= before.outcomes.issued;
    m.outcomeTotals.excessAlu -= before.outcomes.excessAlu;
    m.outcomeTotals.excessMem -= before.outcomes.excessMem;
    m.outcomeTotals.barrier -= before.outcomes.barrier;
    m.outcomeTotals.unaccounted -= before.outcomes.unaccounted;
    m.outcomeCycles = (after.smCycles - before.smCycles) *
                      static_cast<std::uint64_t>(numSms());

    m.l1Hits = after.l1Hits - before.l1Hits;
    m.l1Misses = after.l1Misses - before.l1Misses;
    m.l2Hits = after.l2Hits - before.l2Hits;
    m.l2Misses = after.l2Misses - before.l2Misses;
    m.dramAccesses = after.dramAccesses - before.dramAccesses;
    m.dramRowHits = after.dramRowHits - before.dramRowHits;
    m.fastForwardedCycles = fastForwardedCycles_ - ffAtRunStart_;
    return m;
}

RunMetrics
GpuTop::runKernel(const KernelLaunch &kernel, Cycle max_sm_cycles)
{
    SchedulerCore core(*this);
    core.launchKernel(kernel, max_sm_cycles);
    core.run();
    return core.finish();
}

RunMetrics
GpuTop::runTenants(Cycle max_sm_cycles, const std::string &label)
{
    SchedulerCore core(*this);
    core.launchTenants(max_sm_cycles, label);
    core.run();
    return core.finish();
}

RunMetrics
GpuTop::resumeKernel(const KernelLaunch &kernel)
{
    SchedulerCore core(*this);
    core.adoptResumedKernel(kernel);
    core.run();
    return core.finish();
}

RunMetrics
GpuTop::resumeTenants(const std::vector<const KernelLaunch *> &kernels)
{
    SchedulerCore core(*this);
    core.adoptResumedTenants(kernels);
    core.run();
    return core.finish();
}

void
GpuTop::rebuildSmInvocationMap()
{
    std::fill(smInvocation_.begin(), smInvocation_.end(), -1);
    for (std::size_t i = 0; i < invocations_.size(); ++i) {
        if (!invocations_[i].active())
            continue;
        for (int s : invocations_[i].smSet())
            smInvocation_[static_cast<std::size_t>(s)] =
                static_cast<int>(i);
    }
}

void
GpuTop::visitState(StateVisitor &v, ControllerMismatch on_mismatch)
{
    v.beginSection("gpu", 2);
    v.field(smDomain_);
    v.field(memDomain_);
    v.field(energy_);
    v.field(memSystem_);
    for (const auto &sm : sms_)
        v.field(*sm);

    // v2: tenants and first-class invocations replace the former
    // device-global work-distribution cursor, so a checkpoint taken
    // mid-co-run carries every in-flight grid (docs/MULTI_TENANT.md).
    std::uint64_t n_tenants = tenants_.size();
    v.field(n_tenants);
    if (!v.saving())
        tenants_.assign(static_cast<std::size_t>(n_tenants), Tenant{});
    for (auto &t : tenants_)
        t.visitState(v);
    v.field(explicitTenants_);

    std::uint64_t n_inv = invocations_.size();
    v.field(n_inv);
    if (!v.saving())
        invocations_.assign(static_cast<std::size_t>(n_inv),
                            KernelInvocation{});
    for (auto &inv : invocations_)
        inv.visitState(v);

    v.field(run_.active);
    v.field(run_.before);
    v.field(run_.cycleLimit);
    v.field(currentKernelName_);
    if (!v.saving()) {
        rebuildSmInvocationMap();
        pendingLaunches_ = 0;
        for (const auto &t : tenants_)
            pendingLaunches_ += t.queueSize();
        defineTenantGauges();
    }

    // Controller state is tagged with the policy name so a restore can
    // tell whether the stored state belongs to the live controller.
    v.beginSection("ctrl", 1);
    std::string stored = controller_ ? controller_->name() : "";
    v.field(stored);
    if (v.saving()) {
        if (controller_)
            controller_->visitControllerState(v, *this);
    } else {
        const std::string live = controller_ ? controller_->name() : "";
        if (stored == live) {
            if (controller_)
                controller_->visitControllerState(v, *this);
        } else if (on_mismatch == ControllerMismatch::Fatal) {
            fatal("checkpoint carries state of controller '", stored,
                  "' but this instance runs '", live,
                  "'; use the same policy (or fork, which drops it)");
        } else {
            v.skipRemainingSection();
        }
    }
    v.endSection();

    v.endSection();
}

std::vector<std::uint8_t>
GpuTop::saveStateBuffer() const
{
    // Serialization through the visitor only reads when saving; the
    // const_cast lets one visitState() serve both directions.
    auto &self = const_cast<GpuTop &>(*this);
    BufferStateWriter w(configFingerprint(cfg_, energy_.config()));
    self.visitState(w, ControllerMismatch::Fatal);

    // Complete the trace prefix: drain buffered SM events, then mark
    // the save point so a resumed run's suffix trace concatenates onto
    // this one (docs/TRACING.md).
    if (tracer_ && tracer_->attached()) {
        tracer_->drainRings(smDomain_.cycle());
        tracer_->emit(makeDeviceEvent(TraceEventKind::Checkpoint,
                                      smDomain_.cycle()));
    }
    return w.take();
}

void
GpuTop::loadStateBuffer(const std::vector<std::uint8_t> &buf,
                        ControllerMismatch on_mismatch)
{
    // Events recorded before the restore belong to the abandoned
    // timeline; push them out before the clock jumps.
    if (tracer_ && tracer_->attached())
        tracer_->drainRings(smDomain_.cycle());

    BufferStateReader r(buf, configFingerprint(cfg_, energy_.config()));
    visitState(r, on_mismatch);
    r.finish();

    if (tracer_)
        tracer_->emit(makeDeviceEvent(TraceEventKind::Restore,
                                      smDomain_.cycle()));
}

void
GpuTop::saveCheckpoint(const std::string &path) const
{
    writeCheckpointFile(path, saveStateBuffer());
}

void
GpuTop::loadCheckpoint(const std::string &path)
{
    loadStateBuffer(readCheckpointFile(path), ControllerMismatch::Fatal);
}

void
GpuTop::forkFrom(const GpuTop &parent)
{
    loadStateBuffer(parent.saveStateBuffer(), ControllerMismatch::Drop);
    if (tracer_)
        tracer_->emit(makeDeviceEvent(TraceEventKind::Fork,
                                      smDomain_.cycle()));
}

} // namespace equalizer

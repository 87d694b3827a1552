#include "gpu_top.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"
#include "gpu/scheduler_core.hh"

namespace equalizer
{

GpuTop::GpuTop(GpuConfig cfg, PowerConfig power)
    : cfg_(cfg), energy_(power), smDomain_("sm", cfg.smNominalHz),
      memDomain_("mem", cfg.memNominalHz),
      memSystem_(cfg_.mem, cfg_.numSms, energy_)
{
    if (cfg_.maxWarpsPerSm > StreamingMultiprocessor::maxWarpSlots)
        fatal("maxWarpsPerSm = ", cfg_.maxWarpsPerSm, ": an SM holds at "
              "most ", StreamingMultiprocessor::maxWarpSlots,
              " warp slots (one bit each in its warp-state masks)");
    energy_.ensureSmShards(cfg_.numSms);
    wakeAt_.assign(static_cast<std::size_t>(cfg_.numSms), 0);
    for (int s = 0; s < cfg_.numSms; ++s) {
        sms_.push_back(std::make_unique<StreamingMultiprocessor>(
            cfg_, s, memSystem_, energy_));
        sms_.back()->attachSleep(&smDomain_,
                                 &wakeAt_[static_cast<std::size_t>(s)]);
    }
    // The pop frees room the sleeping SM's LSU is blocked on: its slept
    // cycles were blocked retries, so settle them before the pop.
    memSystem_.setFullPopHook([this](SmId s) {
        sms_[static_cast<std::size_t>(s)]->wake();
    });
    memSystem_.setPartitionSleep(cfg_.fastPath);
    energy_.setDomainStates(smDomain_.state(), memDomain_.state());
    smInvocation_.assign(static_cast<std::size_t>(cfg_.numSms), -1);
    configureTenants({});
}

void
GpuTop::tickSms(Cycle mem_now)
{
    const Cycle now = smDomain_.cycle();
    auto due = [this, now, mem_now](int s) {
        return wakeAt_[static_cast<std::size_t>(s)] <= now ||
               memSystem_.responseReadyAt(s) <= mem_now;
    };
    const bool may_sleep = cfg_.fastPath && !observer_;
    auto tick = [this, now, mem_now, may_sleep](int s) {
        auto &sm = *sms_[static_cast<std::size_t>(s)];
        sm.settle(now - 1);
        sm.tick(mem_now);
        wakeAt_[static_cast<std::size_t>(s)] =
            may_sleep ? sm.sleepWakeup() : 0;
    };

    std::size_t ticked = 0;
    for (int s = 0; s < numSms(); ++s) {
        if (due(s)) {
            ++ticked;
            tick(s);
        }
    }
    smTicks_ += ticked;

    // Every SM asleep. Counted only while one invocation has the whole
    // device, so a co-run reads 0 with or without a cycle observer
    // (which keeps every SM awake) and its metrics compare equal.
    if (ticked == 0 && !explicitTenants_ && pendingLaunches_ == 0 &&
        invocations_.size() == 1)
        ++fastForwardedCycles_;
}

void
GpuTop::settleSms()
{
    for (const auto &sm : sms_)
        sm->settle(smDomain_.cycle());
    memSystem_.settle();
}

void
GpuTop::setCycleObserver(std::function<void(GpuTop &)> observer)
{
    for (const auto &sm : sms_)
        sm->wake();
    observer_ = std::move(observer);
    memSystem_.setPartitionSleep(cfg_.fastPath && !observer_);
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
    // Per-SM queue high-water marks, collected after the SMs tick.
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
    // single-tenant trace format is unchanged).
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
        if (spec.name.empty()) {
            // Built by append: gcc 12's -Wrestrict misfires on the
            // inlined copy of "t" + to_string(i).
            spec.name.assign(1, 't').append(std::to_string(i));
        }
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
GpuTop::takeSnapshot()
{
    settleSms();
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
    ticksAtRunStart_ = smTicks_;
    partitionTicksAtRunStart_ = memSystem_.partitionTicks();
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
    m.smTicks = smTicks_ - ticksAtRunStart_;
    m.partitionTicks =
        memSystem_.partitionTicks() - partitionTicksAtRunStart_;
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
    // Lazily credited memory-side energy must be in the energy section,
    // which is written before the memory system.
    if (v.saving())
        memSystem_.settle();
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
    const std::size_t n_tenants =
        v.count(tenants_.size(), minSectionBytes);
    if (!v.saving())
        tenants_.assign(n_tenants, Tenant{});
    for (auto &t : tenants_)
        t.visitState(v);
    v.field(explicitTenants_);

    const std::size_t n_inv = v.count(invocations_.size(), minSectionBytes);
    if (!v.saving())
        invocations_.assign(n_inv, KernelInvocation{});
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

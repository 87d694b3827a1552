#include "equalizer.hh"

#include "gpu/gpu_top.hh"

namespace equalizer
{

EqualizerEngine::EqualizerEngine(EqualizerConfig cfg) : cfg_(cfg)
{
}

std::string
EqualizerEngine::name() const
{
    return cfg_.mode == EqualizerMode::Energy ? "equalizer-energy"
                                              : "equalizer-perf";
}

void
EqualizerEngine::onKernelLaunch(GpuTop &gpu)
{
    const int n = gpu.numSms();
    if (static_cast<int>(samplers_.size()) != n) {
        samplers_.assign(static_cast<std::size_t>(n), WarpStateSampler{});
        pendingDir_.assign(static_cast<std::size_t>(n), 0);
        pendingCount_.assign(static_cast<std::size_t>(n), 0);
        rememberedTargets_.assign(static_cast<std::size_t>(n), -1);
        lastKernelPerSm_.assign(static_cast<std::size_t>(n),
                                std::string{});
        freqMgr_ = std::make_unique<FrequencyManager>(n);
    }
}

void
EqualizerEngine::onInvocationLaunch(GpuTop &gpu,
                                    const KernelInvocation &inv)
{
    // Per-SM reset, scoped to the invocation's partition so a tenant's
    // relaunch does not disturb co-resident tenants mid-epoch.
    for (int i : inv.smSet()) {
        samplers_[static_cast<std::size_t>(i)].reset();
        pendingDir_[static_cast<std::size_t>(i)] = 0;
        pendingCount_[static_cast<std::size_t>(i)] = 0;
        // A new invocation of the same kernel inherits the adapted block
        // target (paper Fig 11a); a different kernel starts at maximum.
        const bool same_kernel =
            inv.name() == lastKernelPerSm_[static_cast<std::size_t>(i)];
        lastKernelPerSm_[static_cast<std::size_t>(i)] = inv.name();
        if (same_kernel &&
            rememberedTargets_[static_cast<std::size_t>(i)] > 0) {
            gpu.sm(i).setTargetBlocks(
                rememberedTargets_[static_cast<std::size_t>(i)]);
        } else {
            rememberedTargets_[static_cast<std::size_t>(i)] = -1;
        }
    }
}

void
EqualizerEngine::visitControllerState(StateVisitor &v, GpuTop &)
{
    // v2: lastKernel_ (one device-wide name) became lastKernelPerSm_.
    // v3: samplers are written field by field (no padding bytes).
    v.beginSection("equalizer", 3);
    v.field(samplers_);
    v.field(pendingDir_);
    v.field(pendingCount_);
    v.field(rememberedTargets_);
    v.field(lastKernelPerSm_);
    bool has_mgr = freqMgr_ != nullptr;
    v.field(has_mgr);
    if (!v.saving()) {
        // onKernelLaunch sizes the vote vectors; 0 is a placeholder
        // that visitState immediately overwrites.
        freqMgr_ = has_mgr ? std::make_unique<FrequencyManager>(0)
                           : nullptr;
    }
    if (freqMgr_)
        freqMgr_->visitState(v);
    v.field(epochs_);
    v.field(blockChanges_);
    v.endSection();
}

void
EqualizerEngine::onSmCycle(GpuTop &gpu)
{
    const Cycle c = gpu.smDomain().cycle();
    if (c % cfg_.sampleInterval == 0) {
        for (int i = 0; i < gpu.numSms(); ++i)
            samplers_[static_cast<std::size_t>(i)].accumulate(
                gpu.sm(i).sampleStates());
    }
    if (c % cfg_.epochCycles == 0)
        endEpoch(gpu);
}

void
EqualizerEngine::endEpoch(GpuTop &gpu)
{
    ++epochs_;
    const int n = gpu.numSms();
    Tracer *tracer = gpu.tracer();

    EqualizerEpochRecord rec;
    rec.cycle = gpu.smDomain().cycle();
    Tendency first_tendency = Tendency::Degenerate;

    for (int i = 0; i < n; ++i) {
        auto &sampler = samplers_[static_cast<std::size_t>(i)];
        const EpochCounters avg = sampler.average();
        sampler.reset();

        auto &sm = gpu.sm(i);
        DecisionInputs in;
        in.counters = avg;
        in.wCta = sm.warpsPerBlock();
        in.numBlocks = sm.targetBlocks();
        in.maxBlocks = sm.blockSlotCount();
        in.memSaturationThreshold = cfg_.memSaturationThreshold;
        const Decision d = decide(in);
        if (i == 0)
            first_tendency = d.tendency;

        // --- Block-count hysteresis (paper IV-B): act only after
        // `hysteresis` consecutive epochs agree on the same change.
        auto &dir = pendingDir_[static_cast<std::size_t>(i)];
        auto &count = pendingCount_[static_cast<std::size_t>(i)];
        if (d.blockDelta != 0 && d.blockDelta == dir) {
            ++count;
        } else {
            dir = d.blockDelta;
            count = d.blockDelta != 0 ? 1 : 0;
        }
        const int old_target = sm.targetBlocks();
        if (d.blockDelta != 0 && count >= cfg_.hysteresis) {
            sm.setTargetBlocks(sm.targetBlocks() + d.blockDelta);
            ++blockChanges_;
            dir = 0;
            count = 0;
        }
        rememberedTargets_[static_cast<std::size_t>(i)] =
            sm.targetBlocks();

        // --- VF preference under the current objective.
        const VfTargets t =
            applyObjective(d, cfg_.mode, gpu.smDomain().state(),
                           gpu.memDomain().state());
        freqMgr_->submit(i, t.sm, t.mem);

        if (tracer) {
            tracer->emit(makeSampleEvent(TraceEventKind::EpochSample,
                                         rec.cycle, i, avg.nActive,
                                         avg.nWaiting, avg.nAlu,
                                         avg.nMem));
            tracer->emit(makeSmEvent(
                TraceEventKind::Tendency, rec.cycle, i,
                static_cast<std::int64_t>(d.tendency), d.blockDelta,
                sm.targetBlocks()));
            if (sm.targetBlocks() != old_target)
                tracer->emit(makeSmEvent(TraceEventKind::BlockTarget,
                                         rec.cycle, i,
                                         sm.targetBlocks(),
                                         old_target));
            tracer->emit(makeSmEvent(
                TraceEventKind::VfVote, rec.cycle, i,
                static_cast<std::int64_t>(t.sm),
                static_cast<std::int64_t>(t.mem)));
        }

        rec.meanCounters.nActive += avg.nActive / n;
        rec.meanCounters.nWaiting += avg.nWaiting / n;
        rec.meanCounters.nAlu += avg.nAlu / n;
        rec.meanCounters.nMem += avg.nMem / n;
        rec.meanTargetBlocks +=
            static_cast<double>(sm.targetBlocks()) / n;
        rec.meanUnpausedWarps +=
            static_cast<double>(sm.unpausedBlocks() * sm.warpsPerBlock()) /
            n;
    }

    freqMgr_->resolve(gpu);

    if (trace_) {
        rec.tendency = first_tendency;
        rec.smState = gpu.smDomain().state();
        rec.memState = gpu.memDomain().state();
        trace_(rec);
    }
}

} // namespace equalizer

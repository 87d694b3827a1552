#include "ccws.hh"

#include <algorithm>
#include <numeric>

#include "gpu/gpu_top.hh"

namespace equalizer
{

std::unique_ptr<Ccws::SmState>
Ccws::buildSmState(GpuTop &gpu, int i) const
{
    auto st = std::make_unique<SmState>();
    auto &sm = gpu.sm(i);
    const int warps = sm.blockSlotCount() * sm.warpsPerBlock();
    for (int w = 0; w < warps; ++w)
        st->vta.push_back(
            std::make_unique<TagArray>(cfg_.vtaSets, cfg_.vtaWays));
    st->score.assign(static_cast<std::size_t>(warps), cfg_.baseScore);
    st->allowed.assign(static_cast<std::size_t>(warps), true);
    return st;
}

void
Ccws::buildStates(GpuTop &gpu)
{
    sms_.clear();
    for (int i = 0; i < gpu.numSms(); ++i)
        sms_.push_back(buildSmState(gpu, i));
}

void
Ccws::installHooksFor(GpuTop &gpu, int i)
{
    auto &sm = gpu.sm(i);
    SmState *raw = sms_[static_cast<std::size_t>(i)].get();

    // Evicted lines are remembered in the owner warp's VTA.
    sm.l1().setEvictionHook([raw](Addr line, int owner) {
        if (owner >= 0 && owner < static_cast<int>(raw->vta.size())) {
            raw->vta[static_cast<std::size_t>(owner)]->insert(line,
                                                              owner);
        }
    });

    // A miss hitting the warp's own VTA is lost intra-warp locality.
    sm.l1().setMissHook([this, raw](WarpId warp, Addr line) {
        if (warp < 0 || warp >= static_cast<int>(raw->vta.size()))
            return;
        auto &vta = *raw->vta[static_cast<std::size_t>(warp)];
        if (vta.lookup(line)) {
            vta.invalidate(line);
            auto &s = raw->score[static_cast<std::size_t>(warp)];
            s = std::min(cfg_.maxScore, s + cfg_.vtaHitGain);
            ++lostEvents_;
        }
    });

    sm.setMemIssueFilter([raw](WarpId warp) {
        return warp < static_cast<int>(raw->allowed.size()) &&
               raw->allowed[static_cast<std::size_t>(warp)];
    });
}

void
Ccws::installHooks(GpuTop &gpu)
{
    for (int i = 0; i < gpu.numSms(); ++i)
        installHooksFor(gpu, i);
}

void
Ccws::onKernelLaunch(GpuTop &gpu)
{
    buildStates(gpu);
    installHooks(gpu);
}

void
Ccws::onInvocationLaunch(GpuTop &gpu, const KernelInvocation &inv)
{
    // Scoring state is per-kernel (VTA geometry follows the kernel's
    // warp layout): a relaunch rebuilds only the invocation's SMs, so
    // co-resident tenants keep their scores and victim tags.
    for (int i : inv.smSet()) {
        sms_[static_cast<std::size_t>(i)] = buildSmState(gpu, i);
        installHooksFor(gpu, i);
    }
}

void
Ccws::visitControllerState(StateVisitor &v, GpuTop &gpu)
{
    // v2: victim-tag lines carry a dirty bit. v3: victim-tag lines have
    // no padding bytes.
    v.beginSection("ccws", 3);
    if (!v.saving()) {
        // Rebuild the per-SM structures to the restored GPU's geometry
        // (and re-install the hooks, which are never serialized), then
        // overwrite their contents from the checkpoint.
        buildStates(gpu);
        installHooks(gpu);
    }
    v.field(lostEvents_);
    const std::uint64_t n = sms_.size();
    v.expectMatch(n, "ccws per-SM state count");
    for (auto &st : sms_) {
        const std::uint64_t warps = st->vta.size();
        v.expectMatch(warps, "ccws per-warp VTA count");
        for (auto &vta : st->vta)
            vta->visitState(v);
        v.field(st->score);
        v.field(st->allowed);
    }
    v.endSection();
}

void
Ccws::recomputeAllowed(SmState &st)
{
    const std::size_t n = st.score.size();
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&st](int a, int b) {
        return st.score[static_cast<std::size_t>(a)] >
               st.score[static_cast<std::size_t>(b)];
    });

    // Warps claim budget in score order; high scorers crowd out the
    // tail, throttling exactly the warps with the least locality claim.
    const double budget = cfg_.baseScore * static_cast<double>(n);
    double used = 0.0;
    int granted = 0;
    std::fill(st.allowed.begin(), st.allowed.end(), false);
    for (int w : order) {
        const double s = st.score[static_cast<std::size_t>(w)];
        if (granted >= cfg_.minAllowedWarps && used + s > budget)
            break;
        st.allowed[static_cast<std::size_t>(w)] = true;
        used += s;
        ++granted;
    }
}

void
Ccws::onSmCycle(GpuTop &gpu)
{
    const Cycle c = gpu.smDomain().cycle();
    if (c % cfg_.updateInterval != 0)
        return;

    const double decay = cfg_.decayPerKilocycle *
                         static_cast<double>(cfg_.updateInterval) / 1000.0;
    for (int i = 0; i < gpu.numSms(); ++i) {
        auto &st = *sms_[static_cast<std::size_t>(i)];
        for (auto &s : st.score)
            s = std::max(cfg_.baseScore, s - decay);
        recomputeAllowed(st);
    }

    // Live metrics: how hard CCWS is throttling, device-wide.
    if (Tracer *tracer = gpu.tracer()) {
        int allowed = 0;
        for (int i = 0; i < gpu.numSms(); ++i)
            allowed += allowedWarps(i);
        tracer->gauges().set("ccws_allowed_warps",
                             static_cast<double>(allowed));
        tracer->gauges().set("ccws_lost_locality_events",
                             static_cast<double>(lostEvents_));
    }
}

int
Ccws::allowedWarps(int sm) const
{
    const auto &st = *sms_[static_cast<std::size_t>(sm)];
    int n = 0;
    for (bool a : st.allowed)
        n += a ? 1 : 0;
    return n;
}

} // namespace equalizer

/**
 * @file
 * Multi-tenant residency: a Tenant owns an exclusive SM partition, a
 * queue of kernel launches, and a token-bucket SM-utilization limiter
 * in the spirit of HAMi-core's CUDA_DEVICE_SM_LIMIT throttle
 * (docs/MULTI_TENANT.md).
 */

#ifndef EQ_GPU_TENANT_HH
#define EQ_GPU_TENANT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/kernel_launch.hh"
#include "sim/state.hh"

namespace equalizer
{

/** How GpuTop::configureTenants carves SMs into exclusive sets. */
enum class PartitionPolicy
{
    /** SM i belongs to tenant i % T. */
    RoundRobin,
    /** Contiguous stripes: tenant t gets SMs [t*N/T, (t+1)*N/T). */
    Blocked,
};

/** Parse "rr"/"round-robin" or "blocked"; fatal() otherwise. */
PartitionPolicy partitionPolicyFromName(const std::string &name);

/** Knob-level name of @p policy ("rr" or "blocked"). */
const char *partitionPolicyName(PartitionPolicy policy);

/** Declarative description of one tenant (knob-level input). */
struct TenantSpec
{
    std::string name;

    /**
     * Long-run fraction of the tenant's SM partition it may keep busy,
     * in (0, 1]. 1.0 disables the limiter.
     */
    double smLimit = 1.0;
};

/**
 * Cycles of fully-limited inflow the bucket may bank while idle. Keeps
 * launch bursts bounded: after a long idle period a limited tenant can
 * run at most this many cycles at full occupancy before the limiter
 * engages.
 */
inline constexpr double tenantLimiterBurstCycles = 256.0;

/**
 * One tenant: an SM partition, a FIFO of pending launches, and the
 * dispatch limiter.
 *
 * Limiter math (docs/MULTI_TENANT.md): every SM cycle the bucket gains
 * `smLimit * |sms|` tokens and pays one token per owned SM that holds
 * at least one resident block. Block dispatch is gated on a
 * non-negative balance, so over any long window the busy-SM-cycle
 * fraction converges to smLimit: the balance is bounded above by the
 * burst cap and below by the deepest debt one grant can incur, so
 * average inflow must equal average spend. Everything is deterministic
 * and serialized, so limited co-runs checkpoint and stay bit-identical
 * across thread counts.
 */
class Tenant
{
  public:
    Tenant() = default;

    Tenant(int id, TenantSpec spec, std::vector<int> sm_set)
        : id_(id), spec_(std::move(spec)), sms_(std::move(sm_set))
    {
    }

    int id() const { return id_; }
    const std::string &name() const { return spec_.name; }
    double smLimit() const { return spec_.smLimit; }
    const std::vector<int> &smSet() const { return sms_; }

    /** True when the utilization limiter is engaged at all. */
    bool limited() const { return spec_.smLimit < 1.0; }

    /** May the GWDE hand this tenant's invocations a block now? */
    bool canDispatch() const { return !limited() || tokens_ >= 0.0; }

    /** Account one dispatched block. */
    void onDispatch() { ++dispatchedBlocks_; }

    /**
     * One SM-cycle limiter step: @p busy_sms owned SMs held resident
     * blocks this cycle; @p work_pending is whether an invocation of
     * this tenant still has undistributed blocks.
     */
    void
    tickLimiter(int busy_sms, bool work_pending)
    {
        ++elapsedCycles_;
        busySmCycles_ += static_cast<std::uint64_t>(busy_sms);
        if (!limited())
            return;
        const double owned = static_cast<double>(sms_.size());
        tokens_ += spec_.smLimit * owned - static_cast<double>(busy_sms);
        const double cap =
            tenantLimiterBurstCycles * spec_.smLimit * owned;
        if (tokens_ > cap)
            tokens_ = cap;
        if (work_pending && tokens_ < 0.0)
            ++limitedCycles_;
    }

    // --- Launch queue (FIFO; the head becomes the next invocation).
    void
    enqueue(const KernelLaunch *launch)
    {
        queue_.push_back({launch, launch->info().name});
    }

    bool queueEmpty() const { return queue_.empty(); }
    std::size_t queueSize() const { return queue_.size(); }

    /** Pop the next pending launch; queueEmpty() must not hold. */
    const KernelLaunch *
    popQueue()
    {
        const KernelLaunch *k = queue_.front().launch;
        queue_.pop_front();
        return k;
    }

    /** Names of the queued launches (restore-time rebinding). */
    std::vector<std::string> queuedNames() const;

    /** Re-attach queued launches after a restore (matched by name). */
    void rebindQueue(const std::vector<const KernelLaunch *> &launches);

    // --- Accounting (gauges, bench fairness, reports).
    std::uint64_t dispatchedBlocks() const { return dispatchedBlocks_; }
    std::uint64_t busySmCycles() const { return busySmCycles_; }
    std::uint64_t limitedCycles() const { return limitedCycles_; }
    std::uint64_t elapsedCycles() const { return elapsedCycles_; }

    /** Unserved spend when over-budget (0 while in credit). */
    double limiterDebt() const { return tokens_ < 0.0 ? -tokens_ : 0.0; }

    /** Busy fraction of the partition's SM-cycles so far. */
    double
    occupancyShare() const
    {
        const std::uint64_t denom =
            elapsedCycles_ * static_cast<std::uint64_t>(sms_.size());
        return denom ? static_cast<double>(busySmCycles_) /
                           static_cast<double>(denom)
                     : 0.0;
    }

    // --- Gauge identities (set by GpuTop::configureTenants).
    const std::string &gaugeDispatched() const { return gaugeDispatched_; }
    const std::string &gaugeDebt() const { return gaugeDebt_; }
    const std::string &gaugeShare() const { return gaugeShare_; }
    void setGaugeNames(std::string dispatched, std::string debt,
                       std::string share);

    void visitState(StateVisitor &v);

  private:
    /** A queued launch plus its serializable identity. */
    struct Pending
    {
        const KernelLaunch *launch = nullptr;
        std::string name;
    };

    int id_ = 0;
    TenantSpec spec_;
    std::vector<int> sms_;

    double tokens_ = 0.0;
    std::uint64_t dispatchedBlocks_ = 0;
    std::uint64_t busySmCycles_ = 0;
    std::uint64_t limitedCycles_ = 0;
    std::uint64_t elapsedCycles_ = 0;

    std::deque<Pending> queue_;

    std::string gaugeDispatched_;
    std::string gaugeDebt_;
    std::string gaugeShare_;
};

/** Per-tenant measurement row over one co-run (harness/bench/eqsim). */
struct TenantRunMetrics
{
    std::string tenant;
    std::string kernels; ///< "+"-joined kernel names the tenant ran
    double smLimit = 1.0;
    int smCount = 0;
    std::uint64_t dispatchedBlocks = 0;
    std::uint64_t blocksCompleted = 0;
    std::uint64_t instructions = 0;
    std::uint64_t busySmCycles = 0;
    std::uint64_t limitedCycles = 0;
    std::uint64_t elapsedCycles = 0;

    double
    occupancyShare() const
    {
        const std::uint64_t denom =
            elapsedCycles * static_cast<std::uint64_t>(smCount);
        return denom ? static_cast<double>(busySmCycles) /
                           static_cast<double>(denom)
                     : 0.0;
    }
};

} // namespace equalizer

#endif // EQ_GPU_TENANT_HH

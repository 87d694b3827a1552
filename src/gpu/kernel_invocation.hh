/**
 * @file
 * A kernel invocation as a first-class object: the launch, the SM-slot
 * set it runs on, its private work-distribution cursor and its
 * per-invocation accounting.
 */

#ifndef EQ_GPU_KERNEL_INVOCATION_HH
#define EQ_GPU_KERNEL_INVOCATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/gwde.hh"
#include "gpu/kernel_launch.hh"
#include "sim/state.hh"

namespace equalizer
{

/**
 * One in-flight (or completed) execution of a kernel grid on a subset
 * of the device's SMs.
 *
 * GpuTop owns a vector of these; a whole-device runKernel() is simply
 * the degenerate case of one invocation whose SM set covers every SM.
 * The invocation carries all per-launch run state (SM set, GWDE,
 * progress), which is what makes a checkpoint taken mid-co-run
 * restorable (docs/SNAPSHOT.md).
 */
class KernelInvocation
{
  public:
    KernelInvocation() = default;

    KernelInvocation(int tenant_id, const KernelLaunch *launch,
                     std::vector<int> sm_set)
        : tenantId_(tenant_id), launch_(launch),
          name_(launch->info().name), sms_(std::move(sm_set))
    {
        gwde_.launch(*launch);
    }

    int tenantId() const { return tenantId_; }

    /** The launch; nullptr after a restore until rebindLaunch(). */
    const KernelLaunch *launch() const { return launch_; }

    /** Serialized identity of the launch (pointers don't persist). */
    const std::string &name() const { return name_; }

    /** SM indices this invocation may dispatch blocks to. */
    const std::vector<int> &smSet() const { return sms_; }

    /** The invocation-private work-distribution cursor. */
    GlobalWorkDistributor &gwde() { return gwde_; }
    const GlobalWorkDistributor &gwde() const { return gwde_; }

    /** True between launch and grid completion. */
    bool active() const { return active_; }

    Cycle completeCycle() const { return completeCycle_; }

    /** Warp instructions its SMs issued over the invocation. */
    std::uint64_t instructions() const { return instructions_; }

    /** Blocks its SMs completed over the invocation. */
    std::uint64_t blocksCompleted() const { return blocksCompleted_; }

    /**
     * Record the launch-time baselines (the SM set is exclusive to
     * this invocation, so per-SM counter deltas attribute cleanly).
     */
    void
    onLaunch(Cycle cycle, std::uint64_t instr_before,
             std::uint64_t blocks_before)
    {
        active_ = true;
        launchCycle_ = cycle;
        instrBefore_ = instr_before;
        blocksBefore_ = blocks_before;
    }

    /** Close the accounting window and deactivate. */
    void
    onComplete(Cycle cycle, std::uint64_t instr_now,
               std::uint64_t blocks_now)
    {
        active_ = false;
        completeCycle_ = cycle;
        instructions_ = instr_now - instrBefore_;
        blocksCompleted_ = blocks_now - blocksBefore_;
    }

    /** Re-attach the launch after a restore (validated by name). */
    void rebindLaunch(const KernelLaunch *launch) { launch_ = launch; }

    void visitState(StateVisitor &v);

  private:
    int tenantId_ = 0;
    const KernelLaunch *launch_ = nullptr;
    std::string name_;
    std::vector<int> sms_;
    GlobalWorkDistributor gwde_;
    bool active_ = false;

    Cycle launchCycle_ = 0;
    Cycle completeCycle_ = 0;
    std::uint64_t instrBefore_ = 0;
    std::uint64_t blocksBefore_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t blocksCompleted_ = 0;
};

} // namespace equalizer

#endif // EQ_GPU_KERNEL_INVOCATION_HH

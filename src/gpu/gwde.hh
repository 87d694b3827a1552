/**
 * @file
 * The global work-distribution engine (GWDE): hands thread blocks to SMs.
 */

#ifndef EQ_GPU_GWDE_HH
#define EQ_GPU_GWDE_HH

#include "common/types.hh"
#include "gpu/kernel_launch.hh"
#include "sim/state.hh"

namespace equalizer
{

/**
 * Tracks one invocation's grid and dispenses block ids in launch
 * order. SMs pull blocks when they have (and want) a free slot;
 * Equalizer's concurrency throttling works by making SMs stop pulling.
 *
 * One distributor per KernelInvocation: the cursor is invocation
 * state, not device state, so several grids can be in flight on
 * disjoint SM partitions and a mid-co-run checkpoint serializes every
 * cursor (kernel_invocation.hh).
 */
class GlobalWorkDistributor
{
  public:
    /** Begin distributing a new kernel's grid. */
    void
    launch(const KernelLaunch &kernel)
    {
        total_ = kernel.info().totalBlocks;
        next_ = 0;
    }

    bool hasBlocks() const { return next_ < total_; }

    /** Dispense the next block id; hasBlocks() must hold. */
    BlockId
    takeBlock()
    {
        return next_++;
    }

    int remaining() const { return total_ - next_; }
    int total() const { return total_; }

    void
    visitState(StateVisitor &v)
    {
        v.beginSection("gwde", 1);
        v.field(total_);
        v.field(next_);
        v.endSection();
    }

  private:
    int total_ = 0;
    BlockId next_ = 0;
};

} // namespace equalizer

#endif // EQ_GPU_GWDE_HH

/**
 * @file
 * Fixed operating points: the static comparison bars of Figures 7 and 8
 * (SM high/low, memory high/low) and statically fixed block counts
 * (Figures 1e, 2a, 5).
 */

#ifndef EQ_BASELINES_STATIC_POLICY_HH
#define EQ_BASELINES_STATIC_POLICY_HH

#include <string>

#include "gpu/controller.hh"
#include "gpu/gpu_top.hh"
#include "sim/vf.hh"

namespace equalizer
{

/** Applies fixed VF states and/or a fixed block target at launch. */
class StaticPolicy : public GpuController
{
  public:
    /**
     * @param name Report name ("sm-high", "mem-low", "blocks-2", ...).
     * @param sm_state SM-domain operating point.
     * @param mem_state Memory-domain operating point.
     * @param block_target Fixed concurrent blocks per SM; -1 = maximum.
     */
    StaticPolicy(std::string name, VfState sm_state, VfState mem_state,
                 int block_target = -1)
        : name_(std::move(name)), smState_(sm_state), memState_(mem_state),
          blockTarget_(block_target)
    {
    }

    std::string name() const override { return name_; }

    void
    onKernelLaunch(GpuTop &gpu) override
    {
        gpu.requestVfState(PowerDomain::Sm, smState_);
        gpu.requestVfState(PowerDomain::Memory, memState_);
        if (blockTarget_ > 0)
            gpu.setAllTargetBlocks(blockTarget_);
    }

  private:
    std::string name_;
    VfState smState_;
    VfState memState_;
    int blockTarget_;
};

} // namespace equalizer

#endif // EQ_BASELINES_STATIC_POLICY_HH

/**
 * @file
 * The Equalizer runtime engine (the paper's contribution): per-SM
 * sampling, per-epoch Algorithm 1 decisions with block-count hysteresis,
 * and the global majority-vote frequency manager.
 */

#ifndef EQ_EQUALIZER_EQUALIZER_HH
#define EQ_EQUALIZER_EQUALIZER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "equalizer/decision.hh"
#include "equalizer/frequency_manager.hh"
#include "equalizer/sampler.hh"
#include "gpu/controller.hh"

namespace equalizer
{

/** Tunables of the Equalizer runtime (paper defaults). */
struct EqualizerConfig
{
    EqualizerMode mode = EqualizerMode::Performance;

    Cycle sampleInterval = 128; ///< cycles between counter samples
    Cycle epochCycles = 4096;   ///< decision window

    /**
     * Consecutive same-direction epoch decisions required before the
     * block count actually changes (paper Section IV-B).
     */
    int hysteresis = 3;

    /** X_mem level that indicates bandwidth saturation (paper: 2). */
    double memSaturationThreshold = 2.0;
};

/** One per-epoch trace record (figures 2b, 11a, 11b). */
struct EqualizerEpochRecord
{
    Cycle cycle = 0;            ///< SM cycle at the epoch boundary
    EpochCounters meanCounters; ///< averaged across SMs
    double meanTargetBlocks = 0.0;
    double meanUnpausedWarps = 0.0;
    Tendency tendency = Tendency::Degenerate;
    VfState smState = VfState::Normal;
    VfState memState = VfState::Normal;
};

/**
 * Equalizer as a GpuController.
 *
 * Keeps its adaptation state (per-SM block targets) across invocations
 * of the same kernel, which is what produces the paper's Figure 11a
 * behaviour.
 */
class EqualizerEngine : public GpuController
{
  public:
    explicit EqualizerEngine(EqualizerConfig cfg = EqualizerConfig{});

    std::string name() const override;

    void onKernelLaunch(GpuTop &gpu) override;
    void onInvocationLaunch(GpuTop &gpu,
                            const KernelInvocation &inv) override;
    void onSmCycle(GpuTop &gpu) override;
    void visitControllerState(StateVisitor &v, GpuTop &gpu) override;

    /** Install a per-epoch trace sink. */
    void setEpochTrace(std::function<void(const EqualizerEpochRecord &)> f)
    {
        trace_ = std::move(f);
    }

    const EqualizerConfig &config() const { return cfg_; }

    /** Epochs resolved since construction. */
    std::uint64_t epochsResolved() const { return epochs_; }

    /** Decisions that actually changed a block target. */
    std::uint64_t blockChanges() const { return blockChanges_; }

  private:
    void endEpoch(GpuTop &gpu);

    EqualizerConfig cfg_;

    std::vector<WarpStateSampler> samplers_;
    std::vector<int> pendingDir_;   ///< -1/0/+1 pending block direction
    std::vector<int> pendingCount_; ///< consecutive epochs in pendingDir
    std::vector<int> rememberedTargets_;

    /**
     * Kernel name each SM last ran, keyed per SM (not per device) so
     * co-resident tenants inherit adapted block targets independently
     * (paper Fig 11a generalised to multi-tenant partitions).
     */
    std::vector<std::string> lastKernelPerSm_;

    std::unique_ptr<FrequencyManager> freqMgr_;

    std::function<void(const EqualizerEpochRecord &)> trace_;

    std::uint64_t epochs_ = 0;
    std::uint64_t blockChanges_ = 0;
};

} // namespace equalizer

#endif // EQ_EQUALIZER_EQUALIZER_HH

/**
 * @file
 * CCWS (Rogers et al., MICRO 2012): cache-conscious wavefront scheduling,
 * reimplemented as a comparison baseline for Figure 10.
 *
 * Mechanism: a per-warp victim tag array (VTA) records lines a warp
 * loses from the L1. A miss that hits in the warp's own VTA is "lost
 * intra-warp locality" and raises the warp's locality score. Warps are
 * granted memory-issue rights in score order until the score budget is
 * exhausted; the rest are throttled, shrinking the effective footprint.
 */

#ifndef EQ_BASELINES_CCWS_HH
#define EQ_BASELINES_CCWS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/controller.hh"
#include "mem/tag_array.hh"

namespace equalizer
{

/** Tunables of the CCWS locality scoring system. */
struct CcwsConfig
{
    int vtaSets = 2;           ///< victim tag array sets per warp
    int vtaWays = 4;           ///< ... and ways (8 entries per warp)
    double baseScore = 32.0;   ///< per-warp baseline locality score
    double vtaHitGain = 48.0;  ///< score bump on detected lost locality
    /// Clamp (~budget/6: a hot warp cannot starve the SM).
    double maxScore = 256.0;
    double decayPerKilocycle = 20.0; ///< score decay rate toward base
    Cycle updateInterval = 32; ///< cycles between issue-set recomputes
    int minAllowedWarps = 1;
};

/** CCWS controller: throttles which warps may issue memory operations. */
class Ccws : public GpuController
{
  public:
    explicit Ccws(CcwsConfig cfg = CcwsConfig{}) : cfg_(cfg) {}

    std::string name() const override { return "ccws"; }

    void onKernelLaunch(GpuTop &gpu) override;
    void onInvocationLaunch(GpuTop &gpu,
                            const KernelInvocation &inv) override;
    void onSmCycle(GpuTop &gpu) override;
    void visitControllerState(StateVisitor &v, GpuTop &gpu) override;

    /** Lost-locality events detected so far (all SMs). */
    std::uint64_t lostLocalityEvents() const { return lostEvents_; }

    /** Currently allowed warps on one SM (testable). */
    int allowedWarps(int sm) const;

  private:
    struct SmState
    {
        std::vector<std::unique_ptr<TagArray>> vta; ///< per warp
        std::vector<double> score;
        std::vector<bool> allowed;
    };

    /** (Re)size the per-SM scoring state to the GPU's geometry. */
    void buildStates(GpuTop &gpu);

    /** Fresh scoring state sized to SM @p i's kernel geometry. */
    std::unique_ptr<SmState> buildSmState(GpuTop &gpu, int i) const;

    /**
     * Point the L1 eviction/miss hooks and the memory-issue filter of
     * every SM at our per-SM state. Hooks are never serialized; a
     * restore rebuilds them here.
     */
    void installHooks(GpuTop &gpu);

    /** installHooks for one SM (per-invocation rebinding). */
    void installHooksFor(GpuTop &gpu, int i);

    void recomputeAllowed(SmState &st);

    CcwsConfig cfg_;
    std::vector<std::unique_ptr<SmState>> sms_;
    /// Bumped from the per-SM L1 miss hooks.
    std::uint64_t lostEvents_ = 0;
};

} // namespace equalizer

#endif // EQ_BASELINES_CCWS_HH

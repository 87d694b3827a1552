/**
 * @file
 * Named runtime-policy factories used by tests, examples and benches.
 */

#ifndef EQ_HARNESS_POLICIES_HH
#define EQ_HARNESS_POLICIES_HH

#include <functional>
#include <memory>
#include <string>

#include "equalizer/equalizer.hh"
#include "gpu/controller.hh"
#include "sim/vf.hh"

namespace equalizer
{

/** A named way to construct a controller (nullptr = stock GPU). */
struct PolicySpec
{
    std::string name;
    std::function<std::unique_ptr<GpuController>()> make;

    /** Build the controller; may return nullptr for the baseline. */
    std::unique_ptr<GpuController>
    build() const
    {
        return make ? make() : nullptr;
    }
};

namespace policies
{

/** Stock GPU: nominal frequencies, maximum concurrent blocks. */
PolicySpec baseline();

/** Static VF operating points (Figures 1, 7, 8). */
PolicySpec smHigh();
PolicySpec smLow();
PolicySpec memHigh();
PolicySpec memLow();

/** Statically fixed concurrent block count (Figures 1e, 2a, 5). */
PolicySpec staticBlocks(int blocks);

/**
 * One VF x CTA grid point of a sweep: both VF domains pinned plus a
 * fixed concurrent block count. Named "sm-<s>-mem-<m>-cta-<n>" — the
 * canonical point id of the sweep table (docs/AUTOTUNE.md).
 */
PolicySpec operatingPoint(VfState sm_vf, VfState mem_vf, int blocks);

/** The Equalizer runtime in one of its two objectives. */
PolicySpec equalizer(EqualizerMode mode,
                     EqualizerConfig cfg = EqualizerConfig{});

/** Comparison baselines (Figure 10). */
PolicySpec dynCta();
PolicySpec ccws();

/**
 * The policy a command-line name selects: baseline, sm-high, sm-low,
 * mem-high, mem-low, blocks-<n>, equalizer-perf, equalizer-energy,
 * dyncta or ccws. @p ecfg tunes both Equalizer modes. fatal() on an
 * unknown name or a blocks- suffix that is not a whole number.
 */
PolicySpec byName(const std::string &name,
                  const EqualizerConfig &ecfg = EqualizerConfig{});

} // namespace policies

} // namespace equalizer

#endif // EQ_HARNESS_POLICIES_HH

/**
 * @file
 * The per-SM warp-state sampler behind Equalizer's four counters.
 *
 * Hardware realization (paper Section V-A2): every 128 cycles the head
 * instruction of every unpaused warp is inspected and four counters are
 * bumped; an epoch of 4096 cycles therefore holds 32 samples, so an
 * 11-bit register per counter suffices (48 warps x 32 samples = 1536).
 */

#ifndef EQ_EQUALIZER_SAMPLER_HH
#define EQ_EQUALIZER_SAMPLER_HH

#include <cstdint>

#include "common/types.hh"
#include "gpu/warp_state.hh"

namespace equalizer
{

/** Averaged counter values over one epoch. */
struct EpochCounters
{
    double nActive = 0.0;
    double nWaiting = 0.0;
    double nAlu = 0.0;  ///< X_alu
    double nMem = 0.0;  ///< X_mem
    int samples = 0;
};

/** Accumulates warp-state samples across an epoch for one SM. */
class WarpStateSampler
{
  public:
    /** Add one 128-cycle sample. */
    void
    accumulate(const WarpStateCounts &counts)
    {
        active_ += counts.active;
        waiting_ += counts.waiting;
        alu_ += counts.excessAlu;
        mem_ += counts.excessMem;
        ++samples_;
    }

    /** Average counters over the epoch so far. */
    EpochCounters
    average() const
    {
        EpochCounters e;
        e.samples = samples_;
        if (samples_ == 0)
            return e;
        const double n = static_cast<double>(samples_);
        e.nActive = static_cast<double>(active_) / n;
        e.nWaiting = static_cast<double>(waiting_) / n;
        e.nAlu = static_cast<double>(alu_) / n;
        e.nMem = static_cast<double>(mem_) / n;
        return e;
    }

    /** Raw accumulated active count (hardware-counter view; <= 1536). */
    std::int64_t rawActive() const { return active_; }
    int samples() const { return samples_; }

    /** Start a new epoch. */
    void
    reset()
    {
        active_ = 0;
        waiting_ = 0;
        alu_ = 0;
        mem_ = 0;
        samples_ = 0;
    }

    /** Field by field: the struct has 4 tail padding bytes. */
    template <class V>
    void
    visitState(V &v)
    {
        v.fields(active_, waiting_, alu_, mem_, samples_);
    }

  private:
    std::int64_t active_ = 0;
    std::int64_t waiting_ = 0;
    std::int64_t alu_ = 0;
    std::int64_t mem_ = 0;
    int samples_ = 0;
};

} // namespace equalizer

#endif // EQ_EQUALIZER_SAMPLER_HH

#include "synthetic_kernel.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "common/rng.hh"
#include "mem/mem_access.hh"

namespace equalizer
{

namespace
{

/** Address-space layout of the synthetic kernels. */
constexpr Addr wsRegionBase = 0x0000'1000'0000'0000ULL;
constexpr Addr streamRegionBase = 0x0000'8000'0000'0000ULL;
constexpr Addr invocationStride = 0x0001'0000'0000'0000ULL;

/** Maximum per-warp working-set allocation (for base spacing). */
constexpr Addr wsAllocBytes = 64 * 1024;

/** Per-warp streaming arena. */
constexpr Addr streamAllocBytes = 1ULL << 30;

/** One phase with invocation modifiers folded in. */
struct EffectivePhase
{
    std::int64_t endInstr; ///< exclusive instruction bound of this phase
    double aluPerMem;
    double sfuFraction;
    double depProb;
    int loadDepDistance;
    int transactionsPerLoad;
    double storeFraction;
    double reuseFraction;
    std::int64_t wsLines;
    bool texture;
    double sharedFraction;
    int smemConflictWays;
    double divergence;
    int syncEvery;
};

/** Generator of one warp's instruction stream. */
class SyntheticStream : public InstructionStream
{
  public:
    SyntheticStream(const KernelParams &p, const InvocationMod &mod,
                    int invocation, BlockId block, int warp_in_block)
    {
        const std::int64_t warp_global =
            static_cast<std::int64_t>(block) * p.warpsPerBlock +
            warp_in_block;

        double length = p.instrsPerWarp * mod.lengthScale;
        if (block < p.longBlocks)
            length *= p.longBlockFactor;
        total_ = std::max<std::int64_t>(1, std::llround(length));

        const Addr inv_off =
            static_cast<Addr>(invocation) * invocationStride;
        // Stagger working-set bases across cache sets (odd multiple of
        // the line size) so warps do not all collide in the low sets.
        wsBase_ = wsRegionBase + inv_off +
                  static_cast<Addr>(warp_global) * wsAllocBytes +
                  static_cast<Addr>(warp_global % 61) * lineBytes * 7;
        streamBase_ = streamRegionBase + inv_off +
                      static_cast<Addr>(warp_global) * streamAllocBytes;

        // Fold the invocation modifiers into a flattened phase plan.
        double cum = 0.0;
        double total_weight = 0.0;
        for (const auto &ph : p.phases)
            total_weight += ph.weight;
        EQ_ASSERT(total_weight > 0.0, "kernel '", p.name,
                  "' has zero total phase weight");
        for (const auto &ph : p.phases) {
            cum += ph.weight / total_weight;
            EffectivePhase e;
            e.endInstr = std::min<std::int64_t>(
                total_, std::llround(cum * static_cast<double>(total_)));
            e.aluPerMem =
                std::max(1.0, ph.aluPerMem * mod.aluPerMemScale);
            e.sfuFraction = ph.sfuFraction;
            e.depProb = ph.depProb;
            e.loadDepDistance = ph.loadDepDistance;
            e.transactionsPerLoad =
                std::clamp(ph.transactionsPerLoad, 1,
                           maxTransactionsPerInst);
            e.storeFraction = ph.storeFraction;
            e.reuseFraction = mod.reuseOverride >= 0.0
                                  ? mod.reuseOverride
                                  : ph.reuseFraction;
            const double ws_bytes =
                static_cast<double>(ph.workingSetBytes) * mod.wsScale;
            e.wsLines = std::max<std::int64_t>(
                1, std::llround(ws_bytes / static_cast<double>(lineBytes)));
            EQ_ASSERT(e.wsLines <= std::numeric_limits<std::int32_t>::max(),
                      "kernel '", p.name, "' working set of ", e.wsLines,
                      " lines overflows WarpInstruction::wrapLines");
            e.texture = ph.texture;
            e.sharedFraction = ph.sharedFraction;
            e.smemConflictWays = std::max(1, ph.smemConflictWays);
            e.divergence = ph.divergence;
            e.syncEvery = ph.syncEvery;
            phases_.push_back(e);
        }
        phases_.back().endInstr = total_;

        std::uint64_t s = p.seed;
        s = s * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(invocation);
        s = s * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint64_t>(block);
        s = s * 0x94d049bb133111ebULL +
            static_cast<std::uint64_t>(warp_in_block);
        rng_ = Rng(s);
    }

    bool
    next(WarpInstruction &out) override
    {
        if (emitted_ >= total_)
            return false;

        while (phases_[phase_].endInstr <= emitted_ &&
               phase_ + 1 < phases_.size()) {
            ++phase_;
            aluRemaining_ = 0; // phase change starts a fresh iteration
        }
        const EffectivePhase &ph = phases_[phase_];

        out = WarpInstruction{};

        if (ph.syncEvery > 0 && sinceSync_ >= ph.syncEvery) {
            out.op = OpClass::Sync;
            sinceSync_ = 0;
            ++emitted_;
            return true;
        }

        if (aluRemaining_ <= 0) {
            // Start a new iteration with its memory instruction; a
            // fraction of them are scratchpad accesses instead.
            if (rng_.chance(ph.sharedFraction)) {
                out.op = OpClass::Shared;
                out.conflictWays = ph.smemConflictWays;
                // Shared data is consumed like a load result, via the
                // dependsOnPrev scoreboard path.
                aluRemaining_ = std::max(
                    1, static_cast<int>(ph.aluPerMem));
                depPos_ = -1;
                aluIndex_ = 0;
                firstAluDependsOnPrev_ = true;
                ++emitted_;
                ++sinceSync_;
                return true;
            }
            const bool store = rng_.chance(ph.storeFraction);
            const bool ws_load = !store && rng_.chance(ph.reuseFraction);

            out.op = OpClass::Mem;
            out.write = store;
            out.texture = ph.texture && !store;
            out.transactionCount = ph.transactionsPerLoad;
            if (ws_load) {
                out.base = wsBase_;
                out.firstLine = static_cast<Addr>(wsPtr_ % ph.wsLines);
                out.wrapLines = static_cast<std::int32_t>(ph.wsLines);
                wsPtr_ += ph.transactionsPerLoad;
            } else {
                out.base = streamBase_;
                out.firstLine = static_cast<Addr>(streamPtr_);
                streamPtr_ += ph.transactionsPerLoad;
            }

            // Plan the arithmetic tail of the iteration.
            const double apm = ph.aluPerMem;
            aluRemaining_ = static_cast<int>(apm);
            if (rng_.chance(apm - static_cast<double>(aluRemaining_)))
                ++aluRemaining_;
            aluRemaining_ = std::max(1, aluRemaining_);
            depPos_ = store ? -1
                            : std::min(ph.loadDepDistance,
                                       aluRemaining_ - 1);
            aluIndex_ = 0;

            ++emitted_;
            ++sinceSync_;
            return true;
        }

        // Arithmetic instruction within the current iteration.
        out.op = rng_.chance(ph.sfuFraction) ? OpClass::Sfu : OpClass::Alu;
        if (ph.divergence > 0.0 && rng_.chance(ph.divergence))
            out.activeLanes = 8 + static_cast<int>(rng_.below(17));
        if (firstAluDependsOnPrev_) {
            out.dependsOnPrev = true;
            firstAluDependsOnPrev_ = false;
        } else if (aluIndex_ == depPos_) {
            out.dependsOnLoads = true;
        } else {
            out.dependsOnPrev = rng_.chance(ph.depProb);
        }
        ++aluIndex_;
        --aluRemaining_;
        ++emitted_;
        ++sinceSync_;
        return true;
    }

  private:
    std::int64_t total_ = 0;
    std::int64_t emitted_ = 0;
    std::size_t phase_ = 0;

    Addr wsBase_ = 0;
    Addr streamBase_ = 0;
    std::int64_t wsPtr_ = 0;
    std::int64_t streamPtr_ = 0;

    int aluRemaining_ = 0;
    int aluIndex_ = 0;
    int depPos_ = -1;
    bool firstAluDependsOnPrev_ = false;
    int sinceSync_ = 0;

    std::vector<EffectivePhase> phases_;
    Rng rng_{0};
};

} // namespace

SyntheticKernel::SyntheticKernel(KernelParams params, int invocation)
    : params_(std::move(params)), invocation_(invocation),
      mod_(params_.invocation(invocation))
{
    info_.name = params_.name;
    info_.warpsPerBlock = params_.warpsPerBlock;
    info_.maxBlocksPerSm = params_.maxBlocksPerSm;
    info_.totalBlocks = std::max(
        1, static_cast<int>(
               std::llround(params_.totalBlocks * mod_.blocksScale)));
}

std::unique_ptr<InstructionStream>
SyntheticKernel::makeWarpStream(BlockId block, int warp_in_block) const
{
    return std::make_unique<SyntheticStream>(params_, mod_, invocation_,
                                             block, warp_in_block);
}

const char *
kernelCategoryName(KernelCategory c)
{
    switch (c) {
      case KernelCategory::Compute:
        return "compute";
      case KernelCategory::Memory:
        return "memory";
      case KernelCategory::Cache:
        return "cache";
      case KernelCategory::Unsaturated:
      default:
        return "unsaturated";
    }
}

} // namespace equalizer

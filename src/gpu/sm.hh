/**
 * @file
 * The streaming multiprocessor: warp contexts, dual-issue warp
 * scheduling, block (CTA) slots with pause bits, the LSU and the L1.
 */

#ifndef EQ_GPU_SM_HH
#define EQ_GPU_SM_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_launch.hh"
#include "gpu/lsu.hh"
#include "gpu/warp.hh"
#include "gpu/warp_state.hh"
#include "mem/l1_cache.hh"
#include "mem/memory_system.hh"
#include "power/energy_model.hh"
#include "trace/ring_buffer.hh"

namespace equalizer
{

/**
 * One SM.
 *
 * Warp slots are grouped into block slots of W_cta consecutive warps.
 * Each SM cycle: memory responses are drained, the warp scheduler makes
 * a dual-issue pass (classifying every warp into the cycle's
 * WarpStateCounts — the substrate of Equalizer's counters), and the LSU
 * pushes transactions toward the L1/memory system. CTA pausing masks
 * whole block slots out of both scheduling and the counters, per paper
 * Section IV. The pass is the only warp classifier: when it changes
 * nothing, its counts become the SM's stall verdict, which the fast
 * path replays (docs/FAST_PATH.md).
 */
class StreamingMultiprocessor
{
  public:
    /** Callback fired when a block fully retires: (sm, block id). */
    using BlockCompleteHook = std::function<void(SmId, BlockId)>;

    /** CCWS-style gate: may this warp issue a memory instruction now? */
    using MemIssueFilter = std::function<bool(WarpId)>;

    StreamingMultiprocessor(const GpuConfig &cfg, SmId id,
                            MemorySystem &mem_system, EnergyModel &energy);

    /**
     * Bind a kernel; clears all slots and per-kernel state. The SM has
     * no whole-device assumption: under multi-tenant residency each
     * invocation binds only its own SM partition (kernel_invocation.hh)
     * and neighbouring SMs may run a different kernel.
     */
    void setKernel(const KernelLaunch *kernel);

    /** The bound launch (nullptr before any bind or after a restore). */
    const KernelLaunch *kernel() const { return kernel_; }

    /** Effective block-slot count for the bound kernel. */
    int blockSlotCount() const { return blockSlots_; }

    /** Number of occupied block slots. */
    int residentBlocks() const;

    /** Number of occupied, unpaused block slots. */
    int unpausedBlocks() const;

    /** Whether a fresh block can be placed. */
    bool hasFreeSlot() const;

    /**
     * Whether the SM wants another block from the GWDE: a free slot
     * exists, no paused block is available to unpause, and the resident
     * unpaused count is below target.
     */
    bool wantsBlock() const;

    /** Install a block into a free slot and spawn its warp streams. */
    void assignBlock(BlockId block);

    /**
     * Set the desired number of concurrently *running* blocks.
     * Decreases take effect by pausing the youngest running blocks;
     * increases first unpause, then leave room for GWDE requests.
     * Clamped to [1, blockSlotCount()].
     */
    void setTargetBlocks(int target);

    int targetBlocks() const { return targetBlocks_; }

    /** Advance one SM cycle. @param mem_now current memory-domain cycle. */
    void tick(Cycle mem_now);

    // --- Fast-path support (docs/FAST_PATH.md).

    /** Result of checkStalled(). */
    struct StallCheck
    {
        /** Every warp is provably stalled through the next cycle. */
        bool skippable = false;

        /**
         * Earliest SM cycle at which some warp might unstall for an
         * SM-local reason (scoreboard release, shared-memory pipe
         * drain, L1 hit-wakeup maturing); noWakeup when every stall is
         * bound by memory-system events or epoch boundaries instead.
         * Meaningful only when skippable.
         */
        Cycle wakeup = noWakeup;
    };

    /**
     * Whether the next tick would provably change nothing except the
     * per-cycle bookkeeping that skipCycles() replays: answered from
     * the stall verdict of the last full tick alone, plus a fresh probe
     * of the LSU head. An SM without a verdict — after any external
     * mutation — reports not-skippable until one full tick has run.
     * Pure probe.
     */
    StallCheck checkStalled() const;

    /**
     * Replay @p n fully-stalled ticks: cycle count, scheduler rotation,
     * the verdict's per-cycle counter accumulation, LSU blocked-head
     * bookkeeping and active-cycle accounting. Only valid when
     * checkStalled() reported skippable and every replayed cycle is
     * strictly below its wakeup (and any memory-side bound).
     */
    void skipCycles(Cycle n);

    /**
     * Test seam: force checkStalled() to report skippable with the
     * given wakeup, bypassing the real probe. Lets tests exercise the
     * fast path's wakeup-consistency check (which aborts on a wakeup
     * in the past). reset by setKernel().
     */
    void
    debugSetStallWakeup(Cycle wakeup)
    {
        debugStallWakeup_ = wakeup;
        stalledUntil_ = 0;
    }

    /** No resident blocks. */
    bool idle() const { return residentBlocks() == 0; }

    /** Warp states observed in the most recent cycle. */
    WarpStateCounts sampleStates() const;

    Cycle cycle() const { return cycle_; }

    L1Cache &l1() { return l1_; }
    const L1Cache &l1() const { return l1_; }
    LoadStoreUnit &lsu() { return lsu_; }

    void setBlockCompleteHook(BlockCompleteHook hook)
    {
        onBlockComplete_ = std::move(hook);
    }

    void setMemIssueFilter(MemIssueFilter filter)
    {
        memIssueFilter_ = std::move(filter);
        stalledUntil_ = 0;
    }

    /**
     * Bind this SM's trace ring (non-owning; nullptr detaches). Only
     * this SM writes to it during the parallel phase; GpuTop drains it
     * serially at tracer epoch boundaries.
     */
    void setTraceRing(TraceRing *ring) { traceRing_ = ring; }

    // --- Aggregate statistics (since setKernel or resetStats).
    std::uint64_t instructionsIssued() const { return issued_; }
    std::uint64_t activeCycles() const { return activeCycles_; }
    const WarpStateCounts &outcomeTotals() const { return outcomeTotals_; }
    std::uint64_t blocksCompleted() const { return blocksCompleted_; }

    /** Zero statistic accumulators (not architectural state). */
    void resetStats();

    /**
     * Serialize all per-SM state except the kernel binding and the
     * hooks. Warp instruction streams are captured as replay counts;
     * rebindKernel() reconstructs them after a restore.
     */
    void visitState(StateVisitor &v);

    /**
     * Re-attach a kernel after visitState() restored mid-kernel state:
     * validates the restored geometry against @p kernel and rebuilds
     * the instruction stream of every in-flight warp by replaying its
     * recorded draw count. Unlike setKernel(), nothing is cleared.
     */
    void rebindKernel(const KernelLaunch *kernel);

    int warpsPerBlock() const { return warpsPerBlock_; }

    /** Read-only view of one warp slot (tests and tracing). */
    const WarpSlot &warp(WarpId w) const
    {
        return warps_[static_cast<std::size_t>(w)];
    }

  private:
    struct BlockSlot
    {
        bool occupied = false;
        bool paused = false;
        BlockId block = -1;
        int warpsDone = 0;
        std::uint64_t assignOrder = 0; ///< for youngest-first pausing
    };

    /** Warp range of a block slot. */
    int firstWarpOf(int slot) const { return slot * warpsPerBlock_; }

    /**
     * The dual-issue pass: refill, retire, park, classify and issue
     * every warp, recording the cycle's counts in lastCounts_. Returns
     * the earliest cycle at which an SM-local event (a result latency
     * elapsing, the shared-memory pipe draining) could change a warp's
     * classification, or 0 when the pass issued or freed a block slot.
     */
    Cycle schedulePass();

    void refillInstruction(WarpSlot &w);
    void handleRetirement(WarpId wid);
    /**
     * Release each barrier that every live warp of its block reached;
     * true when any was released.
     */
    bool releaseBarriers();
    void applyPauseState();

    const GpuConfig &cfg_;
    SmId id_;
    MemorySystem &memSystem_;
    EnergyModel &energy_;

    L1Cache l1_;
    LoadStoreUnit lsu_;

    const KernelLaunch *kernel_ = nullptr;
    int warpsPerBlock_ = 1;
    int blockSlots_ = 0;

    std::vector<WarpSlot> warps_;
    std::vector<BlockSlot> blocks_;
    std::vector<bool> warpRetiredCounted_;

    int targetBlocks_ = 1;
    std::uint64_t assignCounter_ = 0;

    Cycle cycle_ = 0;
    int rrStart_ = 0;   ///< LRR rotation pointer
    int greedyWarp_ = 0;///< GTO priority head
    Cycle smemBusyUntil_ = 0; ///< shared-memory pipe occupancy

    BlockCompleteHook onBlockComplete_;
    MemIssueFilter memIssueFilter_;
    TraceRing *traceRing_ = nullptr;

    /// Test-only checkStalled() override (not serialized).
    std::optional<Cycle> debugStallWakeup_;

    /**
     * The stall verdict (docs/FAST_PATH.md): the last full tick's pass
     * changed nothing, so every cycle before this one repeats its
     * lastCounts_, as long as no memory response matures and the LSU
     * head stays blocked; 0 for no verdict. Every external mutation
     * that could unstall a warp (block assignment, target changes,
     * policy hooks, restores) clears it. Not serialized: a restored SM
     * runs one full tick first.
     */
    Cycle stalledUntil_ = 0;

    std::uint64_t issued_ = 0;
    std::uint64_t activeCycles_ = 0;
    std::uint64_t blocksCompleted_ = 0;
    WarpStateCounts outcomeTotals_;
    WarpStateCounts lastCounts_;
};

} // namespace equalizer

#endif // EQ_GPU_SM_HH

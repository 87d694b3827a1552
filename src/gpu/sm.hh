/**
 * @file
 * The streaming multiprocessor: warp contexts, dual-issue warp
 * scheduling, block (CTA) slots with pause bits, the LSU and the L1.
 */

#ifndef EQ_GPU_SM_HH
#define EQ_GPU_SM_HH

#include <array>
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
#include "sim/clock_domain.hh"
#include "trace/ring_buffer.hh"

namespace equalizer
{

/**
 * One SM.
 *
 * Warp slots are grouped into block slots of W_cta consecutive warps.
 * Each SM cycle: memory responses are drained, the warp scheduler makes
 * a dual-issue pass, and the LSU pushes transactions toward the
 * L1/memory system. CTA pausing masks whole block slots out of both
 * scheduling and the counters, per paper Section IV.
 *
 * Warp issue is event driven. Every warp slot sits in exactly one
 * WarpClass, kept as a 64-bit mask per class (plus a paused mask):
 * inactive, needs-refill, waiting (scoreboard), draining (program done,
 * loads outstanding), barrier, ready-ALU/SFU, ready-Shared, ready-Mem,
 * retire-candidate and retired. A warp moves between masks only at the
 * events that change its state: issue and barrier release (to
 * needs-refill), refill, a load count reaching 0 (response drain and
 * L1-hit wake-up), `readyAt` reached (a 64-slot timing wheel), barrier
 * park, pause and unpause, block assign and retire. The schedule pass
 * visits, in RR/GTO rotation order, only the warps that need a refill,
 * can retire or can issue with the resources left. The warps it skips
 * are counted into the cycle's WarpStateCounts (the substrate of
 * Equalizer's four counters) from per-class tallies of unpaused warps,
 * kept next to the masks, so a cycle's counts cost O(1); masks are
 * popcounted only when a retirement frees a block mid-pass (the
 * baseline x86-64 target has no popcount instruction). The masks,
 * tallies, wheel and class array are derived state: never serialized,
 * rebuilt from the warp slots on setKernel and on a restore. The fast path
 * (docs/FAST_PATH.md) asks the same masks whether a cycle can change
 * anything.
 *
 * In a device the SM sleeps while it is stalled (attachSleep): the
 * device stops ticking it and its cycle() lags the device clock until
 * settle() credits the lag. Every writer below settles and wakes the SM
 * first, so callers never see the lag except through sampleStates(),
 * which answers for the cycles the SM slept through.
 */
class StreamingMultiprocessor
{
  public:
    /** Warp slots per SM that the per-class warp masks can hold. */
    static constexpr int maxWarpSlots = 64;

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

    /**
     * Test seam: force checkStalled() to report skippable with the
     * given wakeup, bypassing the real probe. Lets tests exercise the
     * sleep entry's wakeup-consistency check (which aborts on a wakeup
     * in the past). reset by setKernel().
     */
    void
    debugSetStallWakeup(Cycle wakeup)
    {
        wake();
        debugStallWakeup_ = wakeup;
    }

    // --- Sleep (docs/FAST_PATH.md, tier 1).

    /**
     * Let a device put this SM to sleep. @p clock is the device's SM
     * clock and @p wake_at the device's wake-cycle slot for this SM:
     * the device fills it from sleepWakeup() after each tick and sleeps
     * the SM while it is not yet due; wake() sets it to 0 (awake).
     */
    void
    attachSleep(const ClockDomain *clock, Cycle *wake_at)
    {
        clock_ = clock;
        wakeAt_ = wake_at;
    }

    /**
     * After tick(): the SM cycle to sleep until, or 0 to stay awake. The
     * SM sleeps when the tick issued nothing and checkStalled() is
     * skippable; noWakeup means until a memory-side event or a writer
     * wakes it. A wakeup not in the future is fatal.
     */
    Cycle
    sleepWakeup() const
    {
        return lastCounts_.issued > 0 ? 0 : stalledWakeup();
    }

    /** Credit the slept cycles up to SM cycle @p upto (skipCycles). */
    void
    settle(Cycle upto)
    {
        if (cycle_ < upto)
            skipCycles(upto - cycle_);
    }

    /** Settle to the device clock and mark the SM awake. */
    void wake();

    /** No resident blocks. */
    bool idle() const { return residentBlocks() == 0; }

    /** Warp states observed in the most recent cycle. */
    WarpStateCounts sampleStates() const;

    Cycle cycle() const { return cycle_; }

    L1Cache &l1() { return l1_; }
    const L1Cache &l1() const { return l1_; }
    LoadStoreUnit &lsu() { return lsu_; }

    /**
     * Install a memory-issue gate. It must be pure within a cycle: the
     * pass may ask it about any ready memory warp, and a warp it holds
     * back counts as waiting.
     */
    void setMemIssueFilter(MemIssueFilter filter)
    {
        wake();
        memIssueFilter_ = std::move(filter);
    }

    /**
     * Bind this SM's trace ring (non-owning; nullptr detaches). Only
     * this SM writes to it; GpuTop drains it at tracer epoch
     * boundaries.
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
    // --- Stall probe and replay behind sleep (docs/FAST_PATH.md).

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
     * per-cycle bookkeeping that skipCycles() replays, answered from
     * live engine state: no unpaused warp needs a refill, can retire or
     * could issue, no memory-issue filter is installed, and the LSU
     * head is blocked. Memory responses are the caller's to check.
     * Pure probe.
     */
    StallCheck checkStalled() const;

    /**
     * Replay @p n fully-stalled ticks: cycle count, scheduler rotation,
     * the per-cycle counter accumulation, LSU blocked-head bookkeeping
     * and active-cycle accounting. Only valid when checkStalled()
     * reported skippable and every replayed cycle is strictly below its
     * wakeup (and any memory-side bound).
     */
    void skipCycles(Cycle n);

    struct BlockSlot
    {
        bool occupied = false;
        bool paused = false;
        BlockId block = -1;
        int warpsDone = 0;
        std::uint64_t assignOrder = 0; ///< for youngest-first pausing

        /** Field by field: the struct has 6 padding bytes. */
        void
        visitState(StateVisitor &v)
        {
            v.fields(occupied, paused, block, warpsDone, assignOrder);
        }
    };

    /** One bit per warp slot. */
    using WarpMask = std::uint64_t;

    /** The state a warp slot is in for scheduling and counting. */
    enum class WarpClass : std::uint8_t
    {
        Inactive,    ///< no warp in the slot (counted unaccounted)
        Refill,      ///< instruction buffer empty; refilled when visited
        Waiting,     ///< head stalled on loads or on its previous result
        Draining,    ///< program done, loads outstanding (counts waiting)
        Barrier,     ///< parked at a Sync
        ReadyAlu,    ///< ALU/SFU head that can issue
        ReadyShared, ///< shared-memory head, needs the smem pipe
        ReadyMem,    ///< global/texture head, needs the LSU
        Retire,      ///< program done, loads back, not yet retired
        Retired,     ///< retired; waits for the rest of its block
    };
    static constexpr int numWarpClasses = 10;

    /** A warp count per WarpClass. */
    using ClassTally = std::array<int, numWarpClasses>;

    /** Warp range of a block slot. */
    int firstWarpOf(int slot) const { return slot * warpsPerBlock_; }

    WarpMask
    mask(WarpClass c) const
    {
        return classMask_[static_cast<std::size_t>(c)];
    }

    /** Mask of the slots of block slot @p slot. */
    WarpMask
    blockMask(int slot) const
    {
        return (~WarpMask{0} >> (64 - warpsPerBlock_)) << firstWarpOf(slot);
    }

    /** Set or clear the pause bit of block slot @p slot. */
    void setBlockPaused(int slot, bool paused);

    /** Move warp @p wid into class @p c. */
    void setClass(int wid, WarpClass c);

    /** Class of a warp slot from its state (schedules a readyAt wake). */
    WarpClass classify(int wid);

    void reclassify(int wid) { setClass(wid, classify(wid)); }

    /** sleepWakeup() after a tick that issued nothing. */
    Cycle stalledWakeup() const;

    /** Recompute every derived structure from warps_ and blocks_. */
    void rebuildWarpClasses();

    /** Wake the warps in wheel slot @p now % 64 whose readyAt is @p now. */
    void fireWheel(Cycle now);

    /** Earliest cycle after cycle_ with a wheel entry, or noWakeup. */
    Cycle nextWheelWakeup() const;

    /** A load of warp @p wid returned (response drain or L1 hit). */
    void loadReturned(WarpId wid);

    /**
     * Unpaused warps the pass must visit with @p slots issue slots and
     * @p reg_reads register reads left: those needing a refill or
     * retirement, and the ready warps that could issue. Under a
     * memory-issue filter every ready memory warp is visited.
     */
    WarpMask visitMask(int slots, int reg_reads, bool smem_free,
                       bool lsu_free) const;

    /**
     * What a pass counts for the unpaused warps it skips, from their
     * per-class tallies: readies count as excess, inactive slots as
     * unaccounted. skippedCounts(liveCount_) is a pass that visits
     * nobody.
     */
    static WarpStateCounts skippedCounts(const ClassTally &per_class);

    /** skippedCounts() of the warps in @p range. */
    WarpStateCounts rangeCounts(WarpMask range) const;

    /**
     * The dual-issue pass: start from the counts of a pass that visits
     * nobody, then visit, in rotation order, the warps that need a
     * refill, can retire or can issue, correcting the counts for each.
     * The result goes to lastCounts_.
     */
    void schedulePass();

    /** Per-pass issue resources. */
    struct IssuePorts
    {
        int slots;
        int regReads;
        int firstIssued = -1;
    };

    /**
     * One visited warp of the pass: refill, retire, park or issue.
     * @p later holds the slots the rotation reaches after this one.
     */
    void visitWarp(int wid, WarpMask later, IssuePorts &ports,
                   WarpStateCounts &counts);

    void refillInstruction(WarpSlot &w);
    void handleRetirement(WarpId wid);
    /** Release each barrier that every live warp of its block reached. */
    void releaseBarriers();
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

    MemIssueFilter memIssueFilter_;
    TraceRing *traceRing_ = nullptr;

    /// Sleep bookkeeping of the owning device (attachSleep).
    const ClockDomain *clock_ = nullptr;
    Cycle *wakeAt_ = nullptr;

    /// Test-only checkStalled() override (not serialized).
    std::optional<Cycle> debugStallWakeup_;

    // --- Derived warp-state engine (not serialized; see class comment).
    std::array<WarpMask, numWarpClasses> classMask_{};
    std::array<WarpClass, maxWarpSlots> warpClass_{};
    /// Unpaused warps per class (inactive slots are never paused).
    ClassTally liveCount_{};
    WarpMask paused_ = 0;
    /// readyAt wake-ups: slot readyAt % 64 holds the warps due then.
    std::array<WarpMask, 64> wheel_{};
    WarpMask wheelSlots_ = 0; ///< bit s: wheel_[s] is non-empty

    std::uint64_t issued_ = 0;
    std::uint64_t activeCycles_ = 0;
    std::uint64_t blocksCompleted_ = 0;
    WarpStateCounts outcomeTotals_;
    WarpStateCounts lastCounts_;
};

} // namespace equalizer

#endif // EQ_GPU_SM_HH

/**
 * @file
 * The load/store unit of one SM: a bounded queue of warp memory
 * instructions whose coalesced transactions are presented to the L1 (or
 * the texture path) at a fixed rate. When downstream resources fill, the
 * head blocks and the queue backs up — the condition that makes ready
 * memory warps X_mem.
 */

#ifndef EQ_GPU_LSU_HH
#define EQ_GPU_LSU_HH

#include <cstdint>
#include <type_traits>

#include "common/types.hh"
#include "gpu/gpu_config.hh"
#include "gpu/instruction.hh"
#include "mem/l1_cache.hh"
#include "mem/memory_system.hh"
#include "mem/queues.hh"

namespace equalizer
{

/** LD/ST pipeline of one SM. */
class LoadStoreUnit
{
  public:
    LoadStoreUnit(const GpuConfig &cfg, SmId sm, L1Cache &l1,
                  MemorySystem &mem_system);

    /** Reset the one-accept-per-cycle gate; call at the top of a cycle. */
    void beginCycle() { acceptedThisCycle_ = false; }

    /**
     * Whether a new warp memory instruction can enter the pipe this
     * cycle (at most one per cycle; queue must have room).
     */
    bool
    canAccept() const
    {
        return !acceptedThisCycle_ && !queue_.full();
    }

    /** Enqueue a warp memory instruction (canAccept() must hold). */
    void accept(WarpId warp, const WarpInstruction &inst);

    /**
     * Process the head instruction: present up to lsuThroughput
     * transactions to the L1 / texture path; stop on a Blocked result.
     */
    void tick(Cycle sm_now);

    /**
     * Pop, in order, the warps whose L1-hit data becomes available at
     * @p sm_now and hand each to @p fn, which decrements its
     * pendingLoads.
     */
    template <class Fn>
    void
    drainHitWakeups(Cycle sm_now, Fn &&fn)
    {
        while (auto warp = hitWakeups_.popReady(sm_now))
            fn(*warp);
    }

    bool empty() const { return queue_.empty(); }

    /** Queue at capacity (the gate that turns ready warps X_mem). */
    bool queueFull() const { return queue_.full(); }

    // --- Fast-path support (docs/FAST_PATH.md).

    /**
     * Whether tick() would make no progress next cycle: the queue is
     * empty, or the head's next transaction would be rejected by its
     * destination (texture queue full / L1 blocked). Pure probe.
     */
    bool wouldIdle() const;

    /**
     * Earliest SM cycle at which a buffered L1-hit wakeup matures, or
     * noWakeup when none are in flight.
     */
    Cycle
    nextHitWakeup() const
    {
        return hitWakeups_.empty() ? noWakeup : hitWakeups_.headReadyAt();
    }

    /**
     * Replay @p n idle cycles: beginCycle()'s accept-gate reset, plus —
     * when a head is present and blocked — the per-cycle blocked retry
     * (one blocked cycle and one L1 access probe per cycle). Only valid
     * when wouldIdle() held and nothing changed since.
     */
    void skipCycles(Cycle n);

    /**
     * Deepest queue occupancy since the last call; resets to the
     * current depth. Sampled per tracer epoch (HighWater events).
     */
    std::uint64_t takeQueueHighWater() { return queue_.takeHighWater(); }

    std::uint64_t transactionsIssued() const { return transactions_; }
    std::uint64_t blockedCycles() const { return blockedCycles_; }

    /** Drop all buffered work (kernel boundary). */
    void reset();

    void
    visitState(StateVisitor &v)
    {
        // v2: queue high-water mark, so HighWater trace events after a
        // restore match an uninterrupted run's (docs/TRACING.md). v3:
        // queued instructions name a line range, not 32 line addresses.
        // v4: the queue is a bounded ring (capacity check, high-water
        // mark in the queue); hit wakeups hold lsuThroughput x
        // (l1HitLatency + 1) entries, written field by field.
        v.beginSection("lsu", 4);
        v.field(queue_);
        v.field(acceptedThisCycle_);
        v.field(hitWakeups_);
        v.field(transactions_);
        v.field(blockedCycles_);
        v.endSection();
    }

  private:
    struct Entry
    {
        WarpInstruction inst;
        WarpId warp = 0;
        int next = 0; ///< next transaction index
    };
    static_assert(std::has_unique_object_representations_v<Entry>);

    const GpuConfig &cfg_;
    SmId sm_;
    L1Cache &l1_;
    MemorySystem &memSystem_;

    BoundedQueue<Entry> queue_;
    bool acceptedThisCycle_ = false;

    DelayQueue<WarpId> hitWakeups_;

    std::uint64_t transactions_ = 0;
    std::uint64_t blockedCycles_ = 0;
};

} // namespace equalizer

#endif // EQ_GPU_LSU_HH

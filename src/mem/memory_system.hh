/**
 * @file
 * The GPU-wide memory system: per-SM injection queues, a bandwidth- and
 * latency-limited interconnect, banked L2 partitions and GDDR5-style DRAM
 * channels, plus the response network back to the SMs.
 */

#ifndef EQ_MEM_MEMORY_SYSTEM_HH
#define EQ_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "mem/l2_cache.hh"
#include "mem/mem_access.hh"
#include "mem/mem_config.hh"
#include "mem/queues.hh"
#include "power/energy_model.hh"

namespace equalizer
{

/**
 * Everything downstream of the L1s, ticked on the memory clock domain.
 *
 * SM-side producers push into per-SM bounded injection queues (the L1
 * miss path and the texture path); the response network delivers
 * completed loads into per-SM response queues that the SMs drain on
 * their own clock. All internal movement obeys finite buffers, so
 * saturation propagates back to the injection queues, which is the
 * back-pressure signal the LSU (and hence Equalizer's X_mem counter)
 * observes.
 *
 * A tick costs O(partitions and queues with work) (docs/FAST_PATH.md).
 * The request network visits only the SMs flagged in a bit set that
 * every push into their injection or texture queue sets; the response
 * network only the partitions whose output head is ready. An L2
 * partition sleeps while its ticks could only do what
 * L2Partition::creditSleep() replays, until its wakeCycle(), a push
 * into its empty input or a pop from its full output; settle() credits
 * the slept cycles. partition(i) is for inspection: writing to a
 * partition directly bypasses its wake-up.
 */
class MemorySystem
{
  public:
    /** Called with an SM's id before a pop frees room in its full queue. */
    using FullPopHook = std::function<void(SmId)>;

    MemorySystem(const MemConfig &cfg, int num_sms, EnergyModel &energy);

    // The injection queues point into this object's SM bit set.
    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** L1-miss/store injection FIFO of one SM. */
    FlaggedQueue<MemAccess> &smInjectQueue(SmId sm)
    {
        return injectQueues_[static_cast<std::size_t>(sm)];
    }

    /** Texture-path injection FIFO of one SM (deep, rarely full). */
    FlaggedQueue<MemAccess> &texInjectQueue(SmId sm)
    {
        return texQueues_[static_cast<std::size_t>(sm)];
    }

    /** Advance the memory system by one memory-domain cycle. */
    void tick(Cycle now);

    /**
     * Let partitions sleep (the default) or tick every partition on
     * every memory cycle; switching off settles and wakes them all.
     */
    void setPartitionSleep(bool on);

    /**
     * Credit every sleeping partition's cycles through the last memory
     * cycle ticked, leaving it asleep. Lazily credited state (DRAM
     * power-down cycles, blocked-retry L2 energy) is exact after this.
     */
    void settle();

    /** Partition ticks run since construction (a diagnostic). */
    std::uint64_t partitionTicks() const { return partitionTicks_; }

    /**
     * Install the hook the request network calls before it pops from a
     * full injection or texture queue: the pop unblocks that SM's LSU,
     * so a sleeping SM must be settled and woken first
     * (docs/FAST_PATH.md).
     */
    void setFullPopHook(FullPopHook hook) { fullPopHook_ = std::move(hook); }

    /**
     * Memory cycle at which the head of SM @p sm's response queue is
     * ready, or noWakeup when the queue is empty: a sleeping SM wakes
     * at the first SM edge where this is at or before the memory clock.
     */
    Cycle
    responseReadyAt(SmId sm) const
    {
        return responseReadyAt_[static_cast<std::size_t>(sm)];
    }

    /**
     * Drain up to @p max_n completed loads destined for @p sm whose
     * network delay has elapsed by memory cycle @p mem_now, returned in
     * queue order. The capped, copying form of drainReadyResponses();
     * the SMs use that one, and bench/e2e's memory-system probe this.
     */
    std::vector<MemAccess> drainResponses(SmId sm, Cycle mem_now, int max_n);

    /**
     * Drain every completed load destined for @p sm whose network delay
     * has elapsed by @p mem_now, handing each to @p fn in queue order,
     * in place. Only SM @p sm's tick consumes its queue; pushes happen
     * on memory ticks.
     */
    template <class Fn>
    void
    drainReadyResponses(SmId sm, Cycle mem_now, Fn &&fn)
    {
        if (responseReadyAt(sm) > mem_now)
            return;
        auto &queue = responseQueues_[static_cast<std::size_t>(sm)];
        while (auto access = queue.popReady(mem_now))
            fn(*access);
        noteResponseHead(sm);
    }

    /** Invalidate all L2 partitions (kernel boundary). */
    void flushCaches();

    /** Aggregate stats over partitions. */
    std::uint64_t l2Hits() const;
    std::uint64_t l2Misses() const;
    std::uint64_t dramAccesses() const;
    std::uint64_t dramRowHits() const;

    /** Summed powered-down cycles across all DRAM partitions. */
    std::uint64_t dramPoweredDownCycles() const;

    /** Mean occupancy observed on DRAM queues (rough load indicator). */
    double meanDramQueueDepth() const;

    int numPartitions() const { return static_cast<int>(partitions_.size()); }

    L2Partition &partition(int i)
    {
        return partitions_[static_cast<std::size_t>(i)];
    }

    void visitState(StateVisitor &v);

  private:
    int partitionOf(Addr line_addr) const;

    /** Credit partition @p p's slept cycles before @p until. */
    void creditPartition(std::size_t p, Cycle until);

    /** Settle partition @p p through now_ and tick it next cycle. */
    void wakePartition(std::size_t p);

    /** Tick partition @p p at @p now and choose its next wake cycle. */
    void tickPartition(std::size_t p, Cycle now);

    /** Move SM @p sm's queue heads toward the partitions. */
    void injectFrom(int sm, int &budget, Cycle now);

    /** Refresh outputReadyAt_[p] from partition @p p's output head. */
    void
    noteOutputHead(std::size_t p)
    {
        const auto &out = partitions_[p].output();
        outputReadyAt_[p] = out.empty() ? noWakeup : out.headReadyAt();
    }

    /** Rebuild the derived state below from the queues and partitions. */
    void rebuildDerived();

    /** Refresh responseReadyAt_[sm] from its queue's head. */
    void
    noteResponseHead(SmId sm)
    {
        const auto &queue = responseQueues_[static_cast<std::size_t>(sm)];
        responseReadyAt_[static_cast<std::size_t>(sm)] =
            queue.empty() ? noWakeup : queue.headReadyAt();
    }

    const MemConfig cfg_;
    EnergyModel &energy_;
    int numSms_;

    // Sized once at construction and never resized: the L1s hold
    // references to their injection queues.
    std::vector<FlaggedQueue<MemAccess>> injectQueues_;
    std::vector<FlaggedQueue<MemAccess>> texQueues_;
    std::vector<L2Partition> partitions_;

    /// Response network: one delayed FIFO per SM.
    std::vector<DelayQueue<MemAccess>> responseQueues_;

    /// Head readyAt of each response queue (noWakeup: empty). Derived
    /// state, never serialized.
    std::vector<Cycle> responseReadyAt_;

    // Derived state, never serialized; a restore rebuilds it and wakes
    // every partition.

    /// Bit sm (word sm / 64) is set by every push into SM sm's
    /// injection or texture queue and cleared by the request network
    /// once both are empty. Never resized: the queues point into it.
    std::vector<std::uint64_t> injectMask_;

    /// Head readyAt of each partition's output (noWakeup: empty).
    std::vector<Cycle> outputReadyAt_;

    /// Memory cycle at which each partition next ticks; 0 until its
    /// first tick and always while partition sleep is off.
    std::vector<Cycle> wakeAt_;

    /// First memory cycle each partition has neither ticked nor been
    /// credited for; noWakeup (nothing to credit) until its first tick.
    std::vector<Cycle> creditedUntil_;

    /// Sum of the DRAM queue depths (dramQueueDepthSum_ adds it per
    /// tick).
    std::uint64_t dramDepth_ = 0;

    bool partitionSleep_ = true;
    Cycle now_ = 0; ///< last memory cycle ticked
    std::uint64_t partitionTicks_ = 0;

    FullPopHook fullPopHook_;

    /// Round-robin pointers for fair arbitration.
    int rrSm_ = 0;
    int rrPartition_ = 0;

    std::uint64_t dramQueueDepthSum_ = 0;
    std::uint64_t tickCount_ = 0;
};

} // namespace equalizer

#endif // EQ_MEM_MEMORY_SYSTEM_HH

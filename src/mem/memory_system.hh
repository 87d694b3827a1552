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
 */
class MemorySystem
{
  public:
    /** Called with an SM's id before a pop frees room in its full queue. */
    using FullPopHook = std::function<void(SmId)>;

    MemorySystem(const MemConfig &cfg, int num_sms, EnergyModel &energy);

    /** L1-miss/store injection FIFO of one SM. */
    BoundedQueue<MemAccess> &smInjectQueue(SmId sm)
    {
        return injectQueues_[static_cast<std::size_t>(sm)];
    }

    /** Texture-path injection FIFO of one SM (deep, rarely full). */
    BoundedQueue<MemAccess> &texInjectQueue(SmId sm)
    {
        return texQueues_[static_cast<std::size_t>(sm)];
    }

    /** Advance the memory system by one memory-domain cycle. */
    void tick(Cycle now);

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
    std::vector<BoundedQueue<MemAccess>> injectQueues_;
    std::vector<BoundedQueue<MemAccess>> texQueues_;
    std::vector<L2Partition> partitions_;

    /// Response network: one delayed FIFO per SM.
    std::vector<DelayQueue<MemAccess>> responseQueues_;

    /// Head readyAt of each response queue (noWakeup: empty). Derived
    /// state, never serialized.
    std::vector<Cycle> responseReadyAt_;

    FullPopHook fullPopHook_;

    /// Round-robin pointers for fair arbitration.
    int rrSm_ = 0;
    int rrPartition_ = 0;

    std::uint64_t dramQueueDepthSum_ = 0;
    std::uint64_t tickCount_ = 0;
};

} // namespace equalizer

#endif // EQ_MEM_MEMORY_SYSTEM_HH

/**
 * @file
 * One L2 cache partition: a write-back, write-allocate bank in front of
 * a DRAM partition.
 */

#ifndef EQ_MEM_L2_CACHE_HH
#define EQ_MEM_L2_CACHE_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/dram.hh"
#include "mem/mem_access.hh"
#include "mem/mem_config.hh"
#include "mem/queues.hh"
#include "mem/tag_array.hh"
#include "power/energy_model.hh"

namespace equalizer
{

/**
 * L2 partition.
 *
 * Requests arrive through a bounded input DelayQueue (the interconnect
 * pushes with the NoC request latency applied). Each memory cycle the
 * partition processes at most one request from the head:
 *  - load hit: pushed to the output queue, ready after l2HitLatency;
 *  - load miss: forwarded to the DRAM partition (the head blocks while
 *    the DRAM queue is full — this is the back-pressure path);
 *  - store: write-allocate, marks the line dirty; a dirty eviction costs
 *    one DRAM write burst.
 * DRAM load completions fill the tags and enter the output queue. The
 * interconnect drains the output queue toward the SMs.
 */
class L2Partition
{
  public:
    L2Partition(const MemConfig &cfg, int partition_id, EnergyModel &energy);

    /** Interconnect-facing input (push with request latency applied). */
    DelayQueue<MemAccess> &input() { return input_; }

    /** Completed loads waiting for the response interconnect. */
    DelayQueue<MemAccess> &output() { return output_; }

    /** Advance one memory cycle. */
    void tick(Cycle now);

    /**
     * After tick(@p now): the first memory cycle at which a tick can do
     * more than what creditSleep() replays, or noWakeup when only a
     * push into the empty input or a pop from the full output can end
     * that. Those ticks power an idle DRAM down and count its
     * powered-down cycles, or retry a read miss blocked behind the full
     * DRAM queue. A blocked read hit touches the LRU on every retry, so
     * it keeps the partition awake.
     */
    Cycle wakeCycle(Cycle now) const;

    /**
     * Replay the memory cycles [@p from, @p until) the partition slept
     * through (docs/FAST_PATH.md): the idle DRAM's power-down
     * accounting and one L2Access event per blocked read-miss retry.
     */
    void creditSleep(Cycle from, Cycle until);

    /** Drop all cached lines and dirty state (kernel boundary). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    const DramPartition &dram() const { return dram_; }
    DramPartition &dram() { return dram_; }

    void visitState(StateVisitor &v);

  private:
    /** Install a line; performs dirty-writeback accounting on eviction. */
    void installLine(Addr line_addr, bool dirty, Cycle now);

    void handleRequest(Cycle now);

    /** Whether a read of @p head misses and the DRAM queue is full. */
    bool blockedMiss(const MemAccess &head) const;

    const MemConfig &cfg_;
    EnergyModel &energy_;
    TagArray tags_;
    DelayQueue<MemAccess> input_;
    DelayQueue<MemAccess> output_;
    DramPartition dram_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace equalizer

#endif // EQ_MEM_L2_CACHE_HH

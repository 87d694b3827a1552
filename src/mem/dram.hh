/**
 * @file
 * A GDDR5-style DRAM partition: banked open-row timing with FR-FCFS
 * scheduling and per-command energy events.
 */

#ifndef EQ_MEM_DRAM_HH
#define EQ_MEM_DRAM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/mem_access.hh"
#include "mem/mem_config.hh"
#include "power/energy_model.hh"
#include "sim/state.hh"

namespace equalizer
{

/**
 * One DRAM partition (channel). The data bus services one 128 B burst at
 * a time; a row hit occupies the bus for dramRowHitCycles, a row miss for
 * dramRowMissCycles (activate+precharge folded in). The scheduler is
 * FR-FCFS: the oldest row-hit request wins, else the oldest request.
 *
 * All timing is in memory-domain cycles, so DVFS on the memory domain
 * rescales the delivered bandwidth automatically.
 */
class DramPartition
{
  public:
    DramPartition(const MemConfig &cfg, int partition_id,
                  EnergyModel &energy);

    /** Whether the input queue can take another request. */
    bool full() const { return queue_.size() >= cap_; }

    /** Enqueue a request at memory cycle @p now. @return false when full. */
    bool submit(const MemAccess &access, Cycle now);

    /**
     * Advance one memory cycle.
     * @return A completed access, if one finished this cycle.
     */
    std::optional<MemAccess> tick(Cycle now);

    std::size_t queueDepth() const { return queue_.size(); }

    /** Whether a request occupies the data bus. */
    bool inService() const { return inService_.has_value(); }

    /** Memory cycle at which the request in service completes. */
    Cycle busyUntil() const { return busyUntil_; }

    /**
     * Credit the memory cycles [@p from, @p until) that tick() would
     * have spent idle: with nothing queued or in service a tick only
     * powers the interface down after dramPowerDownIdleCycles and
     * counts the powered-down cycles. A no-op while not idle.
     */
    void creditIdle(Cycle from, Cycle until);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t rowHits() const { return rowHits_; }

    /** Memory cycles spent in the powered-down interface state. */
    std::uint64_t poweredDownCycles() const { return poweredDownCycles_; }

    /** Whether the partition interface is currently powered down. */
    bool poweredDown() const { return poweredDown_; }

    /** Average queueing delay experienced by completed requests. */
    double
    meanQueueDelay() const
    {
        return accesses_ ? static_cast<double>(queueDelaySum_) / accesses_
                         : 0.0;
    }

    void visitState(StateVisitor &v);

  private:
    struct Pending
    {
        MemAccess access;
        Cycle enqueued = 0;
        /// Bank and row of access.lineAddr, decoded at submit and on a
        /// restore; never serialized.
        int bank = 0;
        std::int64_t row = 0;

        void visitState(StateVisitor &v) { v.fields(access, enqueued); }
    };

    /** A queue entry for @p access with its bank and row decoded. */
    Pending pending(const MemAccess &access, Cycle now) const;

    /** Bank and row decode for a line within this partition. */
    int bankOf(Addr line_addr) const;
    std::uint64_t rowOf(Addr line_addr) const;

    const MemConfig &cfg_;
    int id_;
    EnergyModel &energy_;
    std::size_t cap_;

    /// Arrival order; FR-FCFS removes from anywhere, so not a ring.
    std::vector<Pending> queue_;
    std::vector<std::int64_t> openRow_; ///< per bank; -1 when closed

    /// Request currently occupying the data bus (if any).
    std::optional<Pending> inService_;
    Cycle busyUntil_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t queueDelaySum_ = 0;

    Cycle lastActive_ = 0;
    bool poweredDown_ = false;
    std::uint64_t poweredDownCycles_ = 0;
};

} // namespace equalizer

#endif // EQ_MEM_DRAM_HH

/**
 * @file
 * Per-SM L1 data cache: set-associative LRU tags, MSHRs, write-through
 * no-allocate stores, and a bounded miss path into the memory system.
 */

#ifndef EQ_MEM_L1_CACHE_HH
#define EQ_MEM_L1_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "mem/mem_access.hh"
#include "mem/mem_config.hh"
#include "mem/mshr.hh"
#include "mem/queues.hh"
#include "mem/tag_array.hh"
#include "power/energy_model.hh"

namespace equalizer
{

/**
 * L1 data cache of one SM.
 *
 * Timing is handled by the caller (the LSU schedules hit wakeups after
 * l1HitLatency; misses wake when fill() is called by the memory system).
 * The cache itself only decides hit/miss/blocked and manages MSHRs.
 */
class L1Cache
{
  public:
    /** Outcome of one coalesced transaction presented to the cache. */
    enum class Result
    {
        Hit,        ///< data available after the hit latency
        MissIssued, ///< new MSHR allocated, request sent downstream
        MissMerged, ///< merged onto an in-flight MSHR
        Blocked,    ///< MSHR/queue resources exhausted; caller must retry
    };

    /** Invoked on every eviction with (line address, owner warp). */
    using EvictionHook = std::function<void(Addr, int)>;

    /** Invoked on every load miss with (warp, line address). */
    using MissHook = std::function<void(WarpId, Addr)>;

    /**
     * @param cfg Hierarchy sizing.
     * @param sm Owning SM id (stamped into downstream requests).
     * @param miss_queue Bounded injection FIFO toward the interconnect.
     * @param energy Energy sink for access events.
     */
    L1Cache(const MemConfig &cfg, SmId sm,
            FlaggedQueue<MemAccess> &miss_queue, EnergyModel &energy);

    /**
     * Present one transaction. Loads probe the tags and may allocate an
     * MSHR; stores are write-through no-allocate and only need queue
     * space downstream.
     */
    Result access(WarpId warp, Addr line_addr, bool write);

    /**
     * Install a returning line and retire its MSHR, then hand each warp
     * whose data arrived with this fill to @p fn, in merge order.
     */
    template <class Fn>
    void
    fill(Addr line_addr, Fn &&fn)
    {
        const std::vector<WarpId> waiters = mshrs_.fill(line_addr);
        installLine(line_addr, waiters.empty() ? -1 : waiters.front());
        for (WarpId w : waiters)
            fn(w);
    }

    /**
     * Whether access() would return Blocked, without any side effect
     * (no energy, no counters, no LRU touch). The fast path's per-SM
     * stall check uses this to confirm the LSU head cannot progress.
     */
    bool accessWouldBlock(Addr line_addr, bool write) const;

    /**
     * Replay @p n blocked retries of the head transaction: the slow
     * path burns one L1Access energy event and one blocked cycle per
     * retry, with no other state change. Deposits energy one event at
     * a time so the joules match the per-cycle adds bit-for-bit.
     */
    void skipBlockedCycles(Cycle n);

    /** Register a hook observing evictions (used by CCWS). */
    void
    setEvictionHook(EvictionHook hook)
    {
        evictionHook_ = std::move(hook);
    }

    /** Register a hook observing load misses (used by CCWS). */
    void setMissHook(MissHook hook) { missHook_ = std::move(hook); }

    /** Drop all lines and outstanding-miss state (kernel boundary). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t blocked() const { return blocked_; }

    /** Hit rate over load accesses; 0 when no loads were seen. */
    double hitRate() const
    {
        const std::uint64_t loads = hits_ + misses_;
        return loads ? static_cast<double>(hits_) / loads : 0.0;
    }

    int mshrOutstanding() const { return mshrs_.outstanding(); }

    /** MSHR occupancy high-water since the last call (trace epochs). */
    int takeMshrHighWater() { return mshrs_.takeHighWater(); }

    /**
     * Serialize tags, MSHRs and counters. The eviction/miss hooks are
     * std::functions owned by whoever installed them (CCWS) and are
     * reinstalled by that owner after a restore, never serialized.
     */
    void
    visitState(StateVisitor &v)
    {
        // v2: the MSHR file gained its high-water mark. v3: tag lines
        // carry a dirty bit. v4: tag lines have no padding bytes.
        v.beginSection("l1", 4);
        v.field(tags_);
        v.field(mshrs_);
        v.field(hits_);
        v.field(misses_);
        v.field(writes_);
        v.field(blocked_);
        v.endSection();
    }

  private:
    /** Insert a filled line owned by warp @p owner (-1: none). */
    void installLine(Addr line_addr, int owner);

    SmId sm_;
    TagArray tags_;
    MshrFile mshrs_;
    FlaggedQueue<MemAccess> &missQueue_;
    EnergyModel &energy_;
    EvictionHook evictionHook_;
    MissHook missHook_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t blocked_ = 0;
};

} // namespace equalizer

#endif // EQ_MEM_L1_CACHE_HH

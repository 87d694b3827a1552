#include "l1_cache.hh"

namespace equalizer
{

L1Cache::L1Cache(const MemConfig &cfg, SmId sm,
                 FlaggedQueue<MemAccess> &miss_queue, EnergyModel &energy)
    : sm_(sm), tags_(cfg.l1Sets, cfg.l1Ways),
      mshrs_(cfg.l1MshrEntries, cfg.l1MaxMerges), missQueue_(miss_queue),
      energy_(energy)
{
    energy_.ensureSmShards(sm_ + 1);
}

L1Cache::Result
L1Cache::access(WarpId warp, Addr line_addr, bool write)
{
    energy_.record(sm_, EnergyEvent::L1Access);

    if (write) {
        // Write-through, no-allocate: stores only need room downstream.
        if (missQueue_.full()) {
            ++blocked_;
            return Result::Blocked;
        }
        ++writes_;
        // Keep a present line coherent-ish by touching it.
        tags_.lookup(line_addr, warp);
        missQueue_.push(MemAccess{line_addr, sm_, warp, /*write=*/true,
                                  /*texture=*/false});
        return Result::Hit; // stores never stall the warp
    }

    if (tags_.lookup(line_addr, warp)) {
        ++hits_;
        return Result::Hit;
    }

    // Secondary miss: merge without consuming downstream bandwidth.
    if (mshrs_.tracking(line_addr)) {
        switch (mshrs_.allocate(line_addr, warp)) {
          case MshrFile::Outcome::Merged:
            ++misses_;
            if (missHook_)
                missHook_(warp, line_addr);
            return Result::MissMerged;
          default:
            ++blocked_;
            return Result::Blocked; // merge list full
        }
    }

    // Primary miss: needs both an MSHR entry and queue space, checked
    // before any state is mutated so a rejection has no side effects.
    if (mshrs_.full() || missQueue_.full()) {
        ++blocked_;
        return Result::Blocked;
    }
    const auto outcome = mshrs_.allocate(line_addr, warp);
    EQ_ASSERT(outcome == MshrFile::Outcome::NewMiss,
              "primary miss allocation must succeed after the full check");
    missQueue_.push(MemAccess{line_addr, sm_, warp, /*write=*/false,
                              /*texture=*/false});
    ++misses_;
    if (missHook_)
        missHook_(warp, line_addr);
    return Result::MissIssued;
}

bool
L1Cache::accessWouldBlock(Addr line_addr, bool write) const
{
    if (write)
        return missQueue_.full();
    if (tags_.probe(line_addr))
        return false;
    if (mshrs_.tracking(line_addr))
        return mshrs_.mergeListFull(line_addr);
    return mshrs_.full() || missQueue_.full();
}

void
L1Cache::skipBlockedCycles(Cycle n)
{
    energy_.recordRepeated(sm_, EnergyEvent::L1Access, n);
    blocked_ += n;
}

void
L1Cache::installLine(Addr line_addr, int owner)
{
    // Attribute the incoming line to its original requester so eviction
    // hooks (CCWS) can credit lost locality to the right warp.
    auto evicted = tags_.insert(line_addr, owner);
    if (evicted && evictionHook_)
        evictionHook_(evicted->lineAddr, evicted->owner);
}

void
L1Cache::flush()
{
    tags_.invalidateAll();
    mshrs_.clear();
}

} // namespace equalizer

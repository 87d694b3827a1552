#include "lsu.hh"

namespace equalizer
{

LoadStoreUnit::LoadStoreUnit(const GpuConfig &cfg, SmId sm, L1Cache &l1,
                             MemorySystem &mem_system)
    : cfg_(cfg), sm_(sm), l1_(l1), memSystem_(mem_system),
      queue_(static_cast<std::size_t>(cfg.lsuQueueDepth)),
      // At most lsuThroughput hits enter per SM cycle and each leaves
      // l1HitLatency cycles later (the drain runs before the LSU ticks).
      hitWakeups_(static_cast<std::size_t>(cfg.lsuThroughput) *
                  (cfg.mem.l1HitLatency + 1))
{
}

void
LoadStoreUnit::accept(WarpId warp, const WarpInstruction &inst)
{
    EQ_ASSERT(canAccept(), "LSU accept() without canAccept()");
    EQ_ASSERT(inst.op == OpClass::Mem, "LSU fed a non-memory instruction");
    queue_.push(Entry{inst, warp, 0});
    acceptedThisCycle_ = true;
}

void
LoadStoreUnit::tick(Cycle sm_now)
{
    if (queue_.empty())
        return;

    int budget = cfg_.lsuThroughput;
    Entry &head = queue_.front();

    while (budget > 0 && head.next < head.inst.transactionCount) {
        const Addr line = head.inst.lineAddr(head.next);

        if (head.inst.texture) {
            // Texture path: deep buffering downstream, bypasses the L1.
            auto &tq = memSystem_.texInjectQueue(sm_);
            if (tq.full()) {
                ++blockedCycles_;
                return;
            }
            tq.push(MemAccess{line, sm_, head.warp, head.inst.write,
                              /*texture=*/true});
        } else {
            const auto result =
                l1_.access(head.warp, line, head.inst.write);
            if (result == L1Cache::Result::Blocked) {
                ++blockedCycles_;
                return;
            }
            if (result == L1Cache::Result::Hit && !head.inst.write) {
                const bool ok = hitWakeups_.push(
                    head.warp, sm_now + cfg_.mem.l1HitLatency);
                EQ_ASSERT(ok, "hit-wakeup queue overflow");
            }
        }
        ++head.next;
        ++transactions_;
        --budget;
    }

    if (head.next >= head.inst.transactionCount)
        queue_.pop();
}

bool
LoadStoreUnit::wouldIdle() const
{
    if (queue_.empty())
        return true;
    const Entry &head = queue_.front();
    EQ_ASSERT(head.next < head.inst.transactionCount,
              "LSU queue holds a completed instruction");
    if (head.inst.texture)
        return memSystem_.texInjectQueue(sm_).full();
    return l1_.accessWouldBlock(head.inst.lineAddr(head.next),
                                head.inst.write);
}

void
LoadStoreUnit::skipCycles(Cycle n)
{
    // Each skipped cycle begins with beginCycle(); the gate is already
    // false whenever the SM is skippable (an accept implies an issuing
    // warp, which needs a refill next cycle), but reset it anyway so
    // the replay mirrors the slow path unconditionally.
    acceptedThisCycle_ = false;
    if (queue_.empty())
        return;

    const Entry &head = queue_.front();
    blockedCycles_ += n;
    if (!head.inst.texture) {
        // A blocked non-texture head re-probes the L1 every cycle.
        l1_.skipBlockedCycles(n);
    }
}

void
LoadStoreUnit::reset()
{
    queue_.clear();
    hitWakeups_.clear();
    acceptedThisCycle_ = false;
}

} // namespace equalizer

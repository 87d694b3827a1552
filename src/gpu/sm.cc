#include "sm.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hh"

namespace equalizer
{

StreamingMultiprocessor::StreamingMultiprocessor(const GpuConfig &cfg,
                                                 SmId id,
                                                 MemorySystem &mem_system,
                                                 EnergyModel &energy)
    : cfg_(cfg), id_(id), memSystem_(mem_system), energy_(energy),
      l1_(cfg.mem, id, mem_system.smInjectQueue(id), energy),
      lsu_(cfg, id, l1_, mem_system)
{
    energy_.ensureSmShards(id_ + 1);
}

namespace
{

/** Mask of slots [0, k), k <= 64. */
constexpr std::uint64_t
lowMask(int k)
{
    return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

/** Mask of slots [lo, hi), lo <= hi <= 64. */
constexpr std::uint64_t
slotRange(int lo, int hi)
{
    return lowMask(hi) & ~lowMask(lo);
}

/** Call @p fn(wid) for each set bit of @p m, lowest first. */
template <class Fn>
void
forEachBit(std::uint64_t m, Fn &&fn)
{
    for (; m != 0; m &= m - 1)
        fn(std::countr_zero(m));
}

} // namespace

void
StreamingMultiprocessor::setKernel(const KernelLaunch *kernel)
{
    wake();
    kernel_ = kernel;
    warpsPerBlock_ = std::max(1, kernel->info().warpsPerBlock);
    const int by_occupancy = kernel->info().maxBlocksPerSm;
    const int by_warps = cfg_.maxWarpsPerSm / warpsPerBlock_;
    blockSlots_ = std::max(
        1, std::min({by_occupancy, by_warps, cfg_.maxBlocksPerSm}));
    if (blockSlots_ * warpsPerBlock_ > maxWarpSlots)
        fatal("kernel '", kernel->info().name, "' needs ",
              blockSlots_ * warpsPerBlock_, " warp slots per SM; an SM ",
              "holds at most ", maxWarpSlots);

    warps_.clear();
    warps_.resize(static_cast<std::size_t>(blockSlots_) * warpsPerBlock_);
    blocks_.assign(static_cast<std::size_t>(blockSlots_), BlockSlot{});
    warpRetiredCounted_.assign(warps_.size(), false);
    targetBlocks_ = blockSlots_;
    rrStart_ = 0;
    greedyWarp_ = 0;
    smemBusyUntil_ = 0;

    l1_.flush();
    lsu_.reset();
    debugStallWakeup_.reset();
    rebuildWarpClasses();
}

void
StreamingMultiprocessor::setClass(int wid, WarpClass c)
{
    const WarpMask bit = WarpMask{1} << wid;
    auto &old = warpClass_[static_cast<std::size_t>(wid)];
    classMask_[static_cast<std::size_t>(old)] &= ~bit;
    classMask_[static_cast<std::size_t>(c)] |= bit;
    if (!(paused_ & bit)) {
        --liveCount_[static_cast<std::size_t>(old)];
        ++liveCount_[static_cast<std::size_t>(c)];
    }
    old = c;
}

void
StreamingMultiprocessor::setBlockPaused(int slot, bool paused)
{
    auto &b = blocks_[static_cast<std::size_t>(slot)];
    b.paused = paused;
    for (int wid = firstWarpOf(slot); wid < firstWarpOf(slot + 1); ++wid) {
        warps_[static_cast<std::size_t>(wid)].paused = paused;
        liveCount_[static_cast<std::size_t>(
            warpClass_[static_cast<std::size_t>(wid)])] += paused ? -1 : 1;
    }
    if (paused)
        paused_ |= blockMask(slot);
    else
        paused_ &= ~blockMask(slot);
    traceEmit(traceRing_, [&] {
        return makeSmEvent(paused ? TraceEventKind::CtaPause
                                  : TraceEventKind::CtaResume,
                           cycle_, id_, slot, b.block);
    });
}

StreamingMultiprocessor::WarpClass
StreamingMultiprocessor::classify(int wid)
{
    const auto &w = warps_[static_cast<std::size_t>(wid)];
    if (!w.active)
        return WarpClass::Inactive;
    if (w.streamDone) {
        if (w.pendingLoads > 0)
            return WarpClass::Draining;
        return warpRetiredCounted_[static_cast<std::size_t>(wid)]
                   ? WarpClass::Retired
                   : WarpClass::Retire;
    }
    // A Sync head is parked in the same pass that refills it.
    if (w.atBarrier || (w.hasInst && w.inst.op == OpClass::Sync))
        return WarpClass::Barrier;
    if (!w.hasInst)
        return WarpClass::Refill;
    const bool result_stall = w.inst.dependsOnPrev && cycle_ < w.readyAt;
    if (result_stall) {
        const auto s = static_cast<std::size_t>(w.readyAt % 64);
        wheel_[s] |= WarpMask{1} << wid;
        wheelSlots_ |= WarpMask{1} << s;
    }
    if (result_stall || (w.inst.dependsOnLoads && w.pendingLoads > 0))
        return WarpClass::Waiting;
    switch (w.inst.op) {
      case OpClass::Mem:
        return WarpClass::ReadyMem;
      case OpClass::Shared:
        return WarpClass::ReadyShared;
      default:
        return WarpClass::ReadyAlu;
    }
}

void
StreamingMultiprocessor::rebuildWarpClasses()
{
    classMask_.fill(0);
    liveCount_.fill(0);
    wheel_.fill(0);
    wheelSlots_ = 0;
    paused_ = 0;
    const int n = static_cast<int>(warps_.size());
    for (int wid = 0; wid < n; ++wid) {
        const WarpClass c = classify(wid);
        warpClass_[static_cast<std::size_t>(wid)] = c;
        classMask_[static_cast<std::size_t>(c)] |= WarpMask{1} << wid;
        if (warps_[static_cast<std::size_t>(wid)].paused)
            paused_ |= WarpMask{1} << wid;
        else
            ++liveCount_[static_cast<std::size_t>(c)];
    }
}

void
StreamingMultiprocessor::fireWheel(Cycle now)
{
    const auto s = static_cast<std::size_t>(now % 64);
    WarpMask later = 0;
    forEachBit(wheel_[s], [&](int wid) {
        if (warpClass_[static_cast<std::size_t>(wid)] != WarpClass::Waiting)
            return;
        if (warps_[static_cast<std::size_t>(wid)].readyAt > now)
            later |= WarpMask{1} << wid; // a later lap of the wheel
        else
            reclassify(wid);
    });
    wheel_[s] = later;
    if (!later)
        wheelSlots_ &= ~(WarpMask{1} << s);
}

Cycle
StreamingMultiprocessor::nextWheelWakeup() const
{
    if (!wheelSlots_)
        return noWakeup;
    const int from = static_cast<int>((cycle_ + 1) % 64);
    return cycle_ + 1 +
           static_cast<Cycle>(std::countr_zero(std::rotr(wheelSlots_, from)));
}

void
StreamingMultiprocessor::loadReturned(WarpId wid)
{
    auto &w = warps_[static_cast<std::size_t>(wid)];
    if (!w.active || w.pendingLoads == 0)
        return;
    if (--w.pendingLoads > 0)
        return;
    const WarpClass c = warpClass_[static_cast<std::size_t>(wid)];
    if (c == WarpClass::Waiting || c == WarpClass::Draining)
        reclassify(wid);
}

int
StreamingMultiprocessor::residentBlocks() const
{
    return (static_cast<int>(warps_.size()) -
            liveCount_[static_cast<std::size_t>(WarpClass::Inactive)]) /
           warpsPerBlock_;
}

int
StreamingMultiprocessor::unpausedBlocks() const
{
    int live = 0;
    for (std::size_t c = 0; c < liveCount_.size(); ++c)
        if (c != static_cast<std::size_t>(WarpClass::Inactive))
            live += liveCount_[c];
    return live / warpsPerBlock_;
}

bool
StreamingMultiprocessor::hasFreeSlot() const
{
    return mask(WarpClass::Inactive) != 0;
}

bool
StreamingMultiprocessor::wantsBlock() const
{
    // Prefer unpausing a resident block over fetching a new one: while a
    // paused block exists the SM never requests more work (paper IV-B).
    return kernel_ && hasFreeSlot() && paused_ == 0 &&
           unpausedBlocks() < targetBlocks_;
}

void
StreamingMultiprocessor::assignBlock(BlockId block)
{
    EQ_ASSERT(hasFreeSlot(), "assignBlock with no free slot on SM ", id_);
    wake();
    const int slot =
        std::countr_zero(mask(WarpClass::Inactive)) / warpsPerBlock_;

    auto &bs = blocks_[static_cast<std::size_t>(slot)];
    bs.occupied = true;
    bs.paused = false;
    bs.block = block;
    bs.warpsDone = 0;
    bs.assignOrder = assignCounter_++;

    for (int wib = 0; wib < warpsPerBlock_; ++wib) {
        const int wid = firstWarpOf(slot) + wib;
        auto &w = warps_[static_cast<std::size_t>(wid)];
        w.reset();
        w.active = true;
        w.blockSlot = slot;
        w.block = block;
        w.stream = kernel_->makeWarpStream(block, wib);
        warpRetiredCounted_[static_cast<std::size_t>(wid)] = false;
        setClass(wid, WarpClass::Refill);
    }
}

void
StreamingMultiprocessor::setTargetBlocks(int target)
{
    wake();
    targetBlocks_ = std::clamp(target, 1, blockSlots_);
    applyPauseState();
}

void
StreamingMultiprocessor::applyPauseState()
{
    // Pause the youngest running blocks while over target.
    while (unpausedBlocks() > targetBlocks_) {
        int victim = -1;
        std::uint64_t newest = 0;
        for (int s = 0; s < blockSlots_; ++s) {
            const auto &b = blocks_[static_cast<std::size_t>(s)];
            if (b.occupied && !b.paused &&
                (victim < 0 || b.assignOrder >= newest)) {
                victim = s;
                newest = b.assignOrder;
            }
        }
        if (victim < 0)
            break;
        setBlockPaused(victim, true);
    }

    // Unpause the oldest paused blocks while under target.
    while (unpausedBlocks() < targetBlocks_) {
        int pick = -1;
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (int s = 0; s < blockSlots_; ++s) {
            const auto &b = blocks_[static_cast<std::size_t>(s)];
            if (b.occupied && b.paused && b.assignOrder < oldest) {
                pick = s;
                oldest = b.assignOrder;
            }
        }
        if (pick < 0)
            break;
        setBlockPaused(pick, false);
    }
}

void
StreamingMultiprocessor::refillInstruction(WarpSlot &w)
{
    if (w.stream->next(w.inst)) {
        ++w.fetched;
        w.hasInst = true;
        w.readyAt = w.inst.dependsOnPrev
                        ? w.lastIssueCycle + w.lastResultLatency
                        : 0;
    } else {
        w.streamDone = true;
        w.stream.reset();
    }
}

void
StreamingMultiprocessor::handleRetirement(WarpId wid)
{
    warpRetiredCounted_[static_cast<std::size_t>(wid)] = true;
    setClass(wid, WarpClass::Retired);

    const int slot = warps_[static_cast<std::size_t>(wid)].blockSlot;
    auto &bs = blocks_[static_cast<std::size_t>(slot)];
    if (++bs.warpsDone < warpsPerBlock_)
        return;

    // Block complete: free the slot.
    const BlockId finished = bs.block;
    bs = BlockSlot{};
    for (int wib = 0; wib < warpsPerBlock_; ++wib) {
        const int i = firstWarpOf(slot) + wib;
        warps_[static_cast<std::size_t>(i)].reset();
        warpRetiredCounted_[static_cast<std::size_t>(i)] = false;
        setClass(i, WarpClass::Inactive);
    }
    ++blocksCompleted_;
    traceEmit(traceRing_, [&] {
        return makeSmEvent(TraceEventKind::BlockComplete, cycle_, id_,
                           finished,
                           static_cast<std::int64_t>(blocksCompleted_));
    });

    // Paper IV-B: a paused block is unpaused when an active block
    // finishes; no new GWDE request is made in that case.
    applyPauseState();
}

void
StreamingMultiprocessor::releaseBarriers()
{
    WarpMask parked = mask(WarpClass::Barrier) & ~paused_;
    const WarpMask done = mask(WarpClass::Draining) |
                          mask(WarpClass::Retire) |
                          mask(WarpClass::Retired);
    while (parked) {
        const WarpMask bm =
            blockMask(std::countr_zero(parked) / warpsPerBlock_);
        parked &= ~bm;
        // Every warp of the block is parked or has finished its program.
        if (((mask(WarpClass::Barrier) | done) & bm) != bm)
            continue;
        forEachBit(mask(WarpClass::Barrier) & bm, [this](int wid) {
            auto &w = warps_[static_cast<std::size_t>(wid)];
            w.atBarrier = false;
            w.hasInst = false; // consume the Sync instruction
            setClass(wid, WarpClass::Refill);
        });
    }
}

StreamingMultiprocessor::WarpMask
StreamingMultiprocessor::visitMask(int slots, int reg_reads, bool smem_free,
                                   bool lsu_free) const
{
    WarpMask m = mask(WarpClass::Refill) | mask(WarpClass::Retire);
    if (slots > 0 && reg_reads >= 3)
        m |= mask(WarpClass::ReadyAlu);
    if (slots > 0 && reg_reads >= 2 && smem_free)
        m |= mask(WarpClass::ReadyShared);
    if ((slots > 0 && reg_reads >= 2 && lsu_free) || memIssueFilter_)
        m |= mask(WarpClass::ReadyMem);
    return m & ~paused_;
}

WarpStateCounts
StreamingMultiprocessor::skippedCounts(const ClassTally &per_class)
{
    auto n = [&per_class](WarpClass c) {
        return per_class[static_cast<std::size_t>(c)];
    };
    WarpStateCounts counts;
    counts.unaccounted = n(WarpClass::Inactive);
    counts.waiting = n(WarpClass::Waiting) + n(WarpClass::Draining);
    counts.barrier = n(WarpClass::Barrier);
    counts.excessAlu = n(WarpClass::ReadyAlu) + n(WarpClass::ReadyShared);
    counts.excessMem = n(WarpClass::ReadyMem);
    counts.active = counts.waiting + counts.barrier + counts.excessAlu +
                    counts.excessMem;
    return counts;
}

WarpStateCounts
StreamingMultiprocessor::rangeCounts(WarpMask range) const
{
    ClassTally per_class{};
    for (std::size_t c = 0; c < per_class.size(); ++c)
        per_class[c] = std::popcount(classMask_[c] & range & ~paused_);
    return skippedCounts(per_class);
}

void
StreamingMultiprocessor::visitWarp(int wid, WarpMask later, IssuePorts &ports,
                                   WarpStateCounts &counts)
{
    auto &w = warps_[static_cast<std::size_t>(wid)];
    // The pass's counts hold this warp as skipped; its visit replaces
    // that. Only a ready warp counts when skipped (active and excess).
    switch (warpClass_[static_cast<std::size_t>(wid)]) {
      case WarpClass::Refill:
        refillInstruction(w);
        reclassify(wid);
        break;
      case WarpClass::ReadyMem:
        --counts.active;
        --counts.excessMem;
        break;
      case WarpClass::ReadyAlu:
      case WarpClass::ReadyShared:
        --counts.active;
        --counts.excessAlu;
        break;
      default:
        break;
    }

    switch (warpClass_[static_cast<std::size_t>(wid)]) {
      case WarpClass::Retire: {
        // Freeing the block slot (which may unpause another block)
        // changes how the rest of the rotation counts.
        const bool frees =
            blocks_[static_cast<std::size_t>(w.blockSlot)].warpsDone + 1 ==
            warpsPerBlock_;
        const WarpStateCounts before =
            frees ? rangeCounts(later) : WarpStateCounts{};
        handleRetirement(wid);
        if (frees) {
            counts.addScaled(before, -1);
            counts += rangeCounts(later);
            ++counts.unaccounted;
        }
        return;
      }
      case WarpClass::Draining:
      case WarpClass::Waiting:
        ++counts.active;
        ++counts.waiting;
        return;
      case WarpClass::Barrier:
        w.atBarrier = true;
        ++counts.active;
        ++counts.barrier;
        return;
      default:
        break;
    }
    ++counts.active;

    auto issue = [&](Cycle result_latency, int reg_reads) {
        w.hasInst = false;
        w.lastIssueCycle = cycle_;
        w.lastResultLatency = result_latency;
        setClass(wid, WarpClass::Refill);
        ++counts.issued;
        ++issued_;
        --ports.slots;
        ports.regReads -= reg_reads;
        if (ports.firstIssued < 0)
            ports.firstIssued = wid;
    };

    if (w.inst.op == OpClass::Mem) {
        if (memIssueFilter_ && !memIssueFilter_(wid)) {
            // CCWS-style throttle: held back, not pipe pressure.
            ++counts.waiting;
            return;
        }
        if (ports.slots > 0 && ports.regReads >= 2 && lsu_.canAccept()) {
            lsu_.accept(wid, w.inst);
            if (!w.inst.write)
                w.pendingLoads += w.inst.transactionCount;
            issue(1, 2);
            energy_.record(id_, EnergyEvent::SmIssue);
            energy_.record(id_, EnergyEvent::SmLsuOp);
            energy_.record(id_, EnergyEvent::SmRegAccess, 2);
        } else {
            ++counts.excessMem;
        }
        return;
    }

    if (w.inst.op == OpClass::Shared) {
        // Scratchpad access: an SM-side pipe that serializes on bank
        // conflicts. Contention here is SM pressure (X_alu), not
        // memory-system pressure.
        if (ports.slots > 0 && ports.regReads >= 2 &&
            cycle_ >= smemBusyUntil_) {
            const auto ways = static_cast<Cycle>(w.inst.conflictWays);
            smemBusyUntil_ = cycle_ + ways;
            issue(cfg_.smemLatency + ways - 1, 2);
            energy_.record(id_, EnergyEvent::SmIssue);
            energy_.record(id_, EnergyEvent::SmSharedAccess,
                           static_cast<std::uint64_t>(ways));
            energy_.record(id_, EnergyEvent::SmRegAccess, 2);
        } else {
            ++counts.excessAlu;
        }
        return;
    }

    // Arithmetic (ALU or SFU).
    if (ports.slots > 0 && ports.regReads >= 3) {
        // Real instruction mixes have varied result latencies; a
        // deterministic +/-2-cycle jitter keeps identical warps from
        // forming lockstep convoys that alias the issue slots.
        const bool sfu = w.inst.op == OpClass::Sfu;
        const Cycle base = sfu ? cfg_.sfuDepLatency : cfg_.aluDepLatency;
        const Cycle jitter = (static_cast<Cycle>(wid) * 7 + cycle_) % 5;
        issue(base + jitter - 2, 3);
        energy_.record(id_, EnergyEvent::SmIssue);
        // Divergent warps drive only a fraction of the datapath.
        energy_.recordScaled(
            id_, sfu ? EnergyEvent::SmSfuOp : EnergyEvent::SmAluOp,
            static_cast<double>(w.inst.activeLanes) / warpLanes);
        energy_.record(id_, EnergyEvent::SmRegAccess, 3);
    } else {
        ++counts.excessAlu;
    }
}

void
StreamingMultiprocessor::schedulePass()
{
    const int n = static_cast<int>(warps_.size());
    IssuePorts ports{cfg_.issueWidth, cfg_.regReadPorts};
    WarpStateCounts counts = skippedCounts(liveCount_);

    // Rotation position p is warp slot (start + p) mod n. Every slot is
    // counted as skipped up front; a visit corrects its own slot, and a
    // retirement that frees a block re-counts the positions after it,
    // so the freed slots there count as inactive and a block it
    // unpauses is visited from that position on.
    const int start = cfg_.scheduler == SchedulerPolicy::GreedyThenOldest
                          ? greedyWarp_
                          : rrStart_;
    auto slots_from = [&](int from) { // positions [from, n)
        return start + from >= n ? slotRange(start + from - n, start)
                                 : slotRange(start + from, n) |
                                       lowMask(start);
    };
    for (int pos = 0; pos < n;) {
        const WarpMask visit = visitMask(ports.slots, ports.regReads,
                                         cycle_ >= smemBusyUntil_,
                                         lsu_.canAccept());
        const WarpMask ahead = visit ? visit & slots_from(pos) : 0;
        if (!ahead)
            break;
        // Slots at or after start come first in the rotation.
        const WarpMask upper = ahead & ~lowMask(start);
        const int next = upper ? std::countr_zero(upper) - start
                               : std::countr_zero(ahead) + n - start;
        visitWarp(start + next < n ? start + next : start + next - n,
                  slots_from(next + 1), ports, counts);
        pos = next + 1;
    }

    if (++rrStart_ >= n)
        rrStart_ = 0;
    if (cfg_.scheduler == SchedulerPolicy::GreedyThenOldest &&
        ports.firstIssued >= 0) {
        greedyWarp_ = ports.firstIssued;
    }

    outcomeTotals_ += counts;
    lastCounts_ = counts;
}

void
StreamingMultiprocessor::tick(Cycle mem_now)
{
    ++cycle_;
    lsu_.beginCycle();
    if (wheelSlots_ >> (cycle_ % 64) & 1)
        fireWheel(cycle_);

    // 1. Returning memory data.
    memSystem_.drainReadyResponses(id_, mem_now, [this](const MemAccess &r) {
        if (r.texture)
            loadReturned(r.warp);
        else
            l1_.fill(r.lineAddr, [this](WarpId w) { loadReturned(w); });
    });

    // 2. L1 hits maturing this cycle.
    lsu_.drainHitWakeups(cycle_, [this](WarpId w) { loadReturned(w); });

    // 3. Scheduling / issue.
    schedulePass();

    // 4. LSU transaction processing.
    lsu_.tick(cycle_);

    // 5. Barrier release.
    releaseBarriers();

    if (!idle())
        ++activeCycles_;
}

StreamingMultiprocessor::StallCheck
StreamingMultiprocessor::checkStalled() const
{
    if (debugStallWakeup_)
        return StallCheck{true, *debugStallWakeup_};
    // The next pass runs at cycle_ + 1 with fresh issue ports and an
    // LSU accept gate that beginCycle() resets.
    const bool smem_free = cycle_ + 1 >= smemBusyUntil_;
    if (memIssueFilter_ ||
        visitMask(cfg_.issueWidth, cfg_.regReadPorts, smem_free,
                  !lsu_.queueFull()) != 0 ||
        !lsu_.wouldIdle())
        return StallCheck{};
    Cycle wakeup = std::min(nextWheelWakeup(), lsu_.nextHitWakeup());
    if (mask(WarpClass::ReadyShared) & ~paused_)
        wakeup = std::min(wakeup, smemBusyUntil_);
    return StallCheck{true, wakeup};
}

void
StreamingMultiprocessor::skipCycles(Cycle n)
{
    if (n == 0)
        return;
    if (!debugStallWakeup_) {
        const StallCheck chk = checkStalled();
        EQ_ASSERT(chk.skippable && cycle_ + n < chk.wakeup, "skipCycles(",
                  n, ") on SM ", id_, " at cycle ", cycle_,
                  " is not a stalled span");
    }

    cycle_ += n;
    lsu_.skipCycles(n); // covers beginCycle() and the blocked-head retry
    const int nw = static_cast<int>(warps_.size());
    if (nw > 0)
        rrStart_ = static_cast<int>((static_cast<Cycle>(rrStart_) + n) %
                                    static_cast<Cycle>(nw));
    // greedyWarp_ only moves when something issues; smemBusyUntil_ only
    // when a Shared op issues — both are untouched by a stalled span.
    lastCounts_ = skippedCounts(liveCount_);
    outcomeTotals_.addScaled(lastCounts_, static_cast<std::int64_t>(n));
    if (!idle())
        activeCycles_ += n;
}

Cycle
StreamingMultiprocessor::stalledWakeup() const
{
    const StallCheck chk = checkStalled();
    if (!chk.skippable)
        return 0;
    if (chk.wakeup <= cycle_)
        fatal("SM ", id_, " reported stall wakeup ", chk.wakeup,
              " at cycle ", cycle_, " (not in the future); rerun with "
              "fast_path=0 and diff traces — see docs/FAST_PATH.md");
    return chk.wakeup;
}

void
StreamingMultiprocessor::wake()
{
    if (!wakeAt_)
        return;
    settle(clock_->cycle());
    *wakeAt_ = 0;
}

WarpStateCounts
StreamingMultiprocessor::sampleStates() const
{
    // Lagging the device clock means asleep: each slept cycle repeats a
    // pass that visits nobody.
    if (clock_ && cycle_ < clock_->cycle())
        return skippedCounts(liveCount_);
    return lastCounts_;
}

void
StreamingMultiprocessor::resetStats()
{
    wake();
    issued_ = 0;
    activeCycles_ = 0;
    blocksCompleted_ = 0;
    outcomeTotals_ = WarpStateCounts{};
}

void
StreamingMultiprocessor::visitState(StateVisitor &v)
{
    // A save reads settled state; a load replaces it, awake.
    if (wakeAt_) {
        if (v.saving())
            settle(clock_->cycle());
        else
            *wakeAt_ = 0;
    }
    // v2: warp slots no longer carry a per-cycle outcome. v3: a warp's
    // head instruction names a line range, not 32 line addresses, and
    // the unused transaction cursor is gone. v4: block slots are written
    // field by field (no padding bytes).
    v.beginSection("sm", 4);
    v.expectMatch(id_, "SM id");
    v.field(warpsPerBlock_);
    v.field(blockSlots_);
    v.field(warps_);
    v.field(blocks_);
    v.field(warpRetiredCounted_);
    v.field(targetBlocks_);
    v.field(assignCounter_);
    v.field(cycle_);
    v.field(rrStart_);
    v.field(greedyWarp_);
    v.field(smemBusyUntil_);
    v.field(issued_);
    v.field(activeCycles_);
    v.field(blocksCompleted_);
    v.field(outcomeTotals_);
    v.field(lastCounts_);
    v.field(l1_);
    v.field(lsu_);
    if (!v.saving()) {
        kernel_ = nullptr; // rebindKernel() must follow for mid-kernel
        // The warp-state engine indexes these by warp slot.
        const auto slots = static_cast<std::size_t>(blockSlots_);
        if (warpsPerBlock_ < 1 || blocks_.size() != slots ||
            warps_.size() != slots * static_cast<std::size_t>(
                                         warpsPerBlock_) ||
            warps_.size() > static_cast<std::size_t>(maxWarpSlots) ||
            warpRetiredCounted_.size() != warps_.size())
            fatal("checkpoint SM ", id_, " holds ", warps_.size(),
                  " warp slots in ", blocks_.size(), " blocks of ",
                  warpsPerBlock_, "; expected ", blockSlots_,
                  " blocks and at most ", maxWarpSlots, " slots");
        rebuildWarpClasses();
    }
    v.endSection();
}

void
StreamingMultiprocessor::rebindKernel(const KernelLaunch *kernel)
{
    EQ_ASSERT(kernel, "rebindKernel needs a kernel");
    wake();
    const int wpb = std::max(1, kernel->info().warpsPerBlock);
    const int by_occupancy = kernel->info().maxBlocksPerSm;
    const int by_warps = cfg_.maxWarpsPerSm / wpb;
    const int slots = std::max(
        1, std::min({by_occupancy, by_warps, cfg_.maxBlocksPerSm}));
    if (wpb != warpsPerBlock_ || slots != blockSlots_)
        fatal("checkpoint geometry (", warpsPerBlock_, " warps/block, ",
              blockSlots_, " block slots) does not match kernel '",
              kernel->info().name, "' (", wpb, " warps/block, ", slots,
              " block slots)");
    kernel_ = kernel;

    // Rebuild in-flight instruction streams. The generators are pure
    // functions of (kernel, block, warp), so replaying the recorded
    // number of draws lands each stream exactly where it was saved.
    for (int wid = 0; wid < static_cast<int>(warps_.size()); ++wid) {
        auto &w = warps_[static_cast<std::size_t>(wid)];
        w.stream.reset();
        if (!w.active || w.streamDone)
            continue;
        const int wib = wid - firstWarpOf(w.blockSlot);
        w.stream = kernel_->makeWarpStream(w.block, wib);
        WarpInstruction scratch;
        for (std::uint64_t i = 0; i < w.fetched; ++i) {
            const bool ok = w.stream->next(scratch);
            EQ_ASSERT(ok, "stream replay ran dry on SM ", id_, " warp ",
                      wid);
        }
    }
}

} // namespace equalizer

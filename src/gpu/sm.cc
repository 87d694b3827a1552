#include "sm.hh"

#include <algorithm>
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

void
StreamingMultiprocessor::setKernel(const KernelLaunch *kernel)
{
    kernel_ = kernel;
    warpsPerBlock_ = std::max(1, kernel->info().warpsPerBlock);
    const int by_occupancy = kernel->info().maxBlocksPerSm;
    const int by_warps = cfg_.maxWarpsPerSm / warpsPerBlock_;
    blockSlots_ = std::max(
        1, std::min({by_occupancy, by_warps, cfg_.maxBlocksPerSm}));

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
    stalledUntil_ = 0;
}

int
StreamingMultiprocessor::residentBlocks() const
{
    int n = 0;
    for (const auto &b : blocks_)
        n += b.occupied ? 1 : 0;
    return n;
}

int
StreamingMultiprocessor::unpausedBlocks() const
{
    int n = 0;
    for (const auto &b : blocks_)
        n += (b.occupied && !b.paused) ? 1 : 0;
    return n;
}

bool
StreamingMultiprocessor::hasFreeSlot() const
{
    for (const auto &b : blocks_)
        if (!b.occupied)
            return true;
    return false;
}

bool
StreamingMultiprocessor::wantsBlock() const
{
    if (!kernel_ || !hasFreeSlot())
        return false;
    // Prefer unpausing a resident block over fetching a new one: while a
    // paused block exists the SM never requests more work (paper IV-B).
    for (const auto &b : blocks_)
        if (b.occupied && b.paused)
            return false;
    return unpausedBlocks() < targetBlocks_;
}

void
StreamingMultiprocessor::assignBlock(BlockId block)
{
    int slot = -1;
    for (int s = 0; s < blockSlots_; ++s) {
        if (!blocks_[static_cast<std::size_t>(s)].occupied) {
            slot = s;
            break;
        }
    }
    EQ_ASSERT(slot >= 0, "assignBlock with no free slot on SM ", id_);

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
    }
    stalledUntil_ = 0;
}

void
StreamingMultiprocessor::setTargetBlocks(int target)
{
    targetBlocks_ = std::clamp(target, 1, blockSlots_);
    applyPauseState();
    stalledUntil_ = 0;
}

void
StreamingMultiprocessor::applyPauseState()
{
    auto set_block_pause = [this](int slot, bool paused) {
        auto &b = blocks_[static_cast<std::size_t>(slot)];
        b.paused = paused;
        for (int wib = 0; wib < warpsPerBlock_; ++wib)
            warps_[static_cast<std::size_t>(firstWarpOf(slot) + wib)]
                .paused = paused;
        traceEmit(traceRing_, [&] {
            return makeSmEvent(paused ? TraceEventKind::CtaPause
                                      : TraceEventKind::CtaResume,
                               cycle_, id_, slot, b.block);
        });
    };

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
        set_block_pause(victim, true);
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
        set_block_pause(pick, false);
    }
}

void
StreamingMultiprocessor::refillInstruction(WarpSlot &w)
{
    WarpInstruction inst;
    if (w.stream->next(inst)) {
        ++w.fetched;
        w.inst = inst;
        w.hasInst = true;
        w.nextTransaction = 0;
        w.readyAt = inst.dependsOnPrev
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
    auto &w = warps_[static_cast<std::size_t>(wid)];
    if (warpRetiredCounted_[static_cast<std::size_t>(wid)] ||
        !w.streamDone || w.pendingLoads > 0) {
        return;
    }
    warpRetiredCounted_[static_cast<std::size_t>(wid)] = true;

    const int slot = w.blockSlot;
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

    if (onBlockComplete_)
        onBlockComplete_(id_, finished);
}

bool
StreamingMultiprocessor::releaseBarriers()
{
    bool released = false;
    for (int s = 0; s < blockSlots_; ++s) {
        const auto &bs = blocks_[static_cast<std::size_t>(s)];
        if (!bs.occupied || bs.paused)
            continue;
        bool any_at_barrier = false;
        bool all_parked = true;
        for (int wib = 0; wib < warpsPerBlock_; ++wib) {
            const auto &w =
                warps_[static_cast<std::size_t>(firstWarpOf(s) + wib)];
            if (!w.active)
                continue;
            if (w.atBarrier) {
                any_at_barrier = true;
            } else if (!w.streamDone) {
                all_parked = false;
                break;
            }
        }
        if (!any_at_barrier || !all_parked)
            continue;
        for (int wib = 0; wib < warpsPerBlock_; ++wib) {
            auto &w =
                warps_[static_cast<std::size_t>(firstWarpOf(s) + wib)];
            if (w.atBarrier) {
                w.atBarrier = false;
                w.hasInst = false; // consume the Sync instruction
            }
        }
        released = true;
    }
    return released;
}

Cycle
StreamingMultiprocessor::schedulePass()
{
    const int n = static_cast<int>(warps_.size());
    int slots = cfg_.issueWidth;
    int reg_reads = cfg_.regReadPorts;
    WarpStateCounts counts;

    const int start = cfg_.scheduler == SchedulerPolicy::GreedyThenOldest
                          ? greedyWarp_
                          : rrStart_;
    int first_issued = -1;
    bool freed_block = false;
    Cycle wakeup = noWakeup;

    for (int i = 0; i < n; ++i) {
        const int wid = (start + i) % n;
        auto &w = warps_[static_cast<std::size_t>(wid)];

        if (!w.active) {
            ++counts.unaccounted;
            continue;
        }
        if (w.paused)
            continue;
        if (!w.hasInst && !w.streamDone && !w.atBarrier)
            refillInstruction(w);

        if (w.streamDone) {
            handleRetirement(wid);
            // handleRetirement may have freed the whole block slot.
            if (!w.active) {
                freed_block = true;
                ++counts.unaccounted;
                continue;
            }
            if (w.pendingLoads > 0) {
                ++counts.active;
                ++counts.waiting;
            }
            continue;
        }

        if (w.atBarrier) {
            ++counts.active;
            ++counts.barrier;
            continue;
        }

        EQ_ASSERT(w.hasInst, "active unparked warp without an instruction");
        ++counts.active;

        if (w.inst.op == OpClass::Sync) {
            w.atBarrier = true;
            ++counts.barrier;
            continue;
        }

        const bool load_stall =
            w.inst.dependsOnLoads && w.pendingLoads > 0;
        const bool result_stall =
            w.inst.dependsOnPrev && cycle_ < w.readyAt;
        if (load_stall || result_stall) {
            // Load returns are memory events; a result stall ends at
            // readyAt.
            if (!load_stall)
                wakeup = std::min(wakeup, w.readyAt);
            ++counts.waiting;
            continue;
        }

        if (w.inst.op == OpClass::Mem) {
            if (memIssueFilter_ && !memIssueFilter_(wid)) {
                // CCWS-style throttle: held back, not pipe pressure.
                ++counts.waiting;
                continue;
            }
            if (slots > 0 && reg_reads >= 2 && lsu_.canAccept()) {
                lsu_.accept(wid, w.inst);
                if (!w.inst.write)
                    w.pendingLoads += w.inst.transactionCount;
                w.hasInst = false;
                w.lastIssueCycle = cycle_;
                w.lastResultLatency = 1;
                ++counts.issued;
                ++issued_;
                --slots;
                if (first_issued < 0)
                    first_issued = wid;
                reg_reads -= 2;
                energy_.record(id_, EnergyEvent::SmIssue);
                energy_.record(id_, EnergyEvent::SmLsuOp);
                energy_.record(id_, EnergyEvent::SmRegAccess, 2);
            } else {
                ++counts.excessMem;
            }
            continue;
        }

        if (w.inst.op == OpClass::Shared) {
            // Scratchpad access: an SM-side pipe that serializes on bank
            // conflicts. Contention here is SM pressure (X_alu), not
            // memory-system pressure.
            if (slots > 0 && reg_reads >= 2 && cycle_ >= smemBusyUntil_) {
                smemBusyUntil_ =
                    cycle_ + static_cast<Cycle>(w.inst.conflictWays);
                w.hasInst = false;
                w.lastIssueCycle = cycle_;
                w.lastResultLatency =
                    cfg_.smemLatency +
                    static_cast<Cycle>(w.inst.conflictWays) - 1;
                ++counts.issued;
                ++issued_;
                --slots;
                reg_reads -= 2;
                if (first_issued < 0)
                    first_issued = wid;
                energy_.record(id_, EnergyEvent::SmIssue);
                energy_.record(id_, EnergyEvent::SmSharedAccess,
                               static_cast<std::uint64_t>(
                                   w.inst.conflictWays));
                energy_.record(id_, EnergyEvent::SmRegAccess, 2);
            } else {
                if (cycle_ < smemBusyUntil_)
                    wakeup = std::min(wakeup, smemBusyUntil_);
                ++counts.excessAlu;
            }
            continue;
        }

        // Arithmetic (ALU or SFU).
        if (slots > 0 && reg_reads >= 3) {
            w.hasInst = false;
            w.lastIssueCycle = cycle_;
            // Real instruction mixes have varied result latencies; a
            // deterministic +/-2-cycle jitter keeps identical warps from
            // forming lockstep convoys that alias the issue slots.
            const Cycle base = w.inst.op == OpClass::Sfu
                                   ? cfg_.sfuDepLatency
                                   : cfg_.aluDepLatency;
            const Cycle jitter =
                (static_cast<Cycle>(wid) * 7 + cycle_) % 5;
            w.lastResultLatency = base + jitter - 2;
            ++counts.issued;
            ++issued_;
            --slots;
            if (first_issued < 0)
                first_issued = wid;
            reg_reads -= 3;
            energy_.record(id_, EnergyEvent::SmIssue);
            // Divergent warps drive only a fraction of the datapath.
            energy_.recordScaled(id_,
                                 w.inst.op == OpClass::Sfu
                                     ? EnergyEvent::SmSfuOp
                                     : EnergyEvent::SmAluOp,
                                 static_cast<double>(w.inst.activeLanes) /
                                     warpLanes);
            energy_.record(id_, EnergyEvent::SmRegAccess, 3);
        } else {
            ++counts.excessAlu;
        }
    }

    rrStart_ = n ? (rrStart_ + 1) % n : 0;
    if (cfg_.scheduler == SchedulerPolicy::GreedyThenOldest &&
        first_issued >= 0) {
        greedyWarp_ = first_issued;
    }

    outcomeTotals_ += counts;
    lastCounts_ = counts;
    return counts.issued > 0 || freed_block ? 0 : wakeup;
}

void
StreamingMultiprocessor::tick(Cycle mem_now)
{
    // Fast tick (docs/FAST_PATH.md): while the last full tick's stall
    // verdict stands, this cycle's pass would repeat that one, so only
    // its bookkeeping is replayed. Decisions are SM-local (plus this
    // SM's response-queue head, stable during the parallel phase), so
    // results are identical at any threads= count. The memory system
    // keeps running between SM ticks, so a matured response or an LSU
    // head that could now move ends the verdict's span early.
    if (cfg_.fastPath && cycle_ + 1 < stalledUntil_ &&
        !memSystem_.hasDrainableResponse(id_, mem_now) &&
        lsu_.wouldIdle()) {
        ++cycle_;
        lsu_.skipCycles(1); // beginCycle() plus the blocked-head retry
        const int nw = static_cast<int>(warps_.size());
        if (nw > 0)
            rrStart_ = (rrStart_ + 1) % nw;
        // greedyWarp_ and smemBusyUntil_ only move when something issues.
        outcomeTotals_ += lastCounts_;
        if (residentBlocks() > 0)
            ++activeCycles_;
        return;
    }

    ++cycle_;
    lsu_.beginCycle();

    // 1. Returning memory data.
    for (const auto &resp :
         memSystem_.drainResponses(id_, mem_now,
                                   std::numeric_limits<int>::max())) {
        if (resp.texture) {
            auto &w = warps_[static_cast<std::size_t>(resp.warp)];
            if (w.active && w.pendingLoads > 0)
                --w.pendingLoads;
        } else {
            for (WarpId wid : l1_.fill(resp.lineAddr)) {
                auto &w = warps_[static_cast<std::size_t>(wid)];
                if (w.active && w.pendingLoads > 0)
                    --w.pendingLoads;
            }
        }
    }

    // 2. L1 hits maturing this cycle.
    for (WarpId wid : lsu_.drainHitWakeups(cycle_)) {
        auto &w = warps_[static_cast<std::size_t>(wid)];
        if (w.active && w.pendingLoads > 0)
            --w.pendingLoads;
    }

    // 3. Scheduling / issue.
    const Cycle pass_wakeup = schedulePass();

    // 4. LSU transaction processing.
    lsu_.tick(cycle_);

    // 5. Barrier release.
    const bool released = releaseBarriers();

    // The stall verdict: the pass stands for every later cycle before
    // its wakeup unless what ran after it can change the next pass — a
    // released barrier, or an LSU queue with room for an X_mem warp —
    // or an external gate may flip any cycle.
    const bool void_verdict =
        released || memIssueFilter_ || debugStallWakeup_ ||
        (lastCounts_.excessMem > 0 && !lsu_.queueFull());
    stalledUntil_ =
        void_verdict ? 0 : std::min(pass_wakeup, lsu_.nextHitWakeup());

    if (residentBlocks() > 0)
        ++activeCycles_;
}

StreamingMultiprocessor::StallCheck
StreamingMultiprocessor::checkStalled() const
{
    if (debugStallWakeup_)
        return StallCheck{true, *debugStallWakeup_};
    // Memory ticks since the last SM tick may have freed downstream
    // queue room, so the LSU idleness is re-probed fresh.
    if (stalledUntil_ == 0 || !lsu_.wouldIdle())
        return StallCheck{};
    return StallCheck{true, stalledUntil_};
}

void
StreamingMultiprocessor::skipCycles(Cycle n)
{
    if (n == 0)
        return;
    EQ_ASSERT(debugStallWakeup_ || cycle_ + n < stalledUntil_,
              "skipCycles(", n, ") on SM ", id_, " at cycle ", cycle_,
              " outlives its stall verdict (", stalledUntil_, ")");

    cycle_ += n;
    lsu_.skipCycles(n); // covers beginCycle() and the blocked-head retry
    const int nw = static_cast<int>(warps_.size());
    if (nw > 0)
        rrStart_ = static_cast<int>((static_cast<Cycle>(rrStart_) + n) %
                                    static_cast<Cycle>(nw));
    // greedyWarp_ only moves when something issues; smemBusyUntil_ only
    // when a Shared op issues — both are untouched by a stalled span.
    outcomeTotals_.addScaled(lastCounts_, static_cast<std::int64_t>(n));
    if (residentBlocks() > 0)
        activeCycles_ += n;
}

WarpStateCounts
StreamingMultiprocessor::sampleStates() const
{
    return lastCounts_;
}

void
StreamingMultiprocessor::resetStats()
{
    issued_ = 0;
    activeCycles_ = 0;
    blocksCompleted_ = 0;
    outcomeTotals_ = WarpStateCounts{};
}

void
StreamingMultiprocessor::visitState(StateVisitor &v)
{
    // v2: warp slots no longer carry a per-cycle outcome.
    v.beginSection("sm", 2);
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
        stalledUntil_ = 0;
    }
    v.endSection();
}

void
StreamingMultiprocessor::rebindKernel(const KernelLaunch *kernel)
{
    EQ_ASSERT(kernel, "rebindKernel needs a kernel");
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

#include "l2_cache.hh"

#include <algorithm>

namespace equalizer
{

L2Partition::L2Partition(const MemConfig &cfg, int partition_id,
                         EnergyModel &energy)
    : cfg_(cfg), energy_(energy), tags_(cfg.l2SetsPerPartition, cfg.l2Ways),
      input_(cfg.partitionInQueueCap),
      output_(/*capacity=*/cfg.partitionInQueueCap),
      dram_(cfg, partition_id, energy)
{
}

void
L2Partition::installLine(Addr line_addr, bool dirty, Cycle now)
{
    const auto evicted = tags_.insert(line_addr, /*owner=*/-1, dirty);
    if (evicted && evicted->dirty) {
        ++writebacks_;
        // Best-effort writeback: occupy DRAM when there is room,
        // otherwise account the energy only. This cannot deadlock the
        // request path and slightly under-counts writeback occupancy
        // under extreme pressure (documented in DESIGN.md).
        MemAccess wb;
        wb.lineAddr = evicted->lineAddr;
        wb.write = true;
        wb.sm = -1;
        if (!dram_.submit(wb, now))
            energy_.record(EnergyEvent::DramAccess);
    }
}

void
L2Partition::handleRequest(Cycle now)
{
    if (!input_.headReady(now))
        return;

    MemAccess &head = input_.front();
    energy_.record(EnergyEvent::L2Access);

    if (head.write) {
        // Write-allocate, write-back: a hit only touches and dirties.
        ++(tags_.probe(head.lineAddr) ? hits_ : misses_);
        installLine(head.lineAddr, /*dirty=*/true, now);
        input_.popReady(now);
        return;
    }

    if (tags_.lookup(head.lineAddr)) {
        if (output_.full())
            return; // retry next cycle
        ++hits_;
        auto access = *input_.popReady(now);
        output_.push(access, now + cfg_.l2HitLatency);
        return;
    }

    // Load miss: forward to DRAM; block the head while DRAM is full.
    if (dram_.full())
        return;
    ++misses_;
    auto access = *input_.popReady(now);
    dram_.submit(access, now);
}

void
L2Partition::tick(Cycle now)
{
    // DRAM completion path first so its output slot check is accurate.
    // A drained writeback returns nothing to the SMs.
    if (!output_.full()) {
        if (auto done = dram_.tick(now); done && !done->write) {
            installLine(done->lineAddr, /*dirty=*/false, now);
            output_.push(*done, now + cfg_.l2HitLatency);
        }
    }

    handleRequest(now);
}

Cycle
L2Partition::wakeCycle(Cycle now) const
{
    // The DRAM ticks only while the output has room.
    Cycle wake = noWakeup;
    if (!output_.full()) {
        if (dram_.inService())
            wake = dram_.busyUntil();
        else if (dram_.queueDepth() > 0)
            return now + 1; // starts a burst
    }
    if (input_.empty())
        return wake;
    if (input_.headReadyAt() > now)
        return std::min(wake, input_.headReadyAt());
    const MemAccess &head = input_.front();
    if (head.write || !blockedMiss(head))
        return now + 1;
    return wake;
}

bool
L2Partition::blockedMiss(const MemAccess &head) const
{
    return dram_.full() && !tags_.probe(head.lineAddr);
}

void
L2Partition::creditSleep(Cycle from, Cycle until)
{
    if (!output_.full())
        dram_.creditIdle(from, until);
    if (input_.empty() || input_.front().write ||
        !blockedMiss(input_.front()))
        return;
    const Cycle first = std::max(from, input_.headReadyAt());
    if (first < until)
        energy_.recordRepeated(EnergyEvent::L2Access, until - first);
}

void
L2Partition::flush()
{
    tags_.invalidateAll();
}

void
L2Partition::visitState(StateVisitor &v)
{
    // v2: the dirty bits live in the tag lines. v3: padding-free tag
    // lines; queued accesses written field by field.
    v.beginSection("l2", 3);
    v.field(tags_);
    v.field(input_);
    v.field(output_);
    v.field(dram_);
    v.field(hits_);
    v.field(misses_);
    v.field(writebacks_);
    v.endSection();
}

} // namespace equalizer

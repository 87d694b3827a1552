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
    auto evicted = tags_.insert(line_addr);
    if (dirty)
        dirty_.insert(line_addr);
    if (evicted) {
        auto it = dirty_.find(evicted->lineAddr);
        if (it != dirty_.end()) {
            dirty_.erase(it);
            ++writebacks_;
            // Best-effort writeback: occupy DRAM when there is room,
            // otherwise account the energy only. This cannot deadlock
            // the request path and slightly under-counts writeback
            // occupancy under extreme pressure (documented in DESIGN.md).
            MemAccess wb;
            wb.lineAddr = evicted->lineAddr;
            wb.write = true;
            wb.sm = -1;
            if (!dram_.submit(wb, now))
                energy_.record(EnergyEvent::DramAccess);
        }
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
        // Write-allocate, write-back.
        if (tags_.lookup(head.lineAddr)) {
            ++hits_;
        } else {
            ++misses_;
            installLine(head.lineAddr, /*dirty=*/true, now);
        }
        dirty_.insert(head.lineAddr);
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
    if (!output_.full()) {
        if (auto done = dram_.tick(now)) {
            if (done->write) {
                // A drained writeback; nothing returns to the SMs.
            } else {
                installLine(done->lineAddr, /*dirty=*/false, now);
                output_.push(*done, now + cfg_.l2HitLatency);
            }
        }
    }

    handleRequest(now);
}

void
L2Partition::flush()
{
    tags_.invalidateAll();
    dirty_.clear();
}

void
L2Partition::visitState(StateVisitor &v)
{
    v.beginSection("l2", 1);
    v.field(tags_);
    v.field(input_);
    v.field(output_);
    v.field(dram_);
    // The dirty set is hash-ordered; write it sorted so the stream is
    // canonical.
    std::vector<Addr> addrs(dirty_.begin(), dirty_.end());
    std::sort(addrs.begin(), addrs.end());
    v.field(addrs);
    if (!v.saving()) {
        dirty_.clear();
        dirty_.insert(addrs.begin(), addrs.end());
    }
    v.field(hits_);
    v.field(misses_);
    v.field(writebacks_);
    v.endSection();
}

} // namespace equalizer

#include "dram.hh"

#include <algorithm>

namespace equalizer
{

DramPartition::DramPartition(const MemConfig &cfg, int partition_id,
                             EnergyModel &energy)
    : cfg_(cfg), id_(partition_id), energy_(energy), cap_(cfg.dramQueueCap),
      openRow_(static_cast<std::size_t>(cfg.banksPerPartition), -1)
{
}

int
DramPartition::bankOf(Addr line_addr) const
{
    // Lines are already striped across partitions by the caller; within a
    // partition, consecutive partition-local lines stripe across banks at
    // row granularity so a stream keeps a row open.
    const Addr local = line_addr / lineBytes /
                       static_cast<Addr>(cfg_.numPartitions);
    return static_cast<int>((local / cfg_.linesPerRow) %
                            static_cast<Addr>(cfg_.banksPerPartition));
}

std::uint64_t
DramPartition::rowOf(Addr line_addr) const
{
    const Addr local = line_addr / lineBytes /
                       static_cast<Addr>(cfg_.numPartitions);
    return local / cfg_.linesPerRow / cfg_.banksPerPartition;
}

DramPartition::Pending
DramPartition::pending(const MemAccess &access, Cycle now) const
{
    return Pending{access, now, bankOf(access.lineAddr),
                   static_cast<std::int64_t>(rowOf(access.lineAddr))};
}

bool
DramPartition::submit(const MemAccess &access, Cycle now)
{
    if (full())
        return false;
    queue_.push_back(pending(access, now));
    return true;
}

void
DramPartition::creditIdle(Cycle from, Cycle until)
{
    if (inService_ || !queue_.empty() || from >= until)
        return;
    // tick() powers down at the first cycle lastActive_ + idle cycles.
    if (!poweredDown_ && cfg_.dramPowerDownIdleCycles > 0) {
        const Cycle at = lastActive_ + cfg_.dramPowerDownIdleCycles;
        if (at < until) {
            poweredDown_ = true;
            from = std::max(from, at);
        }
    }
    if (poweredDown_)
        poweredDownCycles_ += until - from;
}

std::optional<MemAccess>
DramPartition::tick(Cycle now)
{
    std::optional<MemAccess> completed;

    if (inService_ && busyUntil_ <= now) {
        completed = inService_->access;
        inService_.reset();
        lastActive_ = now;
    }

    // Interface power management: enter the low-power state after a
    // long idle stretch; account time spent there.
    if (!inService_ && queue_.empty()) {
        if (cfg_.dramPowerDownIdleCycles > 0 &&
            now - lastActive_ >= cfg_.dramPowerDownIdleCycles) {
            poweredDown_ = true;
        }
        if (poweredDown_)
            ++poweredDownCycles_;
    }

    if (!inService_ && !queue_.empty()) {
        // FR-FCFS: oldest row-hit first, else the oldest request.
        std::size_t pick = 0;
        bool found_hit = false;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            if (openRow_[static_cast<std::size_t>(queue_[i].bank)] ==
                queue_[i].row) {
                pick = i;
                found_hit = true;
                break;
            }
        }

        Pending p = queue_[pick];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));

        Cycle service;
        if (found_hit) {
            service = cfg_.dramRowHitCycles;
            ++rowHits_;
        } else {
            service = cfg_.dramRowMissCycles;
            openRow_[static_cast<std::size_t>(p.bank)] = p.row;
            energy_.record(EnergyEvent::DramActivate);
        }
        if (poweredDown_) {
            // Waking the interface delays the first access.
            service += cfg_.dramPowerUpCycles;
            poweredDown_ = false;
        }
        energy_.record(EnergyEvent::DramAccess);
        ++accesses_;
        queueDelaySum_ += now - p.enqueued;

        busyUntil_ = now + service;
        inService_ = p;
        lastActive_ = now;
    }

    return completed;
}

void
DramPartition::visitState(StateVisitor &v)
{
    // v2: queued and in-service requests are written field by field.
    v.beginSection("dram", 2);
    v.expectMatch(id_, "DRAM partition id");
    v.expectMatch(cap_, "DRAM queue capacity");
    v.field(queue_);
    v.field(openRow_);
    v.field(inService_);
    v.field(busyUntil_);
    v.field(accesses_);
    v.field(rowHits_);
    v.field(queueDelaySum_);
    v.field(lastActive_);
    v.field(poweredDown_);
    v.field(poweredDownCycles_);
    v.endSection();
    if (!v.saving()) {
        for (auto &p : queue_)
            p = pending(p.access, p.enqueued);
        if (inService_)
            inService_ = pending(inService_->access, inService_->enqueued);
    }
}

} // namespace equalizer

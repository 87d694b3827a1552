#include "memory_system.hh"

namespace equalizer
{

MemorySystem::MemorySystem(const MemConfig &cfg, int num_sms,
                           EnergyModel &energy)
    : cfg_(cfg), energy_(energy), numSms_(num_sms),
      injectQueues_(static_cast<std::size_t>(num_sms),
                    BoundedQueue<MemAccess>(cfg_.smInjectQueueCap)),
      texQueues_(static_cast<std::size_t>(num_sms),
                 BoundedQueue<MemAccess>(cfg_.texInjectQueueCap)),
      responseQueues_(static_cast<std::size_t>(num_sms),
                      DelayQueue<MemAccess>(cfg_.smResponseQueueCap)),
      responseReadyAt_(static_cast<std::size_t>(num_sms), noWakeup)
{
    partitions_.reserve(static_cast<std::size_t>(cfg_.numPartitions));
    for (int p = 0; p < cfg_.numPartitions; ++p)
        partitions_.emplace_back(cfg_, p, energy);
}

int
MemorySystem::partitionOf(Addr line_addr) const
{
    return static_cast<int>((line_addr / lineBytes) %
                            static_cast<Addr>(cfg_.numPartitions));
}

void
MemorySystem::tick(Cycle now)
{
    ++tickCount_;
    for (auto &p : partitions_) {
        p.tick(now);
        dramQueueDepthSum_ += p.dram().queueDepth();
    }

    // --- Request network: move up to nocRequestBwPerCycle transactions
    // from SM injection queues into partition input queues.
    int request_budget = cfg_.nocRequestBwPerCycle;
    for (int scanned = 0; scanned < numSms_ && request_budget > 0; ++scanned) {
        const int sm = (rrSm_ + scanned) % numSms_;
        // The regular (L1 miss/store) path has priority; the texture path
        // fills any leftover slot for this SM.
        for (auto *queue : {&injectQueues_[static_cast<std::size_t>(sm)],
                            &texQueues_[static_cast<std::size_t>(sm)]}) {
            if (request_budget == 0 || queue->empty())
                continue;
            MemAccess &head = queue->front();
            auto &dest = partitions_[static_cast<std::size_t>(
                                         partitionOf(head.lineAddr))]
                             .input();
            if (dest.full())
                continue; // head-of-line block for this queue
            if (queue->full() && fullPopHook_)
                fullPopHook_(sm);
            MemAccess access = *queue->pop();
            dest.push(access, now + cfg_.nocRequestLatency);
            // A read request is one address flit; a write carries a line
            // (four 32 B data flits + address).
            energy_.record(EnergyEvent::NocFlit, access.write ? 5 : 1);
            --request_budget;
        }
    }
    rrSm_ = (rrSm_ + 1) % numSms_;

    // --- Response network: move up to nocResponseBwPerCycle completed
    // loads from partition outputs into per-SM response queues.
    int response_budget = cfg_.nocResponseBwPerCycle;
    const int nparts = static_cast<int>(partitions_.size());
    for (int scanned = 0; scanned < nparts && response_budget > 0;
         ++scanned) {
        const int p = (rrPartition_ + scanned) % nparts;
        auto &out = partitions_[static_cast<std::size_t>(p)].output();
        while (response_budget > 0 && out.headReady(now)) {
            const MemAccess &head = out.front();
            auto &dest = responseQueues_[static_cast<std::size_t>(head.sm)];
            if (dest.full())
                break; // head-of-line block for this partition
            MemAccess access = *out.popReady(now);
            if (dest.empty())
                responseReadyAt_[static_cast<std::size_t>(access.sm)] =
                    now + cfg_.nocResponseLatency;
            dest.push(access, now + cfg_.nocResponseLatency);
            energy_.record(EnergyEvent::NocFlit, 5);
            --response_budget;
        }
    }
    rrPartition_ = (rrPartition_ + 1) % nparts;
}

std::vector<MemAccess>
MemorySystem::drainResponses(SmId sm, Cycle mem_now, int max_n)
{
    std::vector<MemAccess> out;
    auto &queue = responseQueues_[static_cast<std::size_t>(sm)];
    while (static_cast<int>(out.size()) < max_n) {
        auto access = queue.popReady(mem_now);
        if (!access)
            break;
        out.push_back(*access);
    }
    noteResponseHead(sm);
    return out;
}

void
MemorySystem::flushCaches()
{
    for (auto &p : partitions_)
        p.flush();
}

std::uint64_t
MemorySystem::l2Hits() const
{
    std::uint64_t total = 0;
    for (const auto &p : partitions_)
        total += p.hits();
    return total;
}

std::uint64_t
MemorySystem::l2Misses() const
{
    std::uint64_t total = 0;
    for (const auto &p : partitions_)
        total += p.misses();
    return total;
}

std::uint64_t
MemorySystem::dramAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &p : partitions_)
        total += p.dram().accesses();
    return total;
}

std::uint64_t
MemorySystem::dramRowHits() const
{
    std::uint64_t total = 0;
    for (const auto &p : partitions_)
        total += p.dram().rowHits();
    return total;
}

std::uint64_t
MemorySystem::dramPoweredDownCycles() const
{
    std::uint64_t total = 0;
    for (const auto &p : partitions_)
        total += p.dram().poweredDownCycles();
    return total;
}

double
MemorySystem::meanDramQueueDepth() const
{
    const std::uint64_t samples =
        tickCount_ * static_cast<std::uint64_t>(partitions_.size());
    return samples ? static_cast<double>(dramQueueDepthSum_) / samples : 0.0;
}

void
MemorySystem::visitState(StateVisitor &v)
{
    // v2: bounded queues gained their high-water marks. v3: queued
    // accesses are written field by field (no padding bytes), and the
    // response queues carry a high-water mark too.
    v.beginSection("memsys", 3);
    v.expectMatch(numSms_, "SM count");
    v.expectMatch(static_cast<int>(partitions_.size()),
                  "partition count");
    for (auto &q : injectQueues_)
        v.field(q);
    for (auto &q : texQueues_)
        v.field(q);
    for (auto &p : partitions_)
        v.field(p);
    for (auto &q : responseQueues_)
        v.field(q);
    v.field(rrSm_);
    v.field(rrPartition_);
    v.field(dramQueueDepthSum_);
    v.field(tickCount_);
    v.endSection();
    if (!v.saving())
        for (int sm = 0; sm < numSms_; ++sm)
            noteResponseHead(sm);
}

} // namespace equalizer

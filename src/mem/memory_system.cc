#include "memory_system.hh"

#include <algorithm>
#include <bit>

namespace equalizer
{

MemorySystem::MemorySystem(const MemConfig &cfg, int num_sms,
                           EnergyModel &energy)
    : cfg_(cfg), energy_(energy), numSms_(num_sms),
      injectQueues_(static_cast<std::size_t>(num_sms),
                    FlaggedQueue<MemAccess>(cfg_.smInjectQueueCap)),
      texQueues_(static_cast<std::size_t>(num_sms),
                 FlaggedQueue<MemAccess>(cfg_.texInjectQueueCap)),
      responseQueues_(static_cast<std::size_t>(num_sms),
                      DelayQueue<MemAccess>(cfg_.smResponseQueueCap)),
      responseReadyAt_(static_cast<std::size_t>(num_sms), noWakeup),
      injectMask_(static_cast<std::size_t>(num_sms + 63) / 64, 0)
{
    partitions_.reserve(static_cast<std::size_t>(cfg_.numPartitions));
    for (int p = 0; p < cfg_.numPartitions; ++p)
        partitions_.emplace_back(cfg_, p, energy);
    for (int sm = 0; sm < num_sms; ++sm) {
        auto *word = &injectMask_[static_cast<std::size_t>(sm / 64)];
        const std::uint64_t bit = std::uint64_t{1} << (sm % 64);
        injectQueues_[static_cast<std::size_t>(sm)].flagInto(word, bit);
        texQueues_[static_cast<std::size_t>(sm)].flagInto(word, bit);
    }
    rebuildDerived();
}

int
MemorySystem::partitionOf(Addr line_addr) const
{
    return static_cast<int>((line_addr / lineBytes) %
                            static_cast<Addr>(cfg_.numPartitions));
}

void
MemorySystem::rebuildDerived()
{
    for (int sm = 0; sm < numSms_; ++sm) {
        const auto i = static_cast<std::size_t>(sm);
        if (!injectQueues_[i].empty() || !texQueues_[i].empty())
            injectMask_[i / 64] |= std::uint64_t{1} << (i % 64);
        noteResponseHead(sm);
    }
    const std::size_t nparts = partitions_.size();
    outputReadyAt_.assign(nparts, noWakeup);
    wakeAt_.assign(nparts, 0);
    creditedUntil_.assign(nparts, noWakeup);
    dramDepth_ = 0;
    for (std::size_t p = 0; p < nparts; ++p) {
        noteOutputHead(p);
        dramDepth_ += partitions_[p].dram().queueDepth();
    }
}

void
MemorySystem::creditPartition(std::size_t p, Cycle until)
{
    if (creditedUntil_[p] < until) {
        partitions_[p].creditSleep(creditedUntil_[p], until);
        creditedUntil_[p] = until;
    }
}

void
MemorySystem::wakePartition(std::size_t p)
{
    if (wakeAt_[p] > now_ + 1) {
        creditPartition(p, now_ + 1);
        wakeAt_[p] = now_ + 1;
    }
}

void
MemorySystem::settle()
{
    for (std::size_t p = 0; p < partitions_.size(); ++p)
        creditPartition(p, now_ + 1);
}

void
MemorySystem::setPartitionSleep(bool on)
{
    if (!on) {
        settle();
        std::fill(wakeAt_.begin(), wakeAt_.end(), 0);
    }
    partitionSleep_ = on;
}

void
MemorySystem::tickPartition(std::size_t p, Cycle now)
{
    auto &part = partitions_[p];
    creditPartition(p, now);
    dramDepth_ -= part.dram().queueDepth();
    part.tick(now);
    dramDepth_ += part.dram().queueDepth();
    ++partitionTicks_;
    creditedUntil_[p] = now + 1;
    wakeAt_[p] = partitionSleep_ ? part.wakeCycle(now) : 0;
    noteOutputHead(p);
}

void
MemorySystem::injectFrom(int sm, int &budget, Cycle now)
{
    // The regular (L1 miss/store) path has priority; the texture path
    // fills any leftover slot for this SM.
    const auto i = static_cast<std::size_t>(sm);
    for (auto *queue : {&injectQueues_[i], &texQueues_[i]}) {
        if (budget == 0 || queue->empty())
            continue;
        MemAccess &head = queue->front();
        const auto p = static_cast<std::size_t>(partitionOf(head.lineAddr));
        auto &dest = partitions_[p].input();
        if (dest.full())
            continue; // head-of-line block for this queue
        if (queue->full() && fullPopHook_)
            fullPopHook_(sm);
        MemAccess access = *queue->pop();
        const Cycle ready = now + cfg_.nocRequestLatency;
        // The head of an empty input is the partition's next event.
        if (dest.empty() && wakeAt_[p] > ready)
            wakeAt_[p] = ready;
        dest.push(access, ready);
        // A read request is one address flit; a write carries a line
        // (four 32 B data flits + address).
        energy_.record(EnergyEvent::NocFlit, access.write ? 5 : 1);
        --budget;
    }
    if (injectQueues_[i].empty() && texQueues_[i].empty())
        injectMask_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

void
MemorySystem::tick(Cycle now)
{
    now_ = now;
    ++tickCount_;
    for (std::size_t p = 0; p < partitions_.size(); ++p)
        if (wakeAt_[p] <= now)
            tickPartition(p, now);
    dramQueueDepthSum_ += dramDepth_;

    // --- Request network: move up to nocRequestBwPerCycle transactions
    // from SM injection queues into partition input queues, visiting
    // the flagged SMs from rrSm_ round the ring.
    int request_budget = cfg_.nocRequestBwPerCycle;
    auto scan = [&](int lo, int hi) {
        for (int w = lo / 64; w * 64 < hi && request_budget > 0; ++w) {
            std::uint64_t bits = injectMask_[static_cast<std::size_t>(w)];
            if (w == lo / 64)
                bits &= ~std::uint64_t{0} << (lo % 64);
            while (bits && request_budget > 0) {
                const int sm = w * 64 + std::countr_zero(bits);
                if (sm >= hi)
                    return;
                bits &= bits - 1;
                injectFrom(sm, request_budget, now);
            }
        }
    };
    scan(rrSm_, numSms_);
    scan(0, rrSm_);
    rrSm_ = rrSm_ + 1 == numSms_ ? 0 : rrSm_ + 1;

    // --- Response network: move up to nocResponseBwPerCycle completed
    // loads from partition outputs into per-SM response queues.
    int response_budget = cfg_.nocResponseBwPerCycle;
    const int nparts = static_cast<int>(partitions_.size());
    for (int scanned = 0; scanned < nparts && response_budget > 0;
         ++scanned) {
        const auto p =
            static_cast<std::size_t>((rrPartition_ + scanned) % nparts);
        if (outputReadyAt_[p] > now)
            continue;
        auto &out = partitions_[p].output();
        while (response_budget > 0 && out.headReady(now)) {
            const MemAccess &head = out.front();
            auto &dest = responseQueues_[static_cast<std::size_t>(head.sm)];
            if (dest.full())
                break; // head-of-line block for this partition
            // The pop frees room a full output's partition waits on.
            if (out.full())
                wakePartition(p);
            MemAccess access = *out.popReady(now);
            if (dest.empty())
                responseReadyAt_[static_cast<std::size_t>(access.sm)] =
                    now + cfg_.nocResponseLatency;
            dest.push(access, now + cfg_.nocResponseLatency);
            energy_.record(EnergyEvent::NocFlit, 5);
            --response_budget;
        }
        noteOutputHead(p);
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
    // Invalidation cannot turn a sleeping partition's blocked read miss
    // into a hit, so no partition needs waking.
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
        rebuildDerived();
}

} // namespace equalizer

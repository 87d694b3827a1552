/**
 * @file
 * Integration tests for the full memory system (NoC + L2 + DRAM).
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/state.hh"

namespace equalizer
{
namespace
{

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest()
        : energy(PowerConfig::gtx480()), mem(cfg, numSms, energy)
    {
    }

    static constexpr int numSms = 4;

    MemAccess
    makeLoad(Addr line, SmId sm, WarpId warp = 0)
    {
        MemAccess a;
        a.lineAddr = line;
        a.sm = sm;
        a.warp = warp;
        return a;
    }

    /** Every response for SM @p sm ready by now, in queue order. */
    std::vector<MemAccess>
    drain(SmId sm)
    {
        std::vector<MemAccess> out;
        mem.drainReadyResponses(
            sm, now, [&out](const MemAccess &r) { out.push_back(r); });
        return out;
    }

    /** Advance the memory system and collect responses for all SMs. */
    std::vector<MemAccess>
    runCycles(Cycle count)
    {
        std::vector<MemAccess> all;
        for (Cycle i = 0; i < count; ++i) {
            mem.tick(now);
            for (int s = 0; s < numSms; ++s)
                for (auto &r : drain(s))
                    all.push_back(r);
            ++now;
        }
        return all;
    }

    MemConfig cfg = MemConfig::gtx480();
    EnergyModel energy;
    MemorySystem mem;
    Cycle now = 0;
};

TEST_F(MemorySystemTest, LoadRoundTripReturnsToIssuingSm)
{
    mem.smInjectQueue(2).push(makeLoad(0x1000, 2, 5));
    const auto responses = runCycles(400);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].sm, 2);
    EXPECT_EQ(responses[0].warp, 5);
    EXPECT_EQ(responses[0].lineAddr, 0x1000u);
    EXPECT_TRUE(drain(0).empty());
}

TEST_F(MemorySystemTest, RoundTripLatencyIsAtLeastTheNetworkDelays)
{
    mem.smInjectQueue(0).push(makeLoad(0x2000, 0));
    Cycle arrival = 0;
    for (Cycle i = 0; i < 1000 && arrival == 0; ++i) {
        mem.tick(now);
        if (!drain(0).empty())
            arrival = now;
        ++now;
    }
    ASSERT_GT(arrival, 0u);
    const Cycle floor = cfg.nocRequestLatency + cfg.nocResponseLatency +
                        cfg.l2HitLatency + cfg.dramRowMissCycles;
    EXPECT_GE(arrival, floor);
    EXPECT_LE(arrival, floor + 40); // arbitration slack only
}

TEST_F(MemorySystemTest, SecondAccessHitsInL2AndReturnsFaster)
{
    mem.smInjectQueue(0).push(makeLoad(0x3000, 0));
    runCycles(400);
    const Cycle start = now;
    mem.smInjectQueue(0).push(makeLoad(0x3000, 0));
    Cycle arrival = 0;
    for (Cycle i = 0; i < 1000 && arrival == 0; ++i) {
        mem.tick(now);
        if (!drain(0).empty())
            arrival = now;
        ++now;
    }
    EXPECT_EQ(mem.l2Hits(), 1u);
    const Cycle hit_latency = arrival - start;
    EXPECT_LT(hit_latency,
              cfg.nocRequestLatency + cfg.nocResponseLatency +
                  cfg.l2HitLatency + cfg.dramRowMissCycles);
}

TEST_F(MemorySystemTest, LinesStripeAcrossPartitions)
{
    // Consecutive lines land on consecutive partitions: saturating one
    // partition must not be possible with striped addresses.
    for (int i = 0; i < cfg.numPartitions; ++i)
        mem.smInjectQueue(0).push(
            makeLoad(static_cast<Addr>(i) * lineBytes, 0, i));
    runCycles(400);
    EXPECT_EQ(mem.dramAccesses(),
              static_cast<std::uint64_t>(cfg.numPartitions));
    // Each partition saw exactly one access: no row hits anywhere.
    EXPECT_EQ(mem.dramRowHits(), 0u);
}

TEST_F(MemorySystemTest, WritesReachDramButProduceNoResponse)
{
    MemAccess store = makeLoad(0x5000, 0);
    store.write = true;
    mem.smInjectQueue(0).push(store);
    const auto responses = runCycles(400);
    EXPECT_TRUE(responses.empty());
    // The write allocated in L2 (write-back), so no DRAM access yet.
    EXPECT_EQ(mem.l2Misses(), 1u);
}

TEST_F(MemorySystemTest, TexturePathDeliversResponses)
{
    MemAccess tex = makeLoad(0x6000, 1, 3);
    tex.texture = true;
    mem.texInjectQueue(1).push(tex);
    const auto responses = runCycles(400);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].texture);
    EXPECT_EQ(responses[0].sm, 1);
}

TEST_F(MemorySystemTest, RegularPathHasPriorityOverTexture)
{
    MemAccess tex = makeLoad(0x7000, 0, 1);
    tex.texture = true;
    mem.texInjectQueue(0).push(tex);
    mem.smInjectQueue(0).push(makeLoad(0x7000 + lineBytes, 0, 2));
    // Both are pending for SM 0; one NoC sweep should move the regular
    // request first (it shares the per-SM arbitration slot).
    mem.tick(now);
    EXPECT_TRUE(mem.smInjectQueue(0).empty());
}

TEST_F(MemorySystemTest, BandwidthLimitThrottlesInjection)
{
    // Offer far more requests than the NoC accepts per cycle.
    for (int s = 0; s < numSms; ++s)
        for (int i = 0; i < 8; ++i)
            mem.smInjectQueue(s).push(
                makeLoad(static_cast<Addr>(s * 100 + i) * lineBytes, s, i));
    std::size_t before = 0;
    for (int s = 0; s < numSms; ++s)
        before += mem.smInjectQueue(s).size();
    mem.tick(now);
    std::size_t after = 0;
    for (int s = 0; s < numSms; ++s)
        after += mem.smInjectQueue(s).size();
    EXPECT_LE(before - after,
              static_cast<std::size_t>(cfg.nocRequestBwPerCycle));
}

TEST_F(MemorySystemTest, SustainedOverloadBacksUpInjectQueues)
{
    // Hammer a single partition (same line stride) from all SMs until
    // its queues fill; the inject queues must eventually stay full.
    const Addr stride =
        static_cast<Addr>(cfg.numPartitions) * lineBytes;
    int seq = 0;
    bool saw_backpressure = false;
    for (Cycle i = 0; i < 2000; ++i) {
        for (int s = 0; s < numSms; ++s) {
            auto &q = mem.smInjectQueue(s);
            while (!q.full()) {
                const int n = seq++;
                q.push(makeLoad(static_cast<Addr>(n) * stride, s,
                                (n + 1) % 32));
            }
        }
        mem.tick(now);
        for (int s = 0; s < numSms; ++s)
            drain(s);
        ++now;
        if (mem.smInjectQueue(0).full())
            saw_backpressure = true;
    }
    EXPECT_TRUE(saw_backpressure);
    // All traffic went to one partition.
    EXPECT_EQ(mem.dramAccesses(), mem.partition(0).dram().accesses());
}

TEST_F(MemorySystemTest, FlushCachesDropsL2Contents)
{
    mem.smInjectQueue(0).push(makeLoad(0x9000, 0));
    runCycles(400);
    mem.flushCaches();
    mem.smInjectQueue(0).push(makeLoad(0x9000, 0));
    runCycles(400);
    EXPECT_EQ(mem.l2Hits(), 0u);
    EXPECT_EQ(mem.l2Misses(), 2u);
}

TEST_F(MemorySystemTest, NocEnergyRecorded)
{
    mem.smInjectQueue(0).push(makeLoad(0xa000, 0));
    runCycles(400);
    // 1 request flit + 5 response flits (address + 4 data).
    EXPECT_EQ(energy.eventCount(EnergyEvent::NocFlit), 6u);
}

// --- Round-robin arbitration of the staged SM->L2 queues --------------

/**
 * Each SM stages its requests in its own injection queue, and the
 * memory system drains the queues in fixed round-robin SM order. The
 * drain order therefore must depend only on queue contents, never on
 * the order in which different SMs staged their requests.
 */
TEST(StagedInjectQueues, BarrierDrainOrderIgnoresStagingOrder)
{
    const MemConfig cfg = MemConfig::gtx480();
    const int num_sms = 4;
    EnergyModel e1, e2;
    MemorySystem forward(cfg, num_sms, e1);
    MemorySystem reverse(cfg, num_sms, e2);

    // All requests target partition 0; the address encodes the SM.
    auto addr_of = [&cfg](int sm) {
        return static_cast<Addr>(sm) * lineBytes *
               static_cast<Addr>(cfg.numPartitions);
    };
    for (int sm = 0; sm < num_sms; ++sm)
        forward.smInjectQueue(sm).push(
            MemAccess{addr_of(sm), sm, 0, false, false});
    for (int sm = num_sms - 1; sm >= 0; --sm)
        reverse.smInjectQueue(sm).push(
            MemAccess{addr_of(sm), sm, 0, false, false});

    // One drain (one memory tick) moves them — bandwidth permitting —
    // into the partition input queue.
    forward.tick(1);
    reverse.tick(1);

    std::vector<SmId> forward_order, reverse_order;
    const Cycle late = 1 + cfg.nocRequestLatency + 1;
    while (auto a = forward.partition(0).input().popReady(late))
        forward_order.push_back(a->sm);
    while (auto a = reverse.partition(0).input().popReady(late))
        reverse_order.push_back(a->sm);

    ASSERT_FALSE(forward_order.empty());
    EXPECT_EQ(forward_order, reverse_order);
    // Fixed arbitration: ascending SM order on the first tick.
    for (std::size_t i = 1; i < forward_order.size(); ++i)
        EXPECT_LT(forward_order[i - 1], forward_order[i]);
}

TEST(StagedInjectQueues, BackPressureIsIdenticalAcrossModes)
{
    // Overfill one SM's staging queue; the bounded capacity (the
    // back-pressure signal Equalizer's X_mem counter observes) must be
    // enforced identically however the queue was filled.
    const MemConfig cfg = MemConfig::gtx480();
    EnergyModel energy;
    MemorySystem ms(cfg, 1, energy);
    auto &q = ms.smInjectQueue(0);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < cfg.smInjectQueueCap + 3; ++i) {
        if (q.push(MemAccess{static_cast<Addr>(i) * lineBytes, 0, 0,
                             false, false}))
            ++accepted;
    }
    EXPECT_EQ(accepted, cfg.smInjectQueueCap);
    EXPECT_TRUE(q.full());
}

// --- Partition sleep and the request network's SM mask ---------------

/**
 * One memory system run twice: `lazy` lets partitions sleep (the
 * default), `eager` ticks every partition every cycle (fast_path=0).
 * Both get the same pushes and drains.
 */
struct SleepPair
{
    static constexpr int numSms = 2;

    explicit SleepPair(const MemConfig &cfg)
        : lazy(cfg, numSms, lazyEnergy), eager(cfg, numSms, eagerEnergy)
    {
        eager.setPartitionSleep(false);
    }

    /** Push @p access into SM @p sm's injection queue of both. */
    void
    push(SmId sm, const MemAccess &access)
    {
        const bool a = lazy.smInjectQueue(sm).push(access);
        const bool b = eager.smInjectQueue(sm).push(access);
        ASSERT_EQ(a, b);
    }

    /** Tick both at @p now, then drain the responses of @p drained. */
    void
    tick(Cycle now, std::initializer_list<SmId> drained = {0})
    {
        lazy.tick(now);
        eager.tick(now);
        for (auto *m : {&lazy, &eager})
            for (SmId sm : drained)
                m->drainReadyResponses(sm, now, [](const MemAccess &) {});
    }

    EnergyModel lazyEnergy;
    EnergyModel eagerEnergy;
    MemorySystem lazy;
    MemorySystem eager;
};

std::vector<std::uint8_t>
bytesOf(MemorySystem &mem)
{
    BufferStateWriter w(0);
    mem.visitState(w);
    return w.take();
}

/** Settle @p pair's lazy side, then require both sides to be equal. */
void
expectSameState(SleepPair &pair)
{
    pair.lazy.settle();
    EXPECT_EQ(bytesOf(pair.lazy), bytesOf(pair.eager));
    for (auto e : {EnergyEvent::NocFlit, EnergyEvent::L2Access,
                   EnergyEvent::DramActivate, EnergyEvent::DramAccess}) {
        EXPECT_EQ(pair.lazyEnergy.eventCount(e),
                  pair.eagerEnergy.eventCount(e));
        EXPECT_EQ(pair.lazyEnergy.dynamicJoules(e),
                  pair.eagerEnergy.dynamicJoules(e));
    }
    EXPECT_EQ(pair.lazy.dramPoweredDownCycles(),
              pair.eager.dramPoweredDownCycles());
}

MemAccess
loadOf(Addr line, SmId sm)
{
    MemAccess a;
    a.lineAddr = line;
    a.sm = sm;
    return a;
}

TEST(MemorySleep, PushAfterTheScanClearedTheSmBitIsDelivered)
{
    EnergyModel energy;
    MemorySystem mem(MemConfig::gtx480(), 4, energy);
    mem.smInjectQueue(2).push(loadOf(0x1000, 2));
    mem.tick(1);
    // The scan moved SM 2's only request and cleared its bit.
    ASSERT_TRUE(mem.smInjectQueue(2).empty());
    mem.smInjectQueue(2).push(loadOf(0x2000, 2));
    mem.texInjectQueue(3).push(loadOf(0x3000, 3));
    int delivered = 0;
    for (Cycle now = 2; now < 600; ++now) {
        mem.tick(now);
        for (SmId sm : {2, 3})
            mem.drainReadyResponses(
                sm, now, [&delivered](const MemAccess &) { ++delivered; });
    }
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(mem.l2Misses(), 3u);
}

TEST(MemorySleep, BlockedReadMissCreditsEveryRetry)
{
    // Distinct rows of partition 0 behind a two-entry DRAM queue and a
    // slow data bus: the input head waits dozens of cycles for room,
    // retrying (one L2 access) every cycle while the partition sleeps.
    MemConfig cfg = MemConfig::gtx480();
    cfg.dramQueueCap = 2;
    cfg.dramRowMissCycles = 50;
    SleepPair pair(cfg);
    const Addr row_stride = static_cast<Addr>(cfg.numPartitions) *
                            cfg.linesPerRow * cfg.banksPerPartition *
                            lineBytes;
    Addr next = 0;
    for (Cycle now = 1; now <= 3000; ++now) {
        if (now < 1500 && !pair.lazy.smInjectQueue(0).full()) {
            pair.push(0, loadOf(next, 0));
            next += row_stride;
        }
        pair.tick(now);
        if (now % 250 == 0)
            expectSameState(pair);
    }
    expectSameState(pair);
    // Retries outnumber the misses, and the lazy side slept through
    // most of them.
    EXPECT_GT(pair.lazyEnergy.eventCount(EnergyEvent::L2Access),
              2 * pair.lazy.l2Misses());
    EXPECT_LT(pair.lazy.partitionTicks(), pair.eager.partitionTicks() / 2);
}

TEST(MemorySleep, PowerDownSpanMatchesEagerTicksAcrossASave)
{
    const MemConfig cfg = MemConfig::gtx480();
    SleepPair pair(cfg);
    pair.push(0, loadOf(0, 0));
    for (Cycle now = 1; now <= 700; ++now)
        pair.tick(now);
    // Partition 0 powered down 200 idle cycles after its access; the
    // others from the start.
    expectSameState(pair);
    EXPECT_GT(pair.eager.dramPoweredDownCycles(), 6u * 300u);

    // Restore the lazy side's save into a fresh memory system and run
    // it on beside the eager one, through a power-up and down again.
    EnergyModel resumed_energy;
    MemorySystem resumed(cfg, SleepPair::numSms, resumed_energy);
    BufferStateReader r(bytesOf(pair.lazy), 0);
    resumed.visitState(r);
    r.finish();
    for (Cycle now = 701; now <= 1600; ++now) {
        if (now == 1000) {
            ASSERT_TRUE(resumed.smInjectQueue(0).push(loadOf(lineBytes, 0)));
            ASSERT_TRUE(pair.eager.smInjectQueue(0).push(loadOf(lineBytes, 0)));
        }
        resumed.tick(now);
        pair.eager.tick(now);
    }
    resumed.settle();
    EXPECT_EQ(bytesOf(resumed), bytesOf(pair.eager));
    EXPECT_EQ(resumed.dramPoweredDownCycles(),
              pair.eager.dramPoweredDownCycles());
    EXPECT_LT(resumed.partitionTicks(), 6u * 900u / 2);
}

TEST(MemorySleep, BlockedReadHitsTouchTheLruAsEagerTicksDo)
{
    // SM 1 never drains: its response queue fills, then partition 0's
    // output, and the read hits at its input head block and retry,
    // touching the LRU each time. The saved tags (LRU stamps included)
    // must match eager ticks.
    const MemConfig cfg = MemConfig::gtx480();
    SleepPair pair(cfg);
    const Addr stride = static_cast<Addr>(cfg.numPartitions) * lineBytes;
    bool output_filled = false;
    for (Cycle now = 1; now <= 2500; ++now) {
        if (!pair.lazy.smInjectQueue(1).full())
            pair.push(1, loadOf((now % 4) * stride, 1));
        pair.tick(now);
        output_filled |= pair.lazy.partition(0).output().full();
        if (now % 500 == 0)
            expectSameState(pair);
    }
    EXPECT_TRUE(output_filled);
    // Most of the L2 accesses were blocked retries.
    EXPECT_GT(pair.lazyEnergy.eventCount(EnergyEvent::L2Access),
              pair.lazy.l2Hits() + pair.lazy.l2Misses() + 1000);
}

TEST(MemorySleep, PopFromAFullOutputWakesThePartition)
{
    // SM 1 misses on fresh lines of partition 0 and drains nothing
    // until cycle 1500: its response queue, then the output fill, the
    // DRAM freezes and the partition sleeps with nothing to wake it
    // but the response network's pop once SM 1 drains.
    const MemConfig cfg = MemConfig::gtx480();
    SleepPair pair(cfg);
    const Addr stride = static_cast<Addr>(cfg.numPartitions) * lineBytes;
    bool output_filled = false;
    Addr pushed = 0;
    for (Cycle now = 1; now <= 3000; ++now) {
        if (pushed < 320 && !pair.lazy.smInjectQueue(1).full())
            pair.push(1, loadOf(pushed++ * stride, 1));
        if (now < 1500)
            pair.tick(now, {});
        else
            pair.tick(now, {1});
        output_filled |= pair.lazy.partition(0).output().full();
        if (now % 500 == 0)
            expectSameState(pair);
    }
    EXPECT_TRUE(output_filled);
    EXPECT_EQ(pair.lazy.l2Misses(), 320u);
    EXPECT_EQ(pair.lazy.dramAccesses(), 320u);
}

TEST(MemorySleep, SleepOffTicksEveryPartitionEveryCycle)
{
    SleepPair pair(MemConfig::gtx480());
    pair.push(0, loadOf(0, 0));
    for (Cycle now = 1; now <= 500; ++now)
        pair.tick(now);
    const auto parts = static_cast<std::uint64_t>(pair.eager.numPartitions());
    EXPECT_EQ(pair.eager.partitionTicks(), 500u * parts);
    EXPECT_LT(pair.lazy.partitionTicks(), 500u * parts / 4);
    expectSameState(pair);
}

} // namespace
} // namespace equalizer

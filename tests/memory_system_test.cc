/**
 * @file
 * Integration tests for the full memory system (NoC + L2 + DRAM).
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/memory_system.hh"

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

} // namespace
} // namespace equalizer

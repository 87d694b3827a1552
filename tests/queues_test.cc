/**
 * @file
 * Unit tests for the bounded/delay queue building blocks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/queues.hh"
#include "sim/state.hh"

namespace equalizer
{
namespace
{

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(*q.pop(), 1);
    EXPECT_EQ(*q.pop(), 2);
    EXPECT_EQ(*q.pop(), 3);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, RejectsWhenFull)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.size(), 2u);
    q.pop();
    EXPECT_FALSE(q.full());
    EXPECT_TRUE(q.push(3));
}

TEST(BoundedQueue, FrontPeeksWithoutPopping)
{
    BoundedQueue<int> q(2);
    q.push(7);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, ClearEmpties)
{
    BoundedQueue<int> q(2);
    q.push(1);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, FifoOrderAcrossTheWrapPoint)
{
    BoundedQueue<int> q(3);
    int next_in = 0;
    int next_out = 0;
    // Fill, then pop two: the head walks round the ring every round.
    for (int round = 0; round < 10; ++round) {
        while (q.push(next_in))
            ++next_in;
        EXPECT_EQ(q.size(), 3u);
        for (int i = 0; i < 2; ++i)
            EXPECT_EQ(*q.pop(), next_out++);
    }
    while (auto v = q.pop())
        EXPECT_EQ(*v, next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(BoundedQueue, FullAndEmptyAtTheCapacity)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    q.push(1);
    EXPECT_FALSE(q.empty());
    EXPECT_FALSE(q.full());
    q.push(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.size(), q.capacity());
    q.pop();
    q.pop();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());

    BoundedQueue<int> none(0);
    EXPECT_TRUE(none.empty());
    EXPECT_TRUE(none.full());
    EXPECT_FALSE(none.push(1));
    EXPECT_FALSE(none.pop().has_value());
}

std::vector<std::uint8_t>
bytesOf(BoundedQueue<int> &q)
{
    BufferStateWriter w(0);
    q.visitState(w);
    return w.take();
}

TEST(BoundedQueue, WrappedQueueSavesTheBytesOfAFreshOne)
{
    BoundedQueue<int> wrapped(4);
    for (int i = 0; i < 4; ++i)
        wrapped.push(i);
    for (int i = 0; i < 3; ++i)
        wrapped.pop();
    wrapped.push(4); // the head sits in the last slot; 4 and 5 wrap
    wrapped.push(5);
    BoundedQueue<int> fresh(4);
    for (int i : {3, 4, 5})
        fresh.push(i);
    // The high-water mark is state too: bring both to their depth.
    wrapped.takeHighWater();
    fresh.takeHighWater();
    EXPECT_EQ(bytesOf(wrapped), bytesOf(fresh));

    BoundedQueue<int> loaded(4);
    BufferStateReader r(bytesOf(wrapped), 0);
    loaded.visitState(r);
    r.finish();
    for (int i : {3, 4, 5})
        EXPECT_EQ(*loaded.pop(), i);
    EXPECT_TRUE(loaded.empty());
}

TEST(BoundedQueueDeath, LoadingMoreItemsThanTheCapacityIsFatal)
{
    // A forged image: capacity 2, but a count of 3 with three items.
    BufferStateWriter w(0);
    std::size_t capacity = 2;
    w.field(capacity);
    std::uint64_t count = 3;
    w.field(count);
    for (int item : {1, 2, 3})
        w.field(item);
    std::size_t high_water = 3;
    w.field(high_water);
    const auto buf = w.take();
    EXPECT_EXIT(
        {
            BoundedQueue<int> q(2);
            BufferStateReader r(buf, 0);
            q.visitState(r);
        },
        ::testing::ExitedWithCode(1), "holds 3 items; its capacity is 2");
}

TEST(BoundedQueueDeath, FrontOnEmptyPanics)
{
    BoundedQueue<int> q(1);
    EXPECT_DEATH(q.front(), "empty");
}

TEST(DelayQueue, HonorsReadyTimes)
{
    DelayQueue<int> q(8);
    EXPECT_TRUE(q.push(1, 10));
    EXPECT_TRUE(q.push(2, 20));
    EXPECT_FALSE(q.headReady(9));
    EXPECT_TRUE(q.headReady(10));
    EXPECT_EQ(*q.popReady(10), 1);
    EXPECT_FALSE(q.popReady(15).has_value());
    EXPECT_EQ(*q.popReady(25), 2);
}

TEST(DelayQueue, RejectsWhenFull)
{
    DelayQueue<int> q(1);
    EXPECT_TRUE(q.push(1, 0));
    EXPECT_FALSE(q.push(2, 5));
    EXPECT_EQ(q.size(), 1u);
}

TEST(DelayQueue, SameReadyTimeKeepsFifo)
{
    DelayQueue<int> q(4);
    q.push(1, 5);
    q.push(2, 5);
    EXPECT_EQ(*q.popReady(5), 1);
    EXPECT_EQ(*q.popReady(5), 2);
}

TEST(DelayQueueDeath, RejectsDecreasingReadyTimes)
{
    DelayQueue<int> q(4);
    q.push(1, 10);
    EXPECT_DEATH(q.push(2, 5), "non-decreasing");
}

TEST(DelayQueue, ClearEmpties)
{
    DelayQueue<int> q(4);
    q.push(1, 1);
    q.clear();
    EXPECT_TRUE(q.empty());
    // After a clear, earlier ready times are acceptable again.
    EXPECT_TRUE(q.push(2, 0));
}

/** Property sweep: random push/pop sequences preserve count and order. */
class BoundedQueueProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BoundedQueueProperty, NeverExceedsCapacityAndStaysFifo)
{
    const int cap = GetParam();
    BoundedQueue<int> q(static_cast<std::size_t>(cap));
    int next_in = 0;
    int next_out = 0;
    unsigned state = 12345u + static_cast<unsigned>(cap);
    for (int step = 0; step < 2000; ++step) {
        state = state * 1664525u + 1013904223u;
        if (state & 1) {
            if (q.push(next_in))
                ++next_in;
            else
                EXPECT_EQ(q.size(), static_cast<std::size_t>(cap));
        } else {
            auto v = q.pop();
            if (v) {
                EXPECT_EQ(*v, next_out);
                ++next_out;
            } else {
                EXPECT_TRUE(q.empty());
            }
        }
        EXPECT_LE(q.size(), static_cast<std::size_t>(cap));
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BoundedQueueProperty,
                         ::testing::Values(1, 2, 4, 8, 64));

} // namespace
} // namespace equalizer

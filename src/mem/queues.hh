/**
 * @file
 * Small bounded-queue building blocks used across the memory system.
 *
 * Finite capacities are the point: the back-pressure chain that Equalizer
 * observes (X_mem warps) arises from these queues filling up.
 */

#ifndef EQ_MEM_QUEUES_HH
#define EQ_MEM_QUEUES_HH

#include <cstdint>
#include <optional>

#include "common/bounded_queue.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace equalizer
{

/** An item and the cycle from which it is visible. */
template <typename T>
struct Delayed
{
    T item{};
    Cycle readyAt = 0;

    template <class V>
    void visitState(V &v) { v.fields(item, readyAt); }
};

/**
 * A bounded FIFO whose elements become visible only after a ready time.
 *
 * Models a fixed-latency pipe (interconnect traversal, cache lookup).
 * Ready times must be pushed in non-decreasing order, which holds for any
 * constant-latency pipe fed in simulation order.
 */
template <typename T>
class DelayQueue : public BoundedQueue<Delayed<T>>
{
    using Base = BoundedQueue<Delayed<T>>;

  public:
    using Base::Base;

    /** @return false (and leaves the queue unchanged) when full. */
    bool
    push(T item, Cycle ready_at)
    {
        EQ_ASSERT(this->full() || this->empty() ||
                      ready_at >= this->back().readyAt,
                  "DelayQueue requires non-decreasing ready times");
        return Base::push(Delayed<T>{std::move(item), ready_at});
    }

    /** True when the head element exists and is ready at @p now. */
    bool
    headReady(Cycle now) const
    {
        return !this->empty() && Base::front().readyAt <= now;
    }

    /** Peek the head element; it must exist (ready or not). */
    T &front() { return Base::front().item; }
    const T &front() const { return Base::front().item; }

    /**
     * Cycle at which the head element becomes visible; the queue must
     * be non-empty. Ready times are non-decreasing, so this is the
     * earliest deadline in the queue — the fast path's wakeup source
     * for in-flight pipe traffic.
     */
    Cycle headReadyAt() const { return Base::front().readyAt; }

    /** Pop the head element if ready at @p now. */
    std::optional<T>
    popReady(Cycle now)
    {
        if (!headReady(now))
            return std::nullopt;
        return std::optional<T>(std::move(Base::pop()->item));
    }
};

/**
 * A bounded FIFO whose every successful push sets one bit in a word the
 * owner scans, so the scan visits only queues that may hold items (the
 * memory system's request network). The push itself sets the bit,
 * whoever pushes; the scanner clears it once the queues behind it are
 * empty. It derives privately from BoundedQueue, so no caller can push
 * past the flag through a base reference.
 */
template <typename T>
class FlaggedQueue : private BoundedQueue<T>
{
    using Base = BoundedQueue<T>;

  public:
    using Base::Base;
    using Base::back;
    using Base::capacity;
    using Base::clear;
    using Base::empty;
    using Base::front;
    using Base::full;
    using Base::pop;
    using Base::size;
    using Base::takeHighWater;
    using Base::visitState;

    /** Set @p bit in @p *word on every push (nullptr: flag nothing). */
    void
    flagInto(std::uint64_t *word, std::uint64_t bit)
    {
        word_ = word;
        bit_ = bit;
    }

    /** @return false (and leaves the queue unchanged) when full. */
    bool
    push(T item)
    {
        if (!Base::push(std::move(item)))
            return false;
        if (word_)
            *word_ |= bit_;
        return true;
    }

  private:
    std::uint64_t *word_ = nullptr;
    std::uint64_t bit_ = 0;
};

} // namespace equalizer

#endif // EQ_MEM_QUEUES_HH

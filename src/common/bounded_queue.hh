/**
 * @file
 * The one bounded FIFO: a fixed-capacity ring allocated once at
 * construction. The memory system's queues, the LSU queue, its L1-hit
 * wakeups and the per-SM trace rings all store their elements in it.
 */

#ifndef EQ_COMMON_BOUNDED_QUEUE_HH
#define EQ_COMMON_BOUNDED_QUEUE_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace equalizer
{

/** A FIFO with a fixed capacity; push fails when full. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : ring_(capacity) {}

    bool full() const { return size_ == ring_.size(); }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }

    /** @return false (and leaves the queue unchanged) when full. */
    bool
    push(T item)
    {
        if (full())
            return false;
        ring_[slot(size_)] = std::move(item);
        if (++size_ > highWater_)
            highWater_ = size_;
        return true;
    }

    /**
     * Deepest occupancy since the last call; resets to the current
     * depth. Sampled per tracer epoch (HighWater events).
     */
    std::size_t
    takeHighWater()
    {
        const std::size_t hw = highWater_;
        highWater_ = size_;
        return hw;
    }

    /** Oldest element; queue must be non-empty. */
    T &
    front()
    {
        EQ_ASSERT(size_ > 0, "front() on empty queue");
        return ring_[head_];
    }

    const T &
    front() const
    {
        EQ_ASSERT(size_ > 0, "front() on empty queue");
        return ring_[head_];
    }

    /** Newest element; queue must be non-empty. */
    const T &
    back() const
    {
        EQ_ASSERT(size_ > 0, "back() on empty queue");
        return ring_[slot(size_ - 1)];
    }

    /** Pop and return the front element, or nullopt when empty. */
    std::optional<T>
    pop()
    {
        if (size_ == 0)
            return std::nullopt;
        std::optional<T> item(std::move(ring_[head_]));
        head_ = slot(1);
        --size_;
        return item;
    }

    void clear() { head_ = size_ = 0; }

    /**
     * Capacity check, element count, the elements in FIFO order, then
     * the high-water mark. Where the head sits in the ring is not
     * state: a wrapped queue saves the same bytes as a fresh one
     * holding the same items, and a load starts the ring at slot 0.
     */
    template <class Visitor>
    void
    visitState(Visitor &v)
    {
        v.expectMatch(capacity(), "bounded queue capacity");
        const std::size_t n = v.count(size_, 1);
        if (!v.saving()) {
            if (n > capacity())
                fatal("checkpoint bounded queue holds ", n,
                      " items; its capacity is ", capacity());
            head_ = 0;
            size_ = n;
        }
        for (std::size_t i = 0; i < size_; ++i)
            v.field(ring_[slot(i)]);
        v.field(highWater_);
    }

  private:
    /** Ring index of the element @p i places behind the head. */
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head_ + i;
        return s < ring_.size() ? s : s - ring_.size();
    }

    std::vector<T> ring_;
    std::size_t head_ = 0; ///< ring index of the front element
    std::size_t size_ = 0;
    std::size_t highWater_ = 0;
};

} // namespace equalizer

#endif // EQ_COMMON_BOUNDED_QUEUE_HH

/**
 * @file
 * Bounded MPMC queue between the daemon's and the telemetry server's
 * threads: blocking push with backpressure, timed push for admission
 * control, blocking pop, close() to drain and stop.
 */

#ifndef ASYNCCLOCK_SUPPORT_BOUNDED_QUEUE_HH
#define ASYNCCLOCK_SUPPORT_BOUNDED_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace asyncclock::support {

/** Outcome of a timed push; Timeout leaves the item with the caller. */
enum class PushResult
{
    Pushed,
    Timeout,
    Closed,
};

/**
 * A mutex/condvar bounded queue. push() blocks while the queue is at
 * capacity (backpressure keeps the pipeline's buffering bounded);
 * pop() blocks while empty. close() wakes everyone: subsequent push()
 * fails and pop() drains the remaining items then fails.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

    /** Enqueue @p item; false if the queue was closed. */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mu_);
        notFull_.wait(lock, [this] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        lock.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Enqueue with a deadline: wait at most @p timeout for space.
     * @p item is moved from only when the result is Pushed, so a
     * Timeout caller can retry (or give up) without losing the item.
     * Unlike push(), this can never hang on a stalled consumer — the
     * daemon's ingest admission (429 on timeout) is built on it.
     *
     * Close-while-pushing contract: a close() issued while callers
     * are blocked in here wakes every one of them *immediately* (not
     * at their timeout) and they return Closed with the item
     * untouched. The daemon's drain path relies on this: closing a
     * session's ingest queue releases any admission-throttled
     * producer within a scheduling quantum, never after a full
     * admission timeout.
     */
    PushResult
    tryPushFor(T &item, std::chrono::milliseconds timeout)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (!notFull_.wait_for(lock, timeout, [this] {
                return closed_ || items_.size() < capacity_;
            })) {
            return PushResult::Timeout;
        }
        if (closed_)
            return PushResult::Closed;
        items_.push_back(std::move(item));
        lock.unlock();
        notEmpty_.notify_one();
        return PushResult::Pushed;
    }

    /** Dequeue into @p item; false when closed and drained. */
    bool
    pop(T &item)
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait(lock,
                       [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        item = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        notFull_.notify_one();
        return true;
    }

    /** Items currently queued (locks; cheap enough for gauges). */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size();
    }

    /**
     * Stop the queue: pending items remain poppable, new pushes
     * fail. Wakes *all* waiters at once — blocked push()/tryPushFor()
     * callers return false/Closed immediately (see the
     * close-while-pushing contract on tryPushFor), and blocked pop()
     * callers drain the remaining items then fail. Idempotent.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** Has close() been called? (Pending items may still be
     * poppable.) */
    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace asyncclock::support

#endif // ASYNCCLOCK_SUPPORT_BOUNDED_QUEUE_HH

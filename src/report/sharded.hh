/**
 * @file
 * Sharded parallel race checking.
 *
 * The detectors' work splits cleanly in two: resolving each task's
 * logical time is inherently sequential (chain state threads through
 * the whole trace), but the per-variable FastTrack check depends only
 * on that variable's access history. ShardedChecker exploits this: the
 * detector thread keeps resolving clocks and hands (var, access, clock)
 * tuples to N worker shards over bounded queues; shard `var % N` runs
 * its own FastTrackChecker.
 *
 * Determinism: partitioning by variable preserves each variable's
 * access order, so every shard's FastTrack state machine sees exactly
 * the sequence the sequential checker would — the union of shard race
 * sets equals the sequential race set regardless of shard count or
 * scheduling. drain() merges them into a canonical (curOp, prevOp)
 * order.
 */

#ifndef ASYNCCLOCK_REPORT_SHARDED_HH
#define ASYNCCLOCK_REPORT_SHARDED_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "report/fasttrack.hh"
#include "support/bounded_queue.hh"

namespace asyncclock::report {

/**
 * Shard-level fault injection (see trace/fault.hh for the rationale):
 * slow down or kill a worker on purpose to exercise the producer-side
 * watchdog. Defaults inject nothing.
 */
struct ShardFaults
{
    static constexpr unsigned kNone = ~0u;

    /** This shard's worker sleeps stallMs before each batch. */
    unsigned stallShard = kNone;
    std::uint64_t stallMs = 0;
    /** This shard's worker dies on its first batch (queue closed, so
     * the producer sees Closed pushes, not a silent hang). */
    unsigned poisonShard = kNone;
};

/**
 * AccessChecker fanning accesses out to per-shard FastTrack workers.
 * onAccess() batches and enqueues; races()/byteSize() remain usable
 * from the producer thread (races() drains first). Not reusable after
 * drain().
 */
struct ShardedConfig
{
    unsigned shards = 4;
    /** Accesses buffered per shard before enqueueing a batch. */
    std::size_t batchOps = 256;
    /** Max batches in flight per shard (backpressure bound). */
    std::size_t queueCapacity = 64;
    /**
     * One backoff slice of a blocked enqueue. The producer retries
     * tryPushFor() in slices of this length so it periodically
     * re-checks for a failed run instead of blocking indefinitely.
     */
    std::uint64_t pushTimeoutMs = 50;
    /**
     * Watchdog: once a single enqueue has been blocked this long, the
     * worker is presumed wedged; the run fails with diagnostics
     * (shard, queue depths, progress counters) rather than hanging.
     * 0 disables the watchdog and restores unbounded blocking.
     */
    std::uint64_t watchdogMs = 30000;
    /** Injected worker faults (tests and --inject). */
    ShardFaults faults{};
    /**
     * Observability hookup (both members optional). With metrics:
     * per-shard queue-depth gauges, an aggregate enqueue-block
     * counter, and a batch-check-latency histogram. With a tracer:
     * one track per worker with a span per checked batch. Registered
     * callbacks read the checker, so drop the registry (or stop
     * snapshotting it) before destroying the checker.
     */
    obs::ObsContext obs{};
};

class ShardedChecker : public AccessChecker
{
  public:
    using Config = ShardedConfig;

    explicit ShardedChecker(Config cfg = Config());
    ~ShardedChecker() override;

    ShardedChecker(const ShardedChecker &) = delete;
    ShardedChecker &operator=(const ShardedChecker &) = delete;

    void onAccess(trace::VarId var, const Access &access,
                  const clock::VectorClock &vc) override;

    /** Flush pending batches, stop the workers, and merge the shard
     * race sets. Idempotent; called implicitly by races() and the
     * destructor. No onAccess() after this. */
    void drain();

    /** Merged races in (curOp, prevOp) order; drains first. */
    const std::vector<RaceReport> &races() const override;

    /** Races found so far without draining: per-shard counts
     * published after each batch, so heartbeats can poll mid-run. */
    std::uint64_t racesFound() const override;

    /** Checker metadata bytes across shards. Safe to poll while the
     * workers run (per-shard atomic counters). */
    std::uint64_t byteSize() const override;

    unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

    /** Current per-shard queue depths (for heartbeats). */
    std::vector<std::size_t> queueDepths() const;

    /** Producer push() calls that stalled on a full shard queue. */
    std::uint64_t enqueueBlocked() const;

    /**
     * Did the run fail structurally (worker died, watchdog fired)?
     * Once set, onAccess() drops silently and races() returns only
     * what was merged before the failure — callers must check this
     * before trusting the report.
     */
    bool failed() const { return failed_.load(std::memory_order_acquire); }

    /** Diagnostics for the failure (empty if !failed()). */
    std::string failureMessage() const;

  private:
    struct Item
    {
        trace::VarId var = trace::kInvalidId;
        Access access{};
        clock::VectorClock vc;
    };
    using Batch = std::vector<Item>;

    struct Shard
    {
        explicit Shard(std::size_t queueCapacity)
            : queue(queueCapacity)
        {
        }

        support::BoundedQueue<Batch> queue;
        std::thread worker;
        FastTrackChecker checker;
        unsigned index = 0;
        /** checker.byteSize() published after each batch, so the
         * producer can poll without racing the worker. */
        std::atomic<std::uint64_t> bytes{0};
        /** checker.races().size() published the same way. */
        std::atomic<std::uint64_t> races{0};
        /** Worker exited (drain()'s watchdog polls this). */
        std::atomic<bool> done{false};
        /** Tracer track of this shard's worker thread. */
        int track = 0;
        /** Producer-side buffer (only the producer touches it). */
        Batch pending;
    };

    void workerLoop(Shard &shard);
    void flushShard(Shard &shard);
    /** Fail the run (first caller wins): record @p msg, close every
     * queue, and log a structured event of @p kind ("shard.failed",
     * or "shard.watchdog" from the watchdog paths). */
    void failRun(const std::string &msg,
                 const char *kind = "shard.failed");

    std::size_t batchOps_;
    std::uint64_t pushTimeoutMs_;
    std::uint64_t watchdogMs_;
    ShardFaults faults_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<RaceReport> merged_;
    obs::ObsContext obs_{};
    /** Batch check latency in us (owned by the registry). */
    obs::Histogram *batchHist_ = nullptr;
    bool drained_ = false;
    std::atomic<bool> failed_{false};
    mutable std::mutex failMu_;
    std::string failureMsg_;
};

} // namespace asyncclock::report

#endif // ASYNCCLOCK_REPORT_SHARDED_HH

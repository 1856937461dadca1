#include "report/sharded.hh"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::report {

ShardedChecker::ShardedChecker(Config cfg)
    : batchOps_(cfg.batchOps > 0 ? cfg.batchOps : 1),
      pushTimeoutMs_(cfg.pushTimeoutMs > 0 ? cfg.pushTimeoutMs : 50),
      watchdogMs_(cfg.watchdogMs), faults_(cfg.faults), obs_(cfg.obs)
{
    unsigned n = cfg.shards > 0 ? cfg.shards : 1;
    std::size_t cap = cfg.queueCapacity > 0 ? cfg.queueCapacity : 1;
    if (obs_.metrics) {
        batchHist_ = &obs_.metrics->histogram(
            "sharded.batch_check_us",
            {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 20000});
        obs_.metrics->counterFn("sharded.enqueue_blocked",
                                [this] { return enqueueBlocked(); });
        obs_.metrics->counterFn("sharded.races_found",
                                [this] { return racesFound(); });
        obs_.metrics->gaugeFn("sharded.shards", [n] {
            return static_cast<std::int64_t>(n);
        });
    }
    shards_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        shards_.push_back(std::make_unique<Shard>(cap));
        Shard &shard = *shards_.back();
        shard.index = i;
        shard.pending.reserve(batchOps_);
        if (obs_.tracer)
            shard.track =
                obs_.tracer->registerTrack(strf("shard-%u", i));
        if (obs_.metrics) {
            Shard *s = &shard;
            obs_.metrics->gaugeFn(
                obs::seriesName("sharded.queue_depth",
                                {{"shard", strf("%u", i)}}),
                [s] {
                    return static_cast<std::int64_t>(s->queue.size());
                });
        }
        shard.worker = std::thread([this, &shard] {
            workerLoop(shard);
            shard.done.store(true, std::memory_order_release);
        });
    }
}

ShardedChecker::~ShardedChecker()
{
    drain();
}

void
ShardedChecker::workerLoop(Shard &shard)
{
    Batch batch;
    while (shard.queue.pop(batch)) {
        // A failed run drops whatever is still queued: the report is
        // already void, and drain()'s joins must not wait out a
        // backlog (or an injected stall) batch by batch.
        if (failed_.load(std::memory_order_acquire))
            return;
        if (faults_.poisonShard == shard.index) {
            // A real worker death would leave its queue open and the
            // producer wedged on a full queue. failRun() records the
            // diagnosis first and then closes every queue, so pushes
            // fail fast and the producer never reports the close as
            // the cause.
            failRun(strf("shard %u: worker died mid-run "
                         "(injected poison fault)",
                         shard.index));
            return;
        }
        if (faults_.stallShard == shard.index && faults_.stallMs > 0) {
            // Sleep in slices so a failed run interrupts the stall;
            // otherwise drain() would serve out the full sentence.
            std::uint64_t left = faults_.stallMs;
            while (left > 0 &&
                   !failed_.load(std::memory_order_acquire)) {
                std::uint64_t slice = left < 50 ? left : 50;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(slice));
                left -= slice;
            }
            if (failed_.load(std::memory_order_acquire))
                return;
        }
        // Timestamps come from the tracer's epoch when tracing (the
        // span needs them); from the plain steady clock when only the
        // latency histogram is on; from nowhere when obs is off.
        std::uint64_t t0 = 0;
        std::chrono::steady_clock::time_point c0;
        if (obs_.tracer)
            t0 = obs_.tracer->nowUs();
        else if (batchHist_)
            c0 = std::chrono::steady_clock::now();
        for (const Item &item : batch)
            shard.checker.onAccess(item.var, item.access, item.vc);
        shard.bytes.store(shard.checker.byteSize(),
                          std::memory_order_relaxed);
        shard.races.store(shard.checker.races().size(),
                          std::memory_order_relaxed);
        if (obs_.tracer) {
            std::uint64_t t1 = obs_.tracer->nowUs();
            obs_.tracer->span(
                shard.track, "check_batch", t0, t1,
                strf("{\"ops\":%zu}", batch.size()));
            if (batchHist_)
                batchHist_->observe(t1 - t0);
        } else if (batchHist_) {
            batchHist_->observe(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - c0)
                    .count()));
        }
    }
}

void
ShardedChecker::flushShard(Shard &shard)
{
    if (shard.pending.empty())
        return;
    Batch batch;
    batch.reserve(batchOps_);
    batch.swap(shard.pending);
    if (watchdogMs_ == 0) {
        shard.queue.push(std::move(batch));
        return;
    }
    // Timed pushes in backoff slices: ordinary backpressure retries
    // quietly, but a worker that stops consuming altogether trips the
    // watchdog and the run fails with diagnostics instead of hanging.
    std::uint64_t waitedMs = 0;
    for (;;) {
        switch (shard.queue.tryPushFor(
            batch, std::chrono::milliseconds(pushTimeoutMs_))) {
        case support::PushResult::Pushed:
            return;
        case support::PushResult::Closed:
            // Worker exited (poison fault or failed run elsewhere);
            // the batch is dropped, failRun records why.
            if (!failed_.load(std::memory_order_acquire))
                failRun(strf("shard %u: queue closed under the "
                             "producer (worker exited early)",
                             shard.index));
            return;
        case support::PushResult::Timeout:
            break;
        }
        if (failed_.load(std::memory_order_acquire))
            return;
        waitedMs += pushTimeoutMs_;
        if (waitedMs >= watchdogMs_) {
            std::string depths;
            for (const auto &s : shards_)
                depths += strf(" %zu", s->queue.size());
            failRun(strf("watchdog: shard %u accepted no batch for "
                         "%llu ms (races so far: %llu; queue depths:%s)",
                         shard.index,
                         static_cast<unsigned long long>(waitedMs),
                         static_cast<unsigned long long>(racesFound()),
                         depths.c_str()),
                    "shard.watchdog");
            return;
        }
    }
}

void
ShardedChecker::failRun(const std::string &msg, const char *kind)
{
    {
        std::lock_guard<std::mutex> lock(failMu_);
        if (failed_.load(std::memory_order_relaxed))
            return;
        failureMsg_ = msg;
        failed_.store(true, std::memory_order_release);
    }
    warn(strf("sharded checker failed: %s", msg.c_str()));
    if (obs_.events)
        obs_.events->log(obs::EventLog::Severity::Error, kind, msg);
    // Close every queue: blocked producers wake with Closed, workers
    // exit at their next pop, drain()'s joins complete.
    for (auto &shard : shards_)
        shard->queue.close();
}

std::string
ShardedChecker::failureMessage() const
{
    std::lock_guard<std::mutex> lock(failMu_);
    return failureMsg_;
}

void
ShardedChecker::onAccess(trace::VarId var, const Access &access,
                         const clock::VectorClock &vc)
{
    assert(!drained_ && "onAccess after drain");
    if (failed_.load(std::memory_order_acquire))
        return;
    Shard &shard = *shards_[var % shards_.size()];
    shard.pending.push_back({var, access, vc});
    if (shard.pending.size() >= batchOps_)
        flushShard(shard);
}

void
ShardedChecker::drain()
{
    if (drained_)
        return;
    drained_ = true;
    obs::ScopedSpan span(obs_.tracer, obs::kMainTrack, "shard_drain");
    for (auto &shard : shards_) {
        flushShard(*shard);
        shard->queue.close();
    }
    if (watchdogMs_ > 0) {
        // The joins below are unbounded, so a wedged worker would turn
        // "run finished" into a hang. Poll for progress first: as long
        // as queues are emptying or workers are exiting, keep waiting;
        // once nothing moves for watchdogMs_, fail the run. failRun()
        // also makes the (sliced) injected stall release its worker,
        // so the joins afterwards complete.
        std::uint64_t waitedMs = 0;
        std::size_t lastRemaining = ~std::size_t(0);
        for (;;) {
            // A failed run's workers exit without popping, so batches
            // left in the closed queues are not work to wait for.
            const bool failed = failed_.load(std::memory_order_acquire);
            std::size_t remaining = 0;
            for (const auto &shard : shards_) {
                if (!failed)
                    remaining += shard->queue.size();
                if (!shard->done.load(std::memory_order_acquire))
                    ++remaining;
            }
            if (remaining == 0)
                break;
            if (remaining < lastRemaining) {
                lastRemaining = remaining;
                waitedMs = 0;
            }
            if (waitedMs >= watchdogMs_) {
                if (!failed_.load(std::memory_order_acquire)) {
                    std::string stuck;
                    for (const auto &shard : shards_) {
                        if (!shard->done.load(
                                std::memory_order_acquire))
                            stuck += strf(" %u", shard->index);
                    }
                    failRun(strf("watchdog: no drain progress for "
                                 "%llu ms (stuck shard(s):%s)",
                                 static_cast<unsigned long long>(
                                     waitedMs),
                                 stuck.c_str()),
                            "shard.watchdog");
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            waitedMs += 10;
        }
    }
    for (auto &shard : shards_) {
        if (shard->worker.joinable())
            shard->worker.join();
    }
    std::size_t total = 0;
    for (auto &shard : shards_)
        total += shard->checker.races().size();
    merged_.reserve(total);
    for (auto &shard : shards_) {
        const auto &rs = shard->checker.races();
        merged_.insert(merged_.end(), rs.begin(), rs.end());
        shard->bytes.store(shard->checker.byteSize(),
                           std::memory_order_relaxed);
    }
    // Canonical order: by the racy (current) access, then its
    // predecessor — matches the order a sequential checker discovers
    // races in, independent of shard count.
    std::sort(merged_.begin(), merged_.end(),
              [](const RaceReport &a, const RaceReport &b) {
                  if (a.curOp != b.curOp)
                      return a.curOp < b.curOp;
                  if (a.prevOp != b.prevOp)
                      return a.prevOp < b.prevOp;
                  return a.var < b.var;
              });
}

const std::vector<RaceReport> &
ShardedChecker::races() const
{
    // Logically const: finishing the pipeline doesn't change the
    // answer, only materializes it.
    const_cast<ShardedChecker *>(this)->drain();
    return merged_;
}

std::uint64_t
ShardedChecker::racesFound() const
{
    if (drained_)
        return merged_.size();
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->races.load(std::memory_order_relaxed);
    return total;
}

std::vector<std::size_t>
ShardedChecker::queueDepths() const
{
    std::vector<std::size_t> depths;
    depths.reserve(shards_.size());
    for (const auto &shard : shards_)
        depths.push_back(shard->queue.size());
    return depths;
}

std::uint64_t
ShardedChecker::enqueueBlocked() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->queue.blockedPushes();
    return total;
}

std::uint64_t
ShardedChecker::byteSize() const
{
    std::uint64_t total = merged_.capacity() * sizeof(RaceReport);
    for (const auto &shard : shards_) {
        total += shard->bytes.load(std::memory_order_relaxed);
        total += shard->pending.capacity() * sizeof(Item);
    }
    return total;
}

} // namespace asyncclock::report

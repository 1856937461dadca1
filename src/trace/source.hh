/**
 * @file
 * Streaming trace pipeline: sinks, the slim TraceMeta view, and the
 * TraceSource pull interface.
 *
 * The paper's analysis is single-pass (section 3): nothing in either
 * detector needs the whole operation sequence in memory. This module
 * decouples trace *storage* from trace *consumption* so million-op
 * traces never fully materialize:
 *
 *  - TraceSink / EntitySink (trace/trace.hh): push interface a
 *    producer (the simulated runtime, a format reader or writer)
 *    emits entity declarations and operations into; trace::Trace is
 *    the sink that materializes them.
 *  - TraceMeta: the entity tables alone — threads, queues, vars,
 *    handles, sites, and a per-event {queue, attrs} record filled in
 *    when the event's send streams past. This is all the metadata the
 *    detectors read; the O(n) operation vector stays out of it.
 *  - TraceSource: pull interface the detectors consume — entity
 *    tables via meta(), then next(Operation&) until exhausted.
 *    Implementations: MaterializedSource (wraps a whole-trace
 *    trace::Trace), StreamingTextSource and StreamingBinarySource
 *    (trace/trace_io.hh) which hold O(1) state in the op count.
 *
 * Entity tables may *grow* mid-stream (the runtime forks threads and
 * allocates events while executing); consumers size their per-entity
 * state lazily from meta() after each pull.
 */

#ifndef ASYNCCLOCK_TRACE_SOURCE_HH
#define ASYNCCLOCK_TRACE_SOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hh"
#include "trace/trace.hh"

namespace asyncclock::trace {

/**
 * Per-run error budget of a streaming source. A corrupt *operation*
 * record (bad ids, malformed payload) can be skipped and counted —
 * entity declarations cannot, because their ids are positional and a
 * skip would silently shift every later id (phantom races). Once more
 * than maxRecordErrors records have been skipped the source fails
 * with ErrCode::BudgetExceeded and a summary. The default budget of 0
 * keeps the pre-existing strict behaviour: first corrupt record fails
 * the stream.
 */
struct SourceErrorPolicy
{
    std::uint64_t maxRecordErrors = 0;
};

/** Per-event record of a TraceMeta: the queueing facts the detectors
 * read, available from the event's send onward. */
struct MetaEvent
{
    QueueId queue = kInvalidId;
    SendAttrs attrs{};
};

/**
 * The slim trace view: entity tables without the operation vector.
 * Ground-truth seed labels ride along in the var table (they are
 * entity data, used only by report post-processing, never by the
 * detectors' hot path).
 */
class TraceMeta : public EntitySink
{
  public:
    // ----- EntitySink -----------------------------------------------
    ThreadId
    declThread(ThreadKind kind, std::string name, QueueId queue) override
    {
        threads_.push_back({kind, queue, std::move(name)});
        return static_cast<ThreadId>(threads_.size() - 1);
    }
    QueueId
    declQueue(QueueKind kind, std::string name) override
    {
        queues_.push_back({kind, kInvalidId, std::move(name)});
        return static_cast<QueueId>(queues_.size() - 1);
    }
    void
    bindLooper(QueueId queue, ThreadId looper) override
    {
        // Tolerate out-of-range ids from a malformed stream (the
        // binding is dropped; the op stream then fails validation
        // instead of indexing out of bounds).
        if (queue >= queues_.size() || looper >= threads_.size())
            return;
        queues_[queue].looper = looper;
        threads_[looper].queue = queue;
    }
    EventId
    declEvent() override
    {
        events_.push_back({});
        return static_cast<EventId>(events_.size() - 1);
    }
    VarId
    declVar(std::string name, SeedLabel label) override
    {
        vars_.push_back({std::move(name), label});
        return static_cast<VarId>(vars_.size() - 1);
    }
    HandleId
    declHandle(std::string name) override
    {
        handles_.push_back({std::move(name)});
        return static_cast<HandleId>(handles_.size() - 1);
    }
    SiteId
    declSite(std::string name, Frame frame,
             std::uint32_t commGroup) override
    {
        sites_.push_back({std::move(name), frame, commGroup});
        return static_cast<SiteId>(sites_.size() - 1);
    }

    /** Record an observed send: fills the event's queueing facts. */
    void
    noteSend(EventId event, QueueId queue, const SendAttrs &attrs)
    {
        MetaEvent &ev = events_[event];
        ev.queue = queue;
        ev.attrs = attrs;
    }

    // ----- access ---------------------------------------------------
    const std::vector<ThreadInfo> &threads() const { return threads_; }
    const std::vector<QueueInfo> &queues() const { return queues_; }
    const std::vector<MetaEvent> &events() const { return events_; }
    const std::vector<VarInfo> &vars() const { return vars_; }
    const std::vector<HandleInfo> &handles() const { return handles_; }
    const std::vector<SiteInfo> &sites() const { return sites_; }

    const ThreadInfo &thread(ThreadId id) const { return threads_[id]; }
    const QueueInfo &queue(QueueId id) const { return queues_[id]; }
    const MetaEvent &event(EventId id) const { return events_[id]; }
    const VarInfo &var(VarId id) const { return vars_[id]; }
    const HandleInfo &handle(HandleId id) const { return handles_[id]; }
    const SiteInfo &site(SiteId id) const { return sites_[id]; }

    /** Looper thread of the queue executing event @p e (kInvalidId for
     * binder events and events not yet sent). */
    ThreadId
    looperOf(EventId e) const
    {
        const MetaEvent &ev = events_[e];
        if (ev.queue == kInvalidId)
            return kInvalidId;
        const QueueInfo &q = queues_[ev.queue];
        return q.kind == QueueKind::Looper ? q.looper : kInvalidId;
    }

    /** Which op vocabulary the stream uses (set from the header by
     * the readers; default Looper). */
    Dialect dialect() const { return dialect_; }
    void setDialect(Dialect d) { dialect_ = d; }

    /** Build the slim view of a materialized trace (event queueing
     * facts pre-filled from its event table). */
    static TraceMeta fromTrace(const Trace &tr);

    /** Heap bytes of the tables, for memory accounting. */
    std::uint64_t byteSize() const;

  private:
    std::vector<ThreadInfo> threads_;
    std::vector<QueueInfo> queues_;
    std::vector<MetaEvent> events_;
    std::vector<VarInfo> vars_;
    std::vector<HandleInfo> handles_;
    std::vector<SiteInfo> sites_;
    Dialect dialect_ = Dialect::Looper;
};

/**
 * Pull interface the detectors consume. meta() is valid immediately
 * and may grow as records stream past; next() yields operations in
 * trace order. next() returning false means exhausted *or* failed —
 * check ok() to distinguish.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Entity tables seen so far (grows as the stream advances). */
    virtual const TraceMeta &meta() const = 0;

    /** Pull the next operation; false when exhausted or on error. */
    virtual bool next(Operation &op) = 0;

    /** False after a malformed stream; error() describes why. */
    virtual bool ok() const { return true; }
    virtual const std::string &error() const;

    /** Structured form of ok()/error(): the error category plus the
     * input offset of the failing record when known. */
    virtual Status
    status() const
    {
        return ok() ? Status::ok()
                    : Status::error(ErrCode::ParseError, error());
    }

    /** Corrupt records skipped under the error budget so far. */
    virtual std::uint64_t recordsSkipped() const { return 0; }

    /** Bytes held by the trace *container* this source reads from —
     * O(ops) for MaterializedSource, O(1) for the streaming sources.
     * This is the quantity the streaming pipeline removes from the
     * analysis' peak footprint; detector metadata is accounted
     * separately. */
    virtual std::uint64_t containerBytes() const = 0;
};

/** Replay @p tr's entity tables into @p sink. Each table is dense and
 * independent, so per-table declaration order reproduces the original
 * ids exactly. */
void replayEntities(const Trace &tr, EntitySink &sink);

/** TraceSource over a fully materialized trace::Trace. */
class MaterializedSource : public TraceSource
{
  public:
    /** @p tr must outlive the source. */
    explicit MaterializedSource(const Trace &tr)
        : trace_(tr), meta_(TraceMeta::fromTrace(tr))
    {
    }

    const TraceMeta &meta() const override { return meta_; }

    bool
    next(Operation &op) override
    {
        if (pos_ >= trace_.numOps())
            return false;
        op = trace_.op(pos_++);
        return true;
    }

    std::uint64_t
    containerBytes() const override
    {
        return trace_.ops().capacity() * sizeof(Operation);
    }

    /** Restart from the first operation (cheap for replays). */
    void rewind() { pos_ = 0; }

  private:
    const Trace &trace_;
    TraceMeta meta_;
    OpId pos_ = 0;
};

} // namespace asyncclock::trace

#endif // ASYNCCLOCK_TRACE_SOURCE_HH

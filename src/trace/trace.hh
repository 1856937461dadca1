/**
 * @file
 * Trace container: entity tables (threads, queues, events, variables,
 * handles, source sites) plus the operation sequence of section 2.2.
 *
 * A Trace is produced by the simulated runtime (src/runtime) or read
 * from a file (trace/trace_io.hh), both writing through the TraceSink
 * interface declared here, and consumed operation-by-operation by the
 * detectors. It also carries the workload generator's ground
 * truth (seeded race labels) so experiments can score reports.
 */

#ifndef ASYNCCLOCK_TRACE_TRACE_HH
#define ASYNCCLOCK_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/ids.hh"
#include "trace/op.hh"

namespace asyncclock::trace {

/**
 * Causality-model vocabulary of a trace. Looper traces use the
 * message-queue op set of HsiaoNKPP17 (send/begin/end/remove); async
 * traces use the structured-concurrency set (spawn/await/scope-end/
 * cancel) with events standing in for tasks. Detectors pick their
 * CausalityModel from this tag.
 */
enum class Dialect : std::uint8_t { Looper, Async };

const char *dialectName(Dialect d);

/** Thread flavors of the three Android thread models (section 2.1). */
enum class ThreadKind : std::uint8_t { Worker, Looper, Binder };

/** Queue flavors: a looper queue is drained by one looper thread in
 * FIFO order; a binder queue is drained FIFO by a pool of binder
 * threads that execute events concurrently. */
enum class QueueKind : std::uint8_t { Looper, Binder };

/** Which code "frame" a source site belongs to; drives the
 * user-induced filter of section 6. */
enum class Frame : std::uint8_t { User, Framework, Library };

/**
 * Ground-truth label the workload generator attaches to a seeded racy
 * variable (section 7.7 taxonomy). `None` marks variables without a
 * seeded race (any race on them would be a detector bug).
 */
enum class SeedLabel : std::uint8_t {
    None,
    Harmful,                ///< Order violation planted on purpose.
    HarmlessTypeI,          ///< Delayed-update idiom.
    HarmlessTypeII,         ///< Control-dependent flag idiom.
    HarmlessCommutative,    ///< Commutative library operation.
    HarmlessOther,          ///< Benign by construction, untyped.
};

const char *seedLabelName(SeedLabel label);

struct ThreadInfo
{
    ThreadKind kind = ThreadKind::Worker;
    /** Queue served (looper/binder threads only). */
    QueueId queue = kInvalidId;
    std::string name;
};

struct QueueInfo
{
    QueueKind kind = QueueKind::Looper;
    /** The looper thread draining this queue (looper queues only). */
    ThreadId looper = kInvalidId;
    std::string name;
};

/** Per-event record; the op cross-links are filled in as operations
 * are appended. In the async dialect an event is a task: `scope` is
 * its structured-concurrency scope, sendOp/removeOp double as the
 * spawn/cancel ops, and `queue` stays kInvalidId. */
struct EventInfo
{
    QueueId queue = kInvalidId;
    SendAttrs attrs{};
    Task sender{};
    /** Thread that executed the event (filled at begin). */
    ThreadId executor = kInvalidId;
    /** Async dialect: the scope handle the task was spawned into. */
    HandleId scope = kInvalidId;
    OpId sendOp = kInvalidId;
    OpId beginOp = kInvalidId;
    OpId endOp = kInvalidId;
    OpId removeOp = kInvalidId;
};

struct VarInfo
{
    std::string name;
    SeedLabel seedLabel = SeedLabel::None;
};

struct HandleInfo
{
    std::string name;
};

struct SiteInfo
{
    std::string name;
    Frame frame = Frame::User;
    /** Commutativity group: sites sharing a group id are whitelisted
     * as mutually commutative (section 6); kInvalidId = none. */
    std::uint32_t commGroup = kInvalidId;
};

/** Aggregate statistics of a trace (Table 2 columns). */
struct TraceStats
{
    std::uint64_t ops = 0;
    std::uint64_t syncOps = 0;      ///< fork/join/signal/wait/send
    std::uint64_t memOps = 0;       ///< reads + writes
    std::uint64_t workerThreads = 0;
    std::uint64_t looperThreads = 0;
    std::uint64_t binderThreads = 0;
    std::uint64_t looperEvents = 0;
    std::uint64_t binderEvents = 0;
    std::uint64_t removedEvents = 0;
    std::uint64_t spanMs = 0;       ///< vtime span of the trace

    std::string summary() const;
};

/** Push interface for entity declarations. Ids are allocated densely
 * per table, in declaration order. */
class EntitySink
{
  public:
    virtual ~EntitySink() = default;

    virtual ThreadId declThread(ThreadKind kind, std::string name,
                                QueueId queue) = 0;
    virtual QueueId declQueue(QueueKind kind, std::string name) = 0;
    virtual void bindLooper(QueueId queue, ThreadId looper) = 0;
    virtual EventId declEvent() = 0;
    virtual VarId declVar(std::string name, SeedLabel label) = 0;
    virtual HandleId declHandle(std::string name) = 0;
    virtual SiteId declSite(std::string name, Frame frame,
                            std::uint32_t commGroup) = 0;
};

/** Push interface for a full trace: entity declarations plus the
 * operation stream. Producers hand ops to emit(), directly or through
 * the convenience emitters, each of which builds one Operation. */
class TraceSink : public EntitySink
{
  public:
    virtual void emit(const Operation &op) = 0;

    // ----- convenience emitters (executing task + vtime) -----------
    void threadBegin(ThreadId t, std::uint64_t vtime);
    void threadEnd(ThreadId t, std::uint64_t vtime);
    void eventBegin(EventId e, ThreadId executor, std::uint64_t vtime);
    void eventEnd(EventId e, std::uint64_t vtime);
    void read(Task task, VarId var, SiteId site, std::uint64_t vtime);
    void write(Task task, VarId var, SiteId site, std::uint64_t vtime);
    void fork(Task task, ThreadId child, std::uint64_t vtime);
    void join(Task task, ThreadId child, std::uint64_t vtime);
    void signal(Task task, HandleId handle, std::uint64_t vtime);
    void wait(Task task, HandleId handle, std::uint64_t vtime);
    void send(Task task, QueueId queue, EventId event,
              const SendAttrs &attrs, std::uint64_t vtime);
    void removeEvent(Task task, EventId event, std::uint64_t vtime);

    // Async-dialect emitters (events stand in for tasks).
    void taskSpawn(Task task, EventId child, HandleId scope,
                   std::uint64_t vtime);
    void taskAwait(Task task, EventId child, std::uint64_t vtime);
    void scopeEnd(Task task, HandleId scope, std::uint64_t vtime);
    void taskCancel(Task task, EventId child, std::uint64_t vtime);
};

/**
 * The trace: entity tables plus the operation sequence.
 *
 * A Trace is itself the TraceSink that materializes a trace: declare
 * entities, then emit() ops (directly or through the convenience
 * emitters) in execution order. emit() maintains the EventInfo op
 * cross-links. validate() checks well-formedness and the
 * queueing-discipline guarantees the causality model relies on.
 */
class Trace final : public TraceSink
{
  public:
    // ----- EntitySink -----------------------------------------------
    // The trailing defaults serve hand-built traces (tests, fixed
    // patterns); calls through an EntitySink pass every argument.
    ThreadId declThread(ThreadKind kind, std::string name,
                        QueueId queue = kInvalidId) override;
    QueueId declQueue(QueueKind kind, std::string name) override;
    /** Bind a looper thread to its queue (after both exist); ids out
     * of range (a malformed file) drop the binding. */
    void bindLooper(QueueId queue, ThreadId looper) override;
    EventId declEvent() override;
    VarId declVar(std::string name,
                  SeedLabel label = SeedLabel::None) override;
    HandleId declHandle(std::string name) override;
    SiteId declSite(std::string name, Frame frame,
                    std::uint32_t commGroup = kInvalidId) override;

    // ----- TraceSink ------------------------------------------------
    /** Append an operation; updates event cross-links. */
    void emit(const Operation &op) override;

    // ----- access ---------------------------------------------------
    const std::vector<Operation> &ops() const { return ops_; }
    const Operation &op(OpId id) const { return ops_[id]; }
    std::uint32_t numOps() const
    {
        return static_cast<std::uint32_t>(ops_.size());
    }

    const std::vector<ThreadInfo> &threads() const { return threads_; }
    const std::vector<QueueInfo> &queues() const { return queues_; }
    const std::vector<EventInfo> &events() const { return events_; }
    const std::vector<VarInfo> &vars() const { return vars_; }
    const std::vector<HandleInfo> &handles() const { return handles_; }
    const std::vector<SiteInfo> &sites() const { return sites_; }

    const ThreadInfo &thread(ThreadId id) const { return threads_[id]; }
    const QueueInfo &queue(QueueId id) const { return queues_[id]; }
    const EventInfo &event(EventId id) const { return events_[id]; }
    const VarInfo &var(VarId id) const { return vars_[id]; }
    const SiteInfo &site(SiteId id) const { return sites_[id]; }

    /** Mutable entity access for deserialization and the generator. */
    ThreadInfo &threadMut(ThreadId id) { return threads_[id]; }
    EventInfo &eventMut(EventId id) { return events_[id]; }
    VarInfo &varMut(VarId id) { return vars_[id]; }
    SiteInfo &siteMut(SiteId id) { return sites_[id]; }

    /** Looper thread of the queue executing event @p e (kInvalidId for
     * binder events). */
    ThreadId looperOf(EventId e) const;

    /** Which op vocabulary this trace uses (default Looper). */
    Dialect dialect() const { return dialect_; }
    void setDialect(Dialect d) { dialect_ = d; }

    /** Compute aggregate statistics. */
    TraceStats stats() const;

    /**
     * Well-formedness + queue-discipline validation.
     *
     * @param full Also run the O(events^2)-per-queue dispatch-order
     *             checks that underpin rules FIFO/PRIORITY/ATFRONT.
     * @return empty string if valid, else a description of the first
     *         violation found.
     */
    std::string validate(bool full = true) const;

  private:
    std::vector<ThreadInfo> threads_;
    std::vector<QueueInfo> queues_;
    std::vector<EventInfo> events_;
    std::vector<VarInfo> vars_;
    std::vector<HandleInfo> handles_;
    std::vector<SiteInfo> sites_;
    std::vector<Operation> ops_;
    Dialect dialect_ = Dialect::Looper;
};

} // namespace asyncclock::trace

#endif // ASYNCCLOCK_TRACE_TRACE_HH

#include "trace/trace.hh"

#include <algorithm>
#include <map>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::trace {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::ThreadBegin: return "tbegin";
      case OpKind::ThreadEnd: return "tend";
      case OpKind::EventBegin: return "ebegin";
      case OpKind::EventEnd: return "eend";
      case OpKind::Read: return "rd";
      case OpKind::Write: return "wr";
      case OpKind::Fork: return "fork";
      case OpKind::Join: return "join";
      case OpKind::Signal: return "signal";
      case OpKind::Wait: return "wait";
      case OpKind::Send: return "send";
      case OpKind::RemoveEvent: return "remove";
      case OpKind::TaskSpawn: return "spawn";
      case OpKind::TaskAwait: return "await";
      case OpKind::ScopeEnd: return "scopeend";
      case OpKind::TaskCancel: return "cancel";
    }
    return "?";
}

const char *
dialectName(Dialect d)
{
    switch (d) {
      case Dialect::Looper: return "looper";
      case Dialect::Async: return "async";
    }
    return "?";
}

const char *
seedLabelName(SeedLabel label)
{
    switch (label) {
      case SeedLabel::None: return "none";
      case SeedLabel::Harmful: return "harmful";
      case SeedLabel::HarmlessTypeI: return "type-I";
      case SeedLabel::HarmlessTypeII: return "type-II";
      case SeedLabel::HarmlessCommutative: return "commutative";
      case SeedLabel::HarmlessOther: return "harmless-other";
    }
    return "?";
}

// ----- TraceSink convenience emitters --------------------------------

namespace {

Operation
makeOp(OpKind kind, Task task, std::uint64_t vtime)
{
    Operation op;
    op.kind = kind;
    op.task = task;
    op.vtime = vtime;
    return op;
}

} // namespace

void
TraceSink::threadBegin(ThreadId t, std::uint64_t vtime)
{
    emit(makeOp(OpKind::ThreadBegin, Task::thread(t), vtime));
}

void
TraceSink::threadEnd(ThreadId t, std::uint64_t vtime)
{
    emit(makeOp(OpKind::ThreadEnd, Task::thread(t), vtime));
}

void
TraceSink::eventBegin(EventId e, ThreadId executor, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::EventBegin, Task::event(e), vtime);
    op.target = executor;
    emit(op);
}

void
TraceSink::eventEnd(EventId e, std::uint64_t vtime)
{
    emit(makeOp(OpKind::EventEnd, Task::event(e), vtime));
}

void
TraceSink::read(Task task, VarId var, SiteId site, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Read, task, vtime);
    op.target = var;
    op.site = site;
    emit(op);
}

void
TraceSink::write(Task task, VarId var, SiteId site, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Write, task, vtime);
    op.target = var;
    op.site = site;
    emit(op);
}

void
TraceSink::fork(Task task, ThreadId child, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Fork, task, vtime);
    op.target = child;
    emit(op);
}

void
TraceSink::join(Task task, ThreadId child, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Join, task, vtime);
    op.target = child;
    emit(op);
}

void
TraceSink::signal(Task task, HandleId handle, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Signal, task, vtime);
    op.target = handle;
    emit(op);
}

void
TraceSink::wait(Task task, HandleId handle, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Wait, task, vtime);
    op.target = handle;
    emit(op);
}

void
TraceSink::send(Task task, QueueId queue, EventId event,
                const SendAttrs &attrs, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::Send, task, vtime);
    op.target = queue;
    op.event = event;
    op.attrs = attrs;
    emit(op);
}

void
TraceSink::removeEvent(Task task, EventId event, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::RemoveEvent, task, vtime);
    op.event = event;
    emit(op);
}

void
TraceSink::taskSpawn(Task task, EventId child, HandleId scope,
                     std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::TaskSpawn, task, vtime);
    op.target = scope;
    op.event = child;
    emit(op);
}

void
TraceSink::taskAwait(Task task, EventId child, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::TaskAwait, task, vtime);
    op.event = child;
    emit(op);
}

void
TraceSink::scopeEnd(Task task, HandleId scope, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::ScopeEnd, task, vtime);
    op.target = scope;
    emit(op);
}

void
TraceSink::taskCancel(Task task, EventId child, std::uint64_t vtime)
{
    Operation op = makeOp(OpKind::TaskCancel, task, vtime);
    op.event = child;
    emit(op);
}

// ----- Trace ------------------------------------------------------------

ThreadId
Trace::declThread(ThreadKind kind, std::string name, QueueId queue)
{
    threads_.push_back({kind, queue, std::move(name)});
    return static_cast<ThreadId>(threads_.size() - 1);
}

QueueId
Trace::declQueue(QueueKind kind, std::string name)
{
    queues_.push_back({kind, kInvalidId, std::move(name)});
    return static_cast<QueueId>(queues_.size() - 1);
}

EventId
Trace::declEvent()
{
    events_.push_back({});
    return static_cast<EventId>(events_.size() - 1);
}

VarId
Trace::declVar(std::string name, SeedLabel label)
{
    vars_.push_back({std::move(name), label});
    return static_cast<VarId>(vars_.size() - 1);
}

HandleId
Trace::declHandle(std::string name)
{
    handles_.push_back({std::move(name)});
    return static_cast<HandleId>(handles_.size() - 1);
}

SiteId
Trace::declSite(std::string name, Frame frame, std::uint32_t commGroup)
{
    sites_.push_back({std::move(name), frame, commGroup});
    return static_cast<SiteId>(sites_.size() - 1);
}

void
Trace::bindLooper(QueueId queue, ThreadId looper)
{
    if (queue >= queues_.size() || looper >= threads_.size())
        return;
    queues_[queue].looper = looper;
    threads_[looper].queue = queue;
}

void
Trace::emit(const Operation &op)
{
    OpId id = static_cast<OpId>(ops_.size());
    switch (op.kind) {
      case OpKind::Send:
        {
            EventInfo &ev = events_[op.event];
            ev.queue = op.target;
            ev.attrs = op.attrs;
            ev.sender = op.task;
            ev.sendOp = id;
        }
        break;
      case OpKind::EventBegin:
        {
            EventInfo &ev = events_[op.task.index()];
            ev.executor = op.target;
            ev.beginOp = id;
        }
        break;
      case OpKind::EventEnd:
        events_[op.task.index()].endOp = id;
        break;
      case OpKind::RemoveEvent:
        events_[op.event].removeOp = id;
        break;
      case OpKind::TaskSpawn:
        {
            EventInfo &ev = events_[op.event];
            ev.sender = op.task;
            ev.scope = op.target;
            ev.sendOp = id;
        }
        break;
      case OpKind::TaskCancel:
        events_[op.event].removeOp = id;
        break;
      default:
        break;
    }
    ops_.push_back(op);
}

ThreadId
Trace::looperOf(EventId e) const
{
    const EventInfo &ev = events_[e];
    if (ev.queue == kInvalidId)
        return kInvalidId;
    const QueueInfo &q = queues_[ev.queue];
    return q.kind == QueueKind::Looper ? q.looper : kInvalidId;
}

TraceStats
Trace::stats() const
{
    TraceStats s;
    s.ops = ops_.size();
    for (const auto &op : ops_) {
        switch (op.kind) {
          case OpKind::Read:
          case OpKind::Write:
            ++s.memOps;
            break;
          case OpKind::Fork:
          case OpKind::Join:
          case OpKind::Signal:
          case OpKind::Wait:
          case OpKind::Send:
          case OpKind::TaskSpawn:
          case OpKind::TaskAwait:
          case OpKind::ScopeEnd:
          case OpKind::TaskCancel:
            ++s.syncOps;
            break;
          default:
            break;
        }
    }
    for (const auto &t : threads_) {
        switch (t.kind) {
          case ThreadKind::Worker: ++s.workerThreads; break;
          case ThreadKind::Looper: ++s.looperThreads; break;
          case ThreadKind::Binder: ++s.binderThreads; break;
        }
    }
    for (const auto &e : events_) {
        if (e.queue == kInvalidId)
            continue;
        if (e.removeOp != kInvalidId)
            ++s.removedEvents;
        else if (queues_[e.queue].kind == QueueKind::Looper)
            ++s.looperEvents;
        else
            ++s.binderEvents;
    }
    if (!ops_.empty())
        s.spanMs = ops_.back().vtime - ops_.front().vtime;
    return s;
}

std::string
TraceStats::summary() const
{
    return strf("ops=%llu (sync=%llu mem=%llu) threads(w/l/b)=%llu/%llu/"
                "%llu events(looper/binder/removed)=%llu/%llu/%llu "
                "span=%llums",
                (unsigned long long)ops, (unsigned long long)syncOps,
                (unsigned long long)memOps,
                (unsigned long long)workerThreads,
                (unsigned long long)looperThreads,
                (unsigned long long)binderThreads,
                (unsigned long long)looperEvents,
                (unsigned long long)binderEvents,
                (unsigned long long)removedEvents,
                (unsigned long long)spanMs);
}

namespace {

/** Task lifecycle states used by the validator. */
enum class LiveState { NotStarted, Running, Finished };

/**
 * Async-dialect well-formedness: the structured-concurrency rules the
 * AsyncTaskModel relies on. A task (event) is spawned exactly once
 * into a scope, begins only after its spawn, is cancelled only while
 * pending, is awaited only once settled (finished or cancelled), and
 * a scope closes only when every member task has settled.
 */
std::string
validateAsync(const Trace &tr)
{
    const auto &events = tr.events();
    const auto &threads = tr.threads();
    const auto &handles = tr.handles();
    std::vector<LiveState> threadState(threads.size(),
                                       LiveState::NotStarted);
    std::vector<LiveState> taskState(events.size(),
                                     LiveState::NotStarted);
    std::vector<bool> spawned(events.size(), false);
    std::vector<bool> cancelled(events.size(), false);
    std::vector<HandleId> scopeOf(events.size(), kInvalidId);
    std::vector<std::uint64_t> handleSignals(handles.size(), 0);
    std::vector<std::uint64_t> scopeOpen(handles.size(), 0);

    std::uint64_t lastVtime = 0;
    const auto &ops = tr.ops();
    for (OpId i = 0; i < ops.size(); ++i) {
        const Operation &op = ops[i];
        if (op.vtime < lastVtime)
            return strf("op %u: vtime decreases", i);
        lastVtime = op.vtime;

        if (op.task.isEvent()) {
            if (op.task.index() >= events.size())
                return strf("op %u: bad task id", i);
        } else {
            if (op.task.index() >= threads.size())
                return strf("op %u: bad thread id", i);
        }

        const bool isBegin = op.kind == OpKind::ThreadBegin ||
                             op.kind == OpKind::EventBegin;
        if (!isBegin) {
            if (op.task.isEvent()) {
                if (taskState[op.task.index()] != LiveState::Running)
                    return strf("op %u: task %u not running", i,
                                op.task.index());
            } else {
                if (threadState[op.task.index()] != LiveState::Running)
                    return strf("op %u: thread %u not running", i,
                                op.task.index());
            }
        }

        switch (op.kind) {
          case OpKind::ThreadBegin:
            if (threadState[op.task.index()] != LiveState::NotStarted)
                return strf("op %u: double thread begin", i);
            threadState[op.task.index()] = LiveState::Running;
            break;
          case OpKind::ThreadEnd:
            threadState[op.task.index()] = LiveState::Finished;
            break;
          case OpKind::EventBegin:
            {
                EventId e = op.task.index();
                if (taskState[e] != LiveState::NotStarted)
                    return strf("op %u: double task begin", i);
                if (!spawned[e])
                    return strf("op %u: task %u begins unspawned", i,
                                e);
                if (cancelled[e])
                    return strf("op %u: cancelled task %u begins", i,
                                e);
                taskState[e] = LiveState::Running;
                ThreadId exec = op.target;
                if (exec >= threads.size())
                    return strf("op %u: bad executor thread", i);
                if (threadState[exec] != LiveState::Running)
                    return strf("op %u: executor not running", i);
            }
            break;
          case OpKind::EventEnd:
            {
                EventId e = op.task.index();
                taskState[e] = LiveState::Finished;
                if (scopeOf[e] != kInvalidId)
                    --scopeOpen[scopeOf[e]];
            }
            break;
          case OpKind::Read:
          case OpKind::Write:
            if (op.target >= tr.vars().size())
                return strf("op %u: bad var id", i);
            if (op.site != kInvalidId && op.site >= tr.sites().size())
                return strf("op %u: bad site id", i);
            break;
          case OpKind::Fork:
            if (op.target >= threads.size())
                return strf("op %u: bad forked thread", i);
            if (threadState[op.target] != LiveState::NotStarted)
                return strf("op %u: forked thread already started", i);
            break;
          case OpKind::Join:
            if (op.target >= threads.size())
                return strf("op %u: bad joined thread", i);
            if (threadState[op.target] != LiveState::Finished)
                return strf("op %u: join before thread end", i);
            break;
          case OpKind::Signal:
            if (op.target >= handles.size())
                return strf("op %u: bad handle", i);
            ++handleSignals[op.target];
            break;
          case OpKind::Wait:
            if (op.target >= handles.size())
                return strf("op %u: bad handle", i);
            if (handleSignals[op.target] == 0)
                return strf("op %u: wait before any signal", i);
            break;
          case OpKind::TaskSpawn:
            {
                if (op.event >= events.size())
                    return strf("op %u: spawn of bad task", i);
                if (op.target >= handles.size())
                    return strf("op %u: spawn into bad scope", i);
                if (spawned[op.event])
                    return strf("op %u: task %u spawned twice", i,
                                op.event);
                spawned[op.event] = true;
                scopeOf[op.event] = op.target;
                ++scopeOpen[op.target];
            }
            break;
          case OpKind::TaskAwait:
            {
                if (op.event >= events.size())
                    return strf("op %u: await of bad task", i);
                if (!spawned[op.event])
                    return strf("op %u: await of unspawned task", i);
                if (taskState[op.event] != LiveState::Finished &&
                    !cancelled[op.event]) {
                    return strf("op %u: await before task %u settles",
                                i, op.event);
                }
            }
            break;
          case OpKind::ScopeEnd:
            if (op.target >= handles.size())
                return strf("op %u: close of bad scope", i);
            if (scopeOpen[op.target] != 0)
                return strf("op %u: scope %u closes with %llu open "
                            "task(s)",
                            i, op.target,
                            (unsigned long long)scopeOpen[op.target]);
            break;
          case OpKind::TaskCancel:
            {
                if (op.event >= events.size())
                    return strf("op %u: cancel of bad task", i);
                if (!spawned[op.event])
                    return strf("op %u: cancel of unspawned task", i);
                if (taskState[op.event] != LiveState::NotStarted)
                    return strf("op %u: cancel of started task", i);
                if (cancelled[op.event])
                    return strf("op %u: task %u cancelled twice", i,
                                op.event);
                cancelled[op.event] = true;
                --scopeOpen[scopeOf[op.event]];
            }
            break;
          case OpKind::Send:
          case OpKind::RemoveEvent:
            return strf("op %u: looper-dialect op in async trace", i);
        }
    }
    return "";
}

} // namespace

std::string
Trace::validate(bool full) const
{
    if (dialect_ == Dialect::Async)
        return validateAsync(*this);
    // --- id ranges, vtime monotonicity, lifecycle -------------------
    std::vector<LiveState> threadState(threads_.size(),
                                       LiveState::NotStarted);
    std::vector<LiveState> eventState(events_.size(),
                                      LiveState::NotStarted);
    std::vector<bool> eventSent(events_.size(), false);
    std::vector<bool> eventRemoved(events_.size(), false);
    std::vector<std::uint64_t> handleSignals(handles_.size(), 0);
    // Currently running event on each looper thread (atomicity check).
    std::vector<EventId> looperRunning(threads_.size(), kInvalidId);

    std::uint64_t lastVtime = 0;
    for (OpId i = 0; i < ops_.size(); ++i) {
        const Operation &op = ops_[i];
        if (op.vtime < lastVtime)
            return strf("op %u: vtime decreases", i);
        lastVtime = op.vtime;

        // Task id in range and alive for non-begin ops.
        if (op.task.isEvent()) {
            if (op.task.index() >= events_.size())
                return strf("op %u: bad event id", i);
        } else {
            if (op.task.index() >= threads_.size())
                return strf("op %u: bad thread id", i);
        }

        const bool isBegin = op.kind == OpKind::ThreadBegin ||
                             op.kind == OpKind::EventBegin;
        if (!isBegin) {
            if (op.task.isEvent()) {
                if (eventState[op.task.index()] != LiveState::Running)
                    return strf("op %u: event %u not running", i,
                                op.task.index());
            } else {
                if (threadState[op.task.index()] != LiveState::Running)
                    return strf("op %u: thread %u not running", i,
                                op.task.index());
            }
        }

        switch (op.kind) {
          case OpKind::ThreadBegin:
            if (threadState[op.task.index()] != LiveState::NotStarted)
                return strf("op %u: double thread begin", i);
            threadState[op.task.index()] = LiveState::Running;
            break;
          case OpKind::ThreadEnd:
            threadState[op.task.index()] = LiveState::Finished;
            break;
          case OpKind::EventBegin:
            {
                EventId e = op.task.index();
                if (eventState[e] != LiveState::NotStarted)
                    return strf("op %u: double event begin", i);
                if (!eventSent[e])
                    return strf("op %u: event %u begins unsent", i, e);
                if (eventRemoved[e])
                    return strf("op %u: removed event %u begins", i, e);
                eventState[e] = LiveState::Running;
                ThreadId exec = op.target;
                if (exec >= threads_.size())
                    return strf("op %u: bad executor thread", i);
                if (threadState[exec] != LiveState::Running)
                    return strf("op %u: executor not running", i);
                const QueueInfo &q = queues_[events_[e].queue];
                if (q.kind == QueueKind::Looper) {
                    if (q.looper != exec)
                        return strf("op %u: event %u on wrong looper",
                                    i, e);
                    if (looperRunning[exec] != kInvalidId)
                        return strf("op %u: looper %u events overlap",
                                    i, exec);
                    looperRunning[exec] = e;
                } else if (threads_[exec].kind != ThreadKind::Binder ||
                           threads_[exec].queue != events_[e].queue) {
                    return strf("op %u: binder event on wrong thread",
                                i);
                }
            }
            break;
          case OpKind::EventEnd:
            {
                EventId e = op.task.index();
                eventState[e] = LiveState::Finished;
                ThreadId exec = events_[e].executor;
                if (exec < threads_.size() && looperRunning[exec] == e)
                    looperRunning[exec] = kInvalidId;
            }
            break;
          case OpKind::Read:
          case OpKind::Write:
            if (op.target >= vars_.size())
                return strf("op %u: bad var id", i);
            if (op.site != kInvalidId && op.site >= sites_.size())
                return strf("op %u: bad site id", i);
            break;
          case OpKind::Fork:
            if (op.target >= threads_.size())
                return strf("op %u: bad forked thread", i);
            if (threadState[op.target] != LiveState::NotStarted)
                return strf("op %u: forked thread already started", i);
            break;
          case OpKind::Join:
            if (op.target >= threads_.size())
                return strf("op %u: bad joined thread", i);
            if (threadState[op.target] != LiveState::Finished)
                return strf("op %u: join before thread end", i);
            break;
          case OpKind::Signal:
            if (op.target >= handles_.size())
                return strf("op %u: bad handle", i);
            ++handleSignals[op.target];
            break;
          case OpKind::Wait:
            if (op.target >= handles_.size())
                return strf("op %u: bad handle", i);
            if (handleSignals[op.target] == 0)
                return strf("op %u: wait before any signal", i);
            break;
          case OpKind::Send:
            {
                if (op.target >= queues_.size())
                    return strf("op %u: send to bad queue", i);
                if (op.event >= events_.size())
                    return strf("op %u: send of bad event", i);
                if (eventSent[op.event])
                    return strf("op %u: event %u sent twice", i,
                                op.event);
                eventSent[op.event] = true;
            }
            break;
          case OpKind::RemoveEvent:
            {
                if (op.event >= events_.size())
                    return strf("op %u: remove of bad event", i);
                if (!eventSent[op.event])
                    return strf("op %u: remove of unsent event", i);
                if (eventState[op.event] != LiveState::NotStarted)
                    return strf("op %u: remove of started event", i);
                eventRemoved[op.event] = true;
            }
            break;
          case OpKind::TaskSpawn:
          case OpKind::TaskAwait:
          case OpKind::ScopeEnd:
          case OpKind::TaskCancel:
            return strf("op %u: async-dialect op in looper trace", i);
        }
    }

    if (!full)
        return "";

    // --- dispatch-order guarantees the causality model relies on ----
    // Group events per queue in send order.
    std::vector<std::vector<EventId>> byQueue(queues_.size());
    std::vector<std::pair<OpId, EventId>> sends;
    for (EventId e = 0; e < events_.size(); ++e) {
        if (events_[e].sendOp != kInvalidId)
            sends.emplace_back(events_[e].sendOp, e);
    }
    std::sort(sends.begin(), sends.end());
    for (auto &[opId, e] : sends)
        byQueue[events_[e].queue].push_back(e);

    for (QueueId q = 0; q < queues_.size(); ++q) {
        const auto &evs = byQueue[q];
        const bool looper = queues_[q].kind == QueueKind::Looper;
        for (size_t a = 0; a < evs.size(); ++a) {
            const EventInfo &e1 = events_[evs[a]];
            if (e1.removeOp != kInvalidId)
                continue;
            for (size_t b = a + 1; b < evs.size(); ++b) {
                const EventInfo &e2 = events_[evs[b]];
                if (e2.removeOp != kInvalidId)
                    continue;
                if (looper) {
                    // Rule PRIORITY's operational premise: send order
                    // (here trace order, implied by any causal order)
                    // plus the priority function means dispatch order.
                    if (priorityOrders(e1.attrs, e2.attrs) &&
                        e2.beginOp != kInvalidId &&
                        !(e1.endOp != kInvalidId &&
                          e1.endOp < e2.beginOp)) {
                        return strf("queue %u: events %u,%u dispatched "
                                    "against priority order", q,
                                    evs[a], evs[b]);
                    }
                } else {
                    // Binder queues dequeue FIFO: begins follow sends.
                    if (e1.beginOp != kInvalidId &&
                        e2.beginOp != kInvalidId &&
                        e1.beginOp > e2.beginOp) {
                        return strf("binder queue %u: events %u,%u "
                                    "begin out of order", q, evs[a],
                                    evs[b]);
                    }
                }
            }
        }
    }
    return "";
}

} // namespace asyncclock::trace

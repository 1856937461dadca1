#include "runtime/runtime.hh"

#include <algorithm>
#include <limits>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::runtime {

using trace::EventId;
using trace::HandleId;
using trace::kInvalidId;
using trace::QueueId;
using trace::SendAttrs;
using trace::SendKind;
using trace::SiteId;
using trace::Task;
using trace::ThreadId;
using trace::VarId;

namespace {

/** Sort key of a queued message: (dispatch time, tiebreak). AtFront
 * messages use when=0 and a descending tiebreak, matching Android's
 * head insertion (later at-front posts land ahead of earlier ones). */
using QueueKey = std::pair<std::uint64_t, std::uint64_t>;

struct QueueEntry
{
    EventId event = kInvalidId;
    std::shared_ptr<const Script> body;
    bool async = false;
    /** AtFront messages are head-inserted ahead of any sync barrier,
     * so barriers never stall them (Android MessageQueue behavior —
     * and the operational premise of Rule ATFRONT). */
    bool front = false;
    std::uint64_t when = 0;  ///< earliest dispatch time
};

struct QueueState
{
    QueueId id = kInvalidId;
    bool binder = false;
    std::uint32_t fiber = kInvalidId;        ///< looper fiber index
    std::vector<std::uint32_t> binderFibers;
    std::map<QueueKey, QueueEntry> entries;
    std::uint32_t barriers = 0;
};

struct HandleState
{
    std::uint64_t signals = 0;
    std::vector<std::uint32_t> waiters;  ///< blocked fiber indices
};

struct Fiber
{
    ThreadId thread = kInvalidId;
    bool isLooper = false;
    bool isBinder = false;
    QueueId queue = kInvalidId;

    std::shared_ptr<const Script> script;  ///< worker body
    std::size_t pc = 0;

    EventId curEvent = kInvalidId;
    std::shared_ptr<const Script> evBody;
    std::size_t evPc = 0;
    bool evBegun = false;

    enum class St : std::uint8_t { New, Ready, Blocked, Idle, Done };
    St st = St::New;
    bool began = false;
    std::uint64_t time = 0;   ///< local virtual clock
    std::uint64_t gen = 0;    ///< invalidates stale activations

    std::vector<std::uint32_t> joinWaiters;
};

struct Activation
{
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t fiber;
    std::uint64_t gen;

    bool
    operator>(const Activation &other) const
    {
        return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
};

enum class TokenKind : std::uint8_t { Event, Worker, Barrier };

struct TokenSlot
{
    TokenKind kind = TokenKind::Event;
    std::uint32_t value = kInvalidId;  ///< event id / fiber / queue
    /** For events: the queue key, to find and erase the entry. */
    QueueKey key{};
    bool active = false;
};

} // namespace

struct Runtime::Impl
{
    RuntimeConfig cfg;
    /** Entity-id allocation and (in materializing mode) op storage.
     * In sink mode only the entity tables grow — O(entities). */
    trace::Trace trace;
    /** Where operations go: the internal trace by default, the
     * caller's sink in runToSink mode. */
    trace::TraceSink *sink = &trace;
    /** Non-null in runToSink mode: mid-run entity declarations are
     * forwarded here so the sink's tables keep pace with the ops. */
    trace::TraceSink *ext = nullptr;

    std::vector<Fiber> fibers;
    std::vector<QueueState> queues;
    std::vector<HandleState> handles;
    std::vector<TokenSlot> tokens;

    std::priority_queue<Activation, std::vector<Activation>,
                        std::greater<Activation>>
        heap;
    std::uint64_t seq = 0;
    std::uint64_t now = 0;
    bool ran = false;
    DeliveryGate *gate = nullptr;

    explicit Impl(RuntimeConfig c) : cfg(c) {}

    Task
    taskOf(const Fiber &f) const
    {
        return f.curEvent != kInvalidId ? Task::event(f.curEvent)
                                        : Task::thread(f.thread);
    }

    // ----- mid-run entity creation ----------------------------------
    // The internal trace stays the id allocator; in sink mode the
    // declaration is forwarded so the sink's tables keep pace.
    EventId
    newEvent()
    {
        EventId e = trace.declEvent();
        if (ext)
            ext->declEvent();
        return e;
    }

    ThreadId
    newWorkerThread(const std::string &name)
    {
        ThreadId t =
            trace.declThread(trace::ThreadKind::Worker, name);
        if (ext) {
            ext->declThread(trace::ThreadKind::Worker, name,
                            kInvalidId);
        }
        return t;
    }

    void
    schedule(std::uint32_t fi, std::uint64_t t)
    {
        Fiber &f = fibers[fi];
        ++f.gen;
        heap.push({std::max(t, now), ++seq, fi, f.gen});
    }

    /** Earliest dispatchable entry of a looper queue honoring sync
     * barriers; entries.end() if nothing can ever dispatch now. Also
     * reports the earliest future eligibility time (or UINT64_MAX). */
    std::map<QueueKey, QueueEntry>::iterator
    pickLooperEntry(QueueState &q, std::uint64_t time,
                    std::uint64_t &nextWake)
    {
        nextWake = std::numeric_limits<std::uint64_t>::max();
        for (auto it = q.entries.begin(); it != q.entries.end(); ++it) {
            if (q.barriers > 0 && !it->second.async &&
                !it->second.front) {
                continue;
            }
            // A gated entry is neither deliverable nor a wakeup
            // source; it is re-offered when the gate state changes
            // (after every event end).
            if (gate && !gate->mayDeliver(q.id, it->second.event))
                continue;
            if (it->second.when <= time)
                return it;
            nextWake = std::min(nextWake, it->second.when);
        }
        return q.entries.end();
    }

    /** Re-evaluate a looper after queue changes. */
    void
    armLooper(QueueState &q)
    {
        Fiber &f = fibers[q.fiber];
        if (f.st == Fiber::St::Done || f.curEvent != kInvalidId ||
            f.st == Fiber::St::Blocked) {
            return;
        }
        std::uint64_t nextWake;
        auto it = pickLooperEntry(q, std::max(now, f.time), nextWake);
        if (it != q.entries.end()) {
            f.st = Fiber::St::Ready;
            schedule(q.fiber, std::max(now, f.time));
        } else if (nextWake !=
                   std::numeric_limits<std::uint64_t>::max()) {
            f.st = Fiber::St::Ready;
            schedule(q.fiber, std::max(nextWake, now));
        } else {
            f.st = Fiber::St::Idle;
            ++f.gen;  // cancel stale wakeups
        }
    }

    /** Hand FIFO binder entries to free binder threads. */
    void
    armBinder(QueueState &q)
    {
        while (!q.entries.empty()) {
            std::uint32_t freeFiber = kInvalidId;
            for (std::uint32_t bf : q.binderFibers) {
                Fiber &f = fibers[bf];
                if (f.curEvent == kInvalidId &&
                    f.st != Fiber::St::Done &&
                    f.st != Fiber::St::Blocked) {
                    freeFiber = bf;
                    break;
                }
            }
            if (freeFiber == kInvalidId)
                return;
            auto it = q.entries.begin();
            if (gate) {
                // First ungated entry (the gate reorders FIFO — that
                // is the point of a replay flip).
                while (it != q.entries.end() &&
                       !gate->mayDeliver(q.id, it->second.event)) {
                    ++it;
                }
                if (it == q.entries.end())
                    return;
            }
            Fiber &f = fibers[freeFiber];
            f.curEvent = it->second.event;
            f.evBody = it->second.body;
            f.evPc = 0;
            f.evBegun = false;
            deactivateToken(it->second.event);
            q.entries.erase(it);
            f.st = Fiber::St::Ready;
            schedule(freeFiber, std::max(now, f.time));
        }
    }

    /** An event left its queue: its remove-token (if any) goes dead. */
    void
    deactivateToken(EventId event)
    {
        for (auto &slot : tokens) {
            if (slot.active && slot.kind == TokenKind::Event &&
                slot.value == event) {
                slot.active = false;
            }
        }
    }

    void
    wake(std::uint32_t fi, std::uint64_t t)
    {
        Fiber &f = fibers[fi];
        acAssert(f.st == Fiber::St::Blocked, "waking non-blocked fiber");
        f.st = Fiber::St::Ready;
        schedule(fi, std::max(t, f.time));
    }

    void finishWorker(std::uint32_t fi);
    void finishEvent(std::uint32_t fi);
    void executeStep(std::uint32_t fi);
    void processActivation(const Activation &act);
    void drainChecksAndShutdown();
};

Runtime::Runtime(RuntimeConfig cfg) : impl_(new Impl(cfg)) {}
Runtime::~Runtime() = default;

trace::QueueId
Runtime::addLooper(const std::string &name)
{
    acAssert(!impl_->ran, "runtime already ran");
    QueueId q = impl_->trace.declQueue(trace::QueueKind::Looper, name);
    ThreadId t = impl_->trace.declThread(trace::ThreadKind::Looper,
                                         name + ".looper", q);
    impl_->trace.bindLooper(q, t);

    Fiber f;
    f.thread = t;
    f.isLooper = true;
    f.queue = q;
    impl_->fibers.push_back(std::move(f));

    QueueState qs;
    qs.id = q;
    qs.fiber = static_cast<std::uint32_t>(impl_->fibers.size() - 1);
    impl_->queues.resize(std::max<std::size_t>(impl_->queues.size(),
                                               q + 1));
    impl_->queues[q] = std::move(qs);
    return q;
}

trace::QueueId
Runtime::addBinderPool(const std::string &name, unsigned threads)
{
    acAssert(!impl_->ran, "runtime already ran");
    acAssert(threads > 0, "binder pool needs at least one thread");
    QueueId q = impl_->trace.declQueue(trace::QueueKind::Binder, name);
    QueueState qs;
    qs.id = q;
    qs.binder = true;
    for (unsigned i = 0; i < threads; ++i) {
        ThreadId t = impl_->trace.declThread(
            trace::ThreadKind::Binder,
            strf("%s.binder%u", name.c_str(), i), q);
        Fiber f;
        f.thread = t;
        f.isBinder = true;
        f.queue = q;
        impl_->fibers.push_back(std::move(f));
        qs.binderFibers.push_back(
            static_cast<std::uint32_t>(impl_->fibers.size() - 1));
    }
    impl_->queues.resize(std::max<std::size_t>(impl_->queues.size(),
                                               q + 1));
    impl_->queues[q] = std::move(qs);
    return q;
}

trace::VarId
Runtime::var(const std::string &name, trace::SeedLabel label)
{
    return impl_->trace.declVar(name, label);
}

trace::HandleId
Runtime::handle(const std::string &name)
{
    HandleId h = impl_->trace.declHandle(name);
    impl_->handles.resize(h + 1);
    return h;
}

trace::SiteId
Runtime::site(const std::string &name, trace::Frame frame,
              std::uint32_t commGroup)
{
    return impl_->trace.declSite(name, frame, commGroup);
}

Token
Runtime::token()
{
    impl_->tokens.emplace_back();
    return static_cast<Token>(impl_->tokens.size() - 1);
}

void
Runtime::spawnWorker(const std::string &name, Script script,
                     std::uint64_t startMs)
{
    acAssert(!impl_->ran, "runtime already ran");
    ThreadId t =
        impl_->trace.declThread(trace::ThreadKind::Worker, name);
    Fiber f;
    f.thread = t;
    f.script = std::make_shared<const Script>(std::move(script));
    f.time = startMs;
    impl_->fibers.push_back(std::move(f));
    // Root workers are scheduled when run() starts.
}

trace::ThreadId
Runtime::looperThreadOf(trace::QueueId queue) const
{
    return impl_->trace.queue(queue).looper;
}

void
Runtime::setDeliveryGate(DeliveryGate *gate)
{
    acAssert(!impl_->ran, "runtime already ran");
    impl_->gate = gate;
}

void
Runtime::Impl::finishWorker(std::uint32_t fi)
{
    Fiber &f = fibers[fi];
    sink->threadEnd(f.thread, f.time);
    f.st = Fiber::St::Done;
    for (std::uint32_t w : f.joinWaiters)
        wake(w, f.time);
    f.joinWaiters.clear();
}

void
Runtime::Impl::finishEvent(std::uint32_t fi)
{
    Fiber &f = fibers[fi];
    const EventId ended = f.curEvent;
    sink->eventEnd(ended, f.time);
    f.curEvent = kInvalidId;
    f.evBody.reset();
    f.evPc = 0;
    f.evBegun = false;
    QueueState &q = queues[f.queue];
    if (f.isLooper) {
        armLooper(q);
    } else {
        f.st = Fiber::St::Idle;
        ++f.gen;
        armBinder(q);
    }
    if (gate) {
        // The gate may release deferred entries on any event end, so
        // every queue gets re-offered its work.
        gate->onEventEnd(ended);
        for (QueueState &other : queues) {
            if (other.id == kInvalidId)
                continue;
            if (other.binder)
                armBinder(other);
            else
                armLooper(other);
        }
    }
}

void
Runtime::Impl::executeStep(std::uint32_t fi)
{
    Fiber &f = fibers[fi];
    const bool inEvent = f.curEvent != kInvalidId;
    const Script &script = inEvent ? *f.evBody : *f.script;
    std::size_t &pc = inEvent ? f.evPc : f.pc;

    if (pc >= script.steps().size()) {
        if (inEvent)
            finishEvent(fi);
        else
            finishWorker(fi);
        return;
    }

    const Step &step = script.steps()[pc];
    const Task task = taskOf(f);

    switch (step.kind) {
      case Step::Kind::Read:
        sink->read(task, step.a, step.b, f.time);
        break;
      case Step::Kind::Write:
        sink->write(task, step.a, step.b, f.time);
        break;
      case Step::Kind::Sleep:
        ++pc;
        f.time += step.amount;
        schedule(fi, f.time);
        return;
      case Step::Kind::Post:
        {
            QueueId qid = step.a;
            acAssert(qid < queues.size() &&
                         queues[qid].id != kInvalidId,
                     "post to unknown queue");
            QueueState &q = queues[qid];
            SendAttrs attrs;
            attrs.kind = step.opts.kind;
            attrs.async = step.opts.async;
            std::uint64_t when = f.time;
            switch (step.opts.kind) {
              case SendKind::Delayed:
                // Table 1 compares Delayed events by *delay* ("FIFO
                // events are Delayed events with zero delay"); the
                // absolute dispatch time is separate.
                attrs.time = step.opts.delayMs;
                when = f.time + step.opts.delayMs;
                break;
              case SendKind::AtTime:
                attrs.time = step.opts.atTime;
                when = step.opts.atTime;
                break;
              case SendKind::AtFront:
                attrs.time = 0;
                when = 0;
                break;
            }
            if (q.binder) {
                acAssert(attrs.kind == SendKind::Delayed &&
                             attrs.time == 0,
                         "binder queues accept only plain FIFO posts");
            }
            EventId e = newEvent();
            sink->send(task, qid, e, attrs, f.time);

            QueueEntry entry;
            entry.event = e;
            entry.body = step.body;
            entry.async = attrs.async;
            QueueKey key;
            if (attrs.kind == SendKind::AtFront) {
                entry.front = true;
                entry.when = 0;
                key = {0, std::numeric_limits<std::uint64_t>::max() -
                              ++seq};
            } else {
                entry.when = when;
                key = {when, ++seq};
            }
            q.entries.emplace(key, std::move(entry));
            if (step.token != kInvalidId) {
                TokenSlot &slot = tokens[step.token];
                slot.kind = TokenKind::Event;
                slot.value = e;
                slot.key = key;
                slot.active = true;
            }
            if (q.binder)
                armBinder(q);
            else
                armLooper(q);
        }
        break;
      case Step::Kind::Remove:
        {
            TokenSlot &slot = tokens[step.token];
            if (slot.active && slot.kind == TokenKind::Event) {
                // Still queued: remove it (Handler.removeMessages).
                QueueState *owner = nullptr;
                for (auto &q : queues) {
                    auto it = q.entries.find(slot.key);
                    if (it != q.entries.end() &&
                        it->second.event == slot.value) {
                        owner = &q;
                        q.entries.erase(it);
                        break;
                    }
                }
                if (owner) {
                    sink->removeEvent(task, slot.value, f.time);
                    slot.active = false;
                }
            }
        }
        break;
      case Step::Kind::Fork:
        {
            ThreadId t = newWorkerThread(step.name);
            const std::uint64_t forkTime = f.time;
            sink->fork(task, t, forkTime);
            Fiber child;
            child.thread = t;
            child.script = step.body;
            child.time = forkTime;
            child.st = Fiber::St::Ready;
            // push_back may reallocate `fibers`; `f` (and the `pc`
            // reference) are re-acquired after the switch.
            fibers.push_back(std::move(child));
            std::uint32_t ci =
                static_cast<std::uint32_t>(fibers.size() - 1);
            if (step.token != kInvalidId) {
                TokenSlot &slot = tokens[step.token];
                slot.kind = TokenKind::Worker;
                slot.value = ci;
                slot.active = true;
            }
            schedule(ci, forkTime);
        }
        break;
      case Step::Kind::Join:
        {
            TokenSlot &slot = tokens[step.token];
            acAssert(slot.active && slot.kind == TokenKind::Worker,
                     "join on a token that names no worker");
            Fiber &child = fibers[slot.value];
            if (child.st != Fiber::St::Done) {
                f.st = Fiber::St::Blocked;
                child.joinWaiters.push_back(fi);
                return;  // pc unchanged; re-run when woken
            }
            sink->join(task, child.thread, f.time);
        }
        break;
      case Step::Kind::Signal:
        {
            sink->signal(task, step.a, f.time);
            HandleState &h = handles[step.a];
            ++h.signals;
            for (std::uint32_t w : h.waiters)
                wake(w, f.time);
            h.waiters.clear();
        }
        break;
      case Step::Kind::Await:
        {
            HandleState &h = handles[step.a];
            if (h.signals == 0) {
                f.st = Fiber::St::Blocked;
                h.waiters.push_back(fi);
                return;  // pc unchanged
            }
            sink->wait(task, step.a, f.time);
        }
        break;
      case Step::Kind::PostBarrier:
        {
            QueueState &q = queues[step.a];
            acAssert(!q.binder, "barriers only apply to looper queues");
            ++q.barriers;
            if (step.token != kInvalidId) {
                TokenSlot &slot = tokens[step.token];
                slot.kind = TokenKind::Barrier;
                slot.value = step.a;
                slot.active = true;
            }
        }
        break;
      case Step::Kind::RemoveBarrier:
        {
            TokenSlot &slot = tokens[step.token];
            acAssert(slot.active && slot.kind == TokenKind::Barrier,
                     "removeBarrier on a token that names no barrier");
            QueueState &q = queues[slot.value];
            acAssert(q.barriers > 0, "barrier underflow");
            --q.barriers;
            slot.active = false;
            armLooper(q);
        }
        break;
    }

    // Re-acquire: the Fork case may have reallocated `fibers`,
    // invalidating `f` and `pc`.
    Fiber &f2 = fibers[fi];
    ++(inEvent ? f2.evPc : f2.pc);
    f2.time += cfg.stepCostMs;
    schedule(fi, f2.time);
}

void
Runtime::Impl::processActivation(const Activation &act)
{
    Fiber &f = fibers[act.fiber];
    if (act.gen != f.gen || f.st == Fiber::St::Done ||
        f.st == Fiber::St::Blocked) {
        return;
    }
    now = std::max(now, act.time);
    f.time = std::max(f.time, act.time);

    if (!f.began) {
        sink->threadBegin(f.thread, f.time);
        f.began = true;
    }

    if ((f.isLooper || f.isBinder) && f.curEvent == kInvalidId) {
        if (f.isLooper) {
            QueueState &q = queues[f.queue];
            std::uint64_t nextWake;
            auto it = pickLooperEntry(q, f.time, nextWake);
            if (it == q.entries.end()) {
                armLooper(q);
                return;
            }
            f.curEvent = it->second.event;
            f.evBody = it->second.body;
            f.evPc = 0;
            f.evBegun = false;
            deactivateToken(it->second.event);
            q.entries.erase(it);
        } else {
            // Binder fiber woke with no assigned event: spurious.
            f.st = Fiber::St::Idle;
            return;
        }
    }

    if (f.curEvent != kInvalidId && !f.evBegun) {
        sink->eventBegin(f.curEvent, f.thread, f.time);
        f.evBegun = true;
        f.time += cfg.stepCostMs;
        schedule(act.fiber, f.time);
        return;
    }

    executeStep(act.fiber);
}

void
Runtime::Impl::drainChecksAndShutdown()
{
    for (std::uint32_t fi = 0; fi < fibers.size(); ++fi) {
        Fiber &f = fibers[fi];
        if (f.st == Fiber::St::Blocked || f.curEvent != kInvalidId) {
            fatal(strf("deadlock: thread %u blocked at end of "
                       "simulation",
                       f.thread));
        }
        if (!f.isLooper && !f.isBinder && f.began &&
            f.st != Fiber::St::Done) {
            fatal(strf("worker thread %u never finished", f.thread));
        }
    }
    // Quit loopers and binder threads: their ends come after every
    // event they executed (Rule LOOPEND's premise).
    for (auto &f : fibers) {
        if ((f.isLooper || f.isBinder) && f.began &&
            f.st != Fiber::St::Done) {
            sink->threadEnd(f.thread, now);
            f.st = Fiber::St::Done;
        }
    }
}

void
Runtime::runCommon()
{
    Impl &im = *impl_;
    acAssert(!im.ran, "Runtime::run is single-shot");
    im.ran = true;

    // Schedule all root fibers (creation order).
    for (std::uint32_t fi = 0; fi < im.fibers.size(); ++fi) {
        Fiber &f = im.fibers[fi];
        f.st = Fiber::St::Ready;
        im.schedule(fi, f.time);
    }

    while (!im.heap.empty()) {
        Activation act = im.heap.top();
        im.heap.pop();
        im.processActivation(act);
    }

    im.drainChecksAndShutdown();

    info_.endTimeMs = im.now;
    info_.undelivered = 0;
    for (auto &q : im.queues)
        info_.undelivered += q.entries.size();
}

trace::Trace
Runtime::run()
{
    runCommon();
    return std::move(impl_->trace);
}

RunInfo
Runtime::runToSink(trace::TraceSink &sink)
{
    Impl &im = *impl_;
    acAssert(!im.ran, "Runtime::run is single-shot");
    trace::replayEntities(im.trace, sink);
    im.sink = &sink;
    im.ext = &sink;
    runCommon();
    return info_;
}

} // namespace asyncclock::runtime

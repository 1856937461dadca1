#include "predict/shb.hh"

namespace asyncclock::predict {

using trace::EventId;
using trace::EventInfo;
using trace::kInvalidId;
using trace::Operation;
using trace::OpId;
using trace::OpKind;
using trace::Task;
using trace::ThreadId;

gold::GoldConfig
weakGoldConfig(const core::WeakOrderingSpec &spec)
{
    gold::GoldConfig cfg;
    if (spec.dropQueueOrderEdges) {
        cfg.atomicRule = false;
        cfg.priorityRule = false;
        cfg.atFrontRule = false;
        cfg.binderRule = false;
        cfg.removedRelay = false;
    }
    if (spec.dropNonReleasingSignalEdges)
        cfg.extraSignalEdges = false;
    return cfg;
}

ShbEngine::ShbEngine(const trace::Trace &tr, ShbConfig cfg)
    : tr_(tr), cfg_(cfg)
{
    threadState_.resize(tr.threads().size());
    eventState_.resize(tr.events().size());
    forkSnap_.resize(tr.threads().size());
    threadBeginSnap_.resize(tr.threads().size());
    looperEndAcc_.resize(tr.threads().size());
    signalSnap_.resize(tr.handles().size());
    scopeAcc_.resize(tr.handles().size());
    sendSnap_.resize(tr.events().size());
    settleSnap_.resize(tr.events().size());
}

ShbEngine::ShbEngine(const trace::Trace &tr)
    : ShbEngine(tr, ShbConfig{core::weakOrderingFor(
                    core::modelForDialect(tr.dialect()))})
{
}

ShbEngine::TaskState &
ShbEngine::stateFor(Task task)
{
    TaskState &st = task.isEvent() ? eventState_[task.index()]
                                   : threadState_[task.index()];
    if (!st.seen) {
        st.seen = true;
        st.chain = nextChain_++;
    }
    return st;
}

bool
ShbEngine::validOp(const Operation &op) const
{
    // An op is applicable only if every entity it names is inside the
    // trace's tables; fault-injected streams can surface ids that
    // decode cleanly but point nowhere.
    std::uint32_t idx = op.task.index();
    if (op.task.isEvent() ? idx >= eventState_.size()
                          : idx >= threadState_.size()) {
        return false;
    }
    switch (op.kind) {
      case OpKind::ThreadBegin:
      case OpKind::ThreadEnd:
        return !op.task.isEvent();
      case OpKind::EventBegin:
      case OpKind::EventEnd:
        return op.task.isEvent();
      case OpKind::Read:
      case OpKind::Write:
        return op.target < tr_.vars().size() &&
               op.site < tr_.sites().size();
      case OpKind::Fork:
      case OpKind::Join:
        return op.target < threadState_.size();
      case OpKind::Signal:
      case OpKind::Wait:
      case OpKind::ScopeEnd:
        return op.target < signalSnap_.size();
      case OpKind::Send:
        return op.target < tr_.queues().size() &&
               op.event < eventState_.size();
      case OpKind::RemoveEvent:
      case OpKind::TaskAwait:
      case OpKind::TaskCancel:
        return op.event < eventState_.size();
      case OpKind::TaskSpawn:
        return op.event < eventState_.size() &&
               op.target < scopeAcc_.size();
    }
    return false;
}

void
ShbEngine::step(const Operation &op, OpId id,
                report::AccessChecker &sink)
{
    if (!validOp(op)) {
        ++malformed_;
        return;
    }
    TaskState &st = stateFor(op.task);

    // ----- joins: edges *into* this op ------------------------------
    switch (op.kind) {
      case OpKind::ThreadBegin: {
        // FORK: forker's clock at the fork op.
        Snapshot &f = forkSnap_[op.task.index()];
        if (f.set)
            st.clock.joinWith(f.clock);
        break;
      }
      case OpKind::ThreadEnd: {
        // LOOPEND: every executed event's end clock (looper threads;
        // the accumulator is empty for workers).
        Snapshot &acc = looperEndAcc_[op.task.index()];
        if (acc.set)
            st.clock.joinWith(acc.clock);
        break;
      }
      case OpKind::EventBegin: {
        EventId e = op.task.index();
        // SEND / SPAWN: sender's clock at the send op.
        if (sendSnap_[e].set)
            st.clock.joinWith(sendSnap_[e].clock);
        // LOOPBEGIN: the draining looper began before any of its
        // events (binder events have no single looper).
        ThreadId looper = tr_.looperOf(e);
        if (looper != kInvalidId && looper < threadBeginSnap_.size() &&
            threadBeginSnap_[looper].set) {
            st.clock.joinWith(threadBeginSnap_[looper].clock);
        }
        break;
      }
      case OpKind::Wait: {
        // SIGNAL: the releasing signal (or all prior signals when the
        // extra edges are kept — see ShbConfig::spec).
        Snapshot &s = signalSnap_[op.target];
        if (s.set)
            st.clock.joinWith(s.clock);
        break;
      }
      case OpKind::Join: {
        // JOIN: the joined thread has ended; its clock is final.
        TaskState &child = threadState_[op.target];
        if (child.seen)
            st.clock.joinWith(child.clock);
        break;
      }
      case OpKind::TaskAwait: {
        // AWAIT: settle (end or cancel) of the awaited task.
        Snapshot &s = settleSnap_[op.event];
        if (s.set)
            st.clock.joinWith(s.clock);
        break;
      }
      case OpKind::ScopeEnd: {
        // SCOPE: every member task settled before the scope closes.
        Snapshot &acc = scopeAcc_[op.target];
        if (acc.set)
            st.clock.joinWith(acc.clock);
        break;
      }
      default:
        break;
    }

    // ----- PO: this op is a fresh tick of the task's own chain ------
    st.clock.raise(st.chain, ++st.tick);

    // ----- accesses reach the sink with the weak logical time -------
    if (op.kind == OpKind::Read || op.kind == OpKind::Write) {
        report::Access access;
        access.op = id;
        access.epoch = clock::Epoch{st.chain, st.tick};
        access.site = op.site;
        access.task = op.task;
        access.isWrite = op.kind == OpKind::Write;
        sink.onAccess(op.target, access, st.clock);
    }

    // ----- snapshots: edges *out of* this op ------------------------
    switch (op.kind) {
      case OpKind::ThreadBegin:
        threadBeginSnap_[op.task.index()].clock = st.clock;
        threadBeginSnap_[op.task.index()].set = true;
        break;
      case OpKind::Fork:
        forkSnap_[op.target].clock = st.clock;
        forkSnap_[op.target].set = true;
        break;
      case OpKind::Signal: {
        Snapshot &s = signalSnap_[op.target];
        if (cfg_.spec.dropNonReleasingSignalEdges) {
            // Only the first (releasing) signal orders the wait; any
            // later signal is a schedule-dependent predecessor.
            if (!s.set) {
                s.clock = st.clock;
                s.set = true;
            }
        } else {
            s.clock.joinWith(st.clock);
            s.set = true;
        }
        break;
      }
      case OpKind::Send:
      case OpKind::TaskSpawn:
        sendSnap_[op.event].clock = st.clock;
        sendSnap_[op.event].set = true;
        break;
      case OpKind::EventEnd: {
        EventId e = op.task.index();
        ThreadId looper = tr_.looperOf(e);
        if (looper != kInvalidId && looper < looperEndAcc_.size()) {
            Snapshot &acc = looperEndAcc_[looper];
            acc.clock.joinWith(st.clock);
            acc.set = true;
        }
        if (tr_.dialect() == trace::Dialect::Async) {
            // A finished task settles with its own end clock (a
            // cancel never overrides an end — mirror the gold
            // oracle's settleOp preference).
            settleSnap_[e].clock = st.clock;
            settleSnap_[e].set = true;
            trace::HandleId scope =
                e < tr_.events().size() ? tr_.event(e).scope
                                        : kInvalidId;
            if (scope != kInvalidId && scope < scopeAcc_.size()) {
                scopeAcc_[scope].clock.joinWith(st.clock);
                scopeAcc_[scope].set = true;
            }
        }
        break;
      }
      case OpKind::TaskCancel: {
        Snapshot &s = settleSnap_[op.event];
        if (!s.set) {
            s.clock = st.clock;
            s.set = true;
            trace::HandleId scope = tr_.event(op.event).scope;
            if (scope != kInvalidId && scope < scopeAcc_.size()) {
                scopeAcc_[scope].clock.joinWith(st.clock);
                scopeAcc_[scope].set = true;
            }
        }
        break;
      }
      default:
        break;
    }
}

void
ShbEngine::run(report::AccessChecker &sink)
{
    for (OpId i = 0; i < tr_.numOps(); ++i)
        step(tr_.op(i), i, sink);
}

std::uint64_t
ShbEngine::byteSize() const
{
    std::uint64_t total = 0;
    auto add = [&](const clock::VectorClock &vc) {
        total += vc.byteSize();
    };
    for (const TaskState &st : threadState_)
        add(st.clock);
    for (const TaskState &st : eventState_)
        add(st.clock);
    for (const auto *snaps :
         {&forkSnap_, &threadBeginSnap_, &signalSnap_, &sendSnap_,
          &settleSnap_, &looperEndAcc_, &scopeAcc_}) {
        for (const Snapshot &s : *snaps)
            add(s.clock);
    }
    return total;
}

} // namespace asyncclock::predict

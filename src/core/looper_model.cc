#include "core/looper_model.hh"

#include <algorithm>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::core {

using clock::Epoch;
using trace::EventId;
using trace::kInvalidId;
using trace::OpId;
using trace::OpKind;
using trace::Operation;
using trace::QueueKind;
using trace::SendKind;
using trace::Task;
using trace::ThreadId;

namespace {

/** Is this a plain FIFO post (untagged Handler.post)? */
bool
plainFifo(const trace::SendAttrs &attrs)
{
    return attrs.kind == SendKind::Delayed && attrs.time == 0 &&
           !attrs.async;
}

/** Bitmask of predecessor classes that can order before a target of
 * class @p targetCls (the non-false rows of that Table 1 column). */
unsigned
relevantClasses(unsigned targetCls)
{
    switch (targetCls) {
      case 0: return 0b010001;  // Delayed+Async: DA, FA
      case 1: return 0b110011;  // Delayed+Sync: DA, DS, FA, FS
      case 2: return 0b010100;  // AtTime+Async: TA, FA
      case 3: return 0b111100;  // AtTime+Sync: TA, TS, FA, FS
      default: return 0;        // AtFront: nothing precedes it
    }
}

/**
 * Early-stopping "case 1" (section 5.3): once the walk meets a send
 * with the target's kind, sync, and an equal time constraint, every
 * deeper matching send is causally before it, so the walk may stop.
 */
bool
stopsWalk(const trace::SendAttrs &found, const trace::SendAttrs &target)
{
    return !found.async && found.kind == target.kind &&
           found.time == target.time &&
           (found.kind == SendKind::Delayed ||
            found.kind == SendKind::AtTime);
}

} // namespace

MemCatBytes
LooperModel::ChainState::bytes() const
{
    MemCatBytes b;
    b[MemCat::VectorClock] = vc.byteSize();
    b[MemCat::AsyncClock] = acSetBytes(acs) + atomicSetBytes(atomic);
    std::uint64_t lists = sendLists.byteSize();
    sendLists.forEach([&lists](std::uint32_t, const SendList &list) {
        lists += list.byteSize();
    });
    b[MemCat::AsyncBefore] = lists;
    b[MemCat::Other] = sizeof(ChainState) + fifoChild.byteSize();
    return b;
}

LooperModel::LooperModel(DetectorEngine &engine)
    : engine_(engine), checker_(engine.checker()), cfg_(engine.cfg()),
      counters_(engine.countersMut())
{
}

void
LooperModel::syncEntities()
{
    const trace::TraceMeta &m = meta();
    std::size_t nt = m.threads().size();
    if (threadChain_.size() < nt) {
        threadChain_.resize(nt, kInvalidId);
        forkSnap_.resize(nt);
        forkSnapValid_.resize(nt, false);
        threadEndState_.resize(nt);
        threadEndEpoch_.resize(nt);
        looperBegin_.resize(nt);
        looperBeginEpoch_.resize(nt);
        looperEndAccum_.resize(nt);
    }
    if (threadPhase_.size() < nt)
        threadPhase_.resize(
            nt, static_cast<std::uint8_t>(ThreadPhase::Unstarted));
    std::size_t ne = m.events().size();
    if (eventChain_.size() < ne)
        eventChain_.resize(ne, kInvalidId);
    if (eventPhase_.size() < ne)
        eventPhase_.resize(
            ne, static_cast<std::uint8_t>(EventPhase::Unsent));
    std::size_t nq = m.queues().size();
    if (pending_.size() < nq) {
        pending_.resize(nq);
        windowClock_.resize(nq);
        freeByQueue_.resize(nq);
    }
    std::size_t nh = m.handles().size();
    if (handleState_.size() < nh)
        handleState_.resize(nh);
}

LooperModel::~LooperModel()
{
    // Event metadata may form reference cycles (mutual AsyncClock
    // entries), which plain member destruction would leak. Drain
    // every meta's outgoing references into one vector first — moving
    // them frees nothing and keeps the registry stable — then let the
    // vector's destruction cascade; with no cycles left, the
    // remaining references die with the model's members.
    std::vector<EventRef> drained;
    for (EventMeta *m = registry_.head; m; m = m->next) {
        drainACSet(m->sendACs, drained);
        drainACSet(m->endACs, drained);
        drainACSet(m->beginACs, drained);
        drainAtomicSet(m->sendAtomic, drained);
        drainAtomicSet(m->endAtomic, drained);
        drainAtomicSet(m->beginAtomic, drained);
        for (EventRef &ref : m->sentAtFront)
            drained.push_back(std::move(ref));
        m->sentAtFront.clear();
    }
}

clock::ChainId
LooperModel::newChain()
{
    chains_.emplace_back();
    chainBooked_.emplace_back();
    ++counters_.chainsCreated;
    ChainId c = static_cast<ChainId>(chains_.size() - 1);
    touchChain(c);
    return c;
}

void
LooperModel::touchChain(ChainId c)
{
    ChainBooking &cb = chainBooked_[c];
    if (!cb.dirty) {
        cb.dirty = true;
        dirtyChains_.push_back(c);
    }
}

void
LooperModel::settleChains() const
{
    for (ChainId c : dirtyChains_) {
        ChainBooking &cb = chainBooked_[c];
        MemCatBytes now = chains_[c].bytes();
        booked_.rebook(cb.bytes, now);
        cb.bytes = now;
        cb.dirty = false;
    }
    dirtyChains_.clear();
}

clock::ChainId
LooperModel::chainOf(Task task) const
{
    return task.isEvent() ? eventChain_[task.index()]
                          : threadChain_[task.index()];
}

Epoch
LooperModel::tickChain(ChainId c)
{
    ChainState &ch = chains_[c];
    clock::Tick t = ++ch.tick;
    ch.vc.raise(c, t);
    ++counters_.clockTicks;
    touchChain(c);
    return {c, t};
}

void
LooperModel::joinIntoChain(ChainId c, const Snapshot &snap)
{
    touchChain(c);
    ChainState &ch = chains_[c];
    ch.vc.joinWith(snap.vc);
    ++counters_.clockJoins;
    joinACSet(ch.acs, snap.acs);
    joinAtomicSet(ch.atomic, snap.atomic);
}

bool
LooperModel::admitOp(const Operation &op)
{
    const char *why = nullptr;
    if (op.task.isEvent()) {
        auto ph = static_cast<EventPhase>(eventPhase_[op.task.index()]);
        if (op.kind == OpKind::EventBegin) {
            if (ph != EventPhase::Pending)
                why = "event begin without a pending send";
        } else if (ph != EventPhase::Running) {
            why = op.kind == OpKind::EventEnd
                      ? "event end without a begin"
                      : "op from an event that is not running";
        }
    } else {
        auto ph = static_cast<ThreadPhase>(threadPhase_[op.task.index()]);
        if (op.kind == OpKind::ThreadBegin) {
            if (ph != ThreadPhase::Unstarted)
                why = "duplicate thread begin";
        } else if (ph != ThreadPhase::Running) {
            why = ph == ThreadPhase::Unstarted
                      ? "op from a thread before its begin"
                      : "op from a thread after its end";
        }
    }
    if (!why && op.kind == OpKind::Send &&
        static_cast<EventPhase>(eventPhase_[op.event]) !=
            EventPhase::Unsent) {
        why = "duplicate send of an event";
    }
    if (!why && op.kind == OpKind::RemoveEvent &&
        static_cast<EventPhase>(eventPhase_[op.event]) !=
            EventPhase::Pending) {
        why = "remove of an event that is not pending";
    }
    if (!why && (op.kind == OpKind::TaskSpawn ||
                 op.kind == OpKind::TaskAwait ||
                 op.kind == OpKind::ScopeEnd ||
                 op.kind == OpKind::TaskCancel)) {
        why = "async-dialect op under the looper model";
    }
    if (why) {
        ++counters_.invalidOpsDropped;
        warnRateLimited(
            "detector.invalid_op",
            strf("dropping protocol-invalid op at index %llu: %s",
                 static_cast<unsigned long long>(
                     engine_.opsProcessed()),
                 why));
        if (counters_.invalidOpsDropped > cfg_.maxInvalidOps) {
            engine_.failRun(Status::error(
                ErrCode::BudgetExceeded,
                strf("invalid-op budget exhausted after %llu dropped "
                     "operations; last: %s",
                     static_cast<unsigned long long>(
                         counters_.invalidOpsDropped),
                     why),
                engine_.opsProcessed()));
        }
        return false;
    }
    switch (op.kind) {
      case OpKind::ThreadBegin:
        threadPhase_[op.task.index()] =
            static_cast<std::uint8_t>(ThreadPhase::Running);
        break;
      case OpKind::ThreadEnd:
        threadPhase_[op.task.index()] =
            static_cast<std::uint8_t>(ThreadPhase::Ended);
        break;
      case OpKind::Send:
        eventPhase_[op.event] =
            static_cast<std::uint8_t>(EventPhase::Pending);
        break;
      case OpKind::RemoveEvent:
        eventPhase_[op.event] =
            static_cast<std::uint8_t>(EventPhase::Done);
        break;
      case OpKind::EventBegin:
        eventPhase_[op.task.index()] =
            static_cast<std::uint8_t>(EventPhase::Running);
        break;
      case OpKind::EventEnd:
        eventPhase_[op.task.index()] =
            static_cast<std::uint8_t>(EventPhase::Done);
        break;
      default:
        break;
    }
    return true;
}

void
LooperModel::noteAnomaly(const char *what)
{
    ++counters_.causalAnomalies;
    warnRateLimited("detector.causal_anomaly",
                    strf("tolerating causality anomaly: %s", what));
    // Anomalies are downstream echoes of dropped/reordered ops;
    // charge them to the same budget so a thoroughly scrambled trace
    // fails fast instead of producing a confident garbage report.
    if (counters_.causalAnomalies + counters_.invalidOpsDropped >
            cfg_.maxInvalidOps &&
        engine_.runStatus().isOk()) {
        engine_.failRun(Status::error(
            ErrCode::BudgetExceeded,
            strf("anomaly budget exhausted (%llu anomalies, %llu "
                 "dropped ops); last: %s",
                 static_cast<unsigned long long>(
                     counters_.causalAnomalies),
                 static_cast<unsigned long long>(
                     counters_.invalidOpsDropped),
                 what),
            engine_.opsProcessed()));
    }
}

void
LooperModel::applyOp(const Operation &op, OpId id)
{
    switch (op.kind) {
      case OpKind::ThreadBegin:
        onThreadBegin(op);
        break;
      case OpKind::ThreadEnd:
        onThreadEnd(op);
        break;
      case OpKind::Fork:
        {
            ChainId c = chainOf(op.task);
            tickChain(c);
            ChainState &ch = chains_[c];
            Snapshot &snap = forkSnap_[op.target];
            MemCatBytes before = snap.bytes();
            snap.vc = ch.vc;
            snap.acs = ch.acs;
            snap.atomic = ch.atomic;
            booked_.rebook(before, snap.bytes());
            forkSnapValid_[op.target] = true;
        }
        break;
      case OpKind::Join:
        {
            ChainId c = chainOf(op.task);
            joinIntoChain(c, threadEndState_[op.target]);
            tickChain(c);
            maybeAtomicFold(op.task);
        }
        break;
      case OpKind::Signal:
        {
            ChainId c = chainOf(op.task);
            tickChain(c);
            ChainState &ch = chains_[c];
            Snapshot &h = handleState_[op.target];
            MemCatBytes before = h.bytes();
            h.vc.joinWith(ch.vc);
            ++counters_.clockJoins;
            joinACSet(h.acs, ch.acs);
            joinAtomicSet(h.atomic, ch.atomic);
            booked_.rebook(before, h.bytes());
        }
        break;
      case OpKind::Wait:
        {
            ChainId c = chainOf(op.task);
            joinIntoChain(c, handleState_[op.target]);
            tickChain(c);
            maybeAtomicFold(op.task);
        }
        break;
      case OpKind::Read:
      case OpKind::Write:
        {
            ChainId c = chainOf(op.task);
            report::Access acc;
            acc.op = id;
            acc.epoch = tickChain(c);
            acc.site = op.site;
            acc.task = op.task;
            acc.isWrite = op.kind == OpKind::Write;
            PhaseScope timed(engine_, Phase::RaceCheck);
            checker_.onAccess(op.target, acc, chains_[c].vc);
        }
        break;
      case OpKind::Send:
        onSend(op);
        break;
      case OpKind::RemoveEvent:
        onRemove(op);
        break;
      case OpKind::EventBegin:
        {
            // Event-begin clock resolution is the join-dominated
            // phase of the looper model (window/LOOPBEGIN/multi-path
            // joins all happen here).
            PhaseScope timed(engine_, Phase::ClockJoin);
            onEventBegin(op, id);
        }
        break;
      case OpKind::EventEnd:
        onEventEnd(op);
        break;
      default:
        break;  // async-dialect ops are rejected by admitOp
    }
}

void
LooperModel::syncDerivedCounters()
{
    counters_.eventsLive = registry_.live;
    counters_.eventsLivePeak = registry_.livePeak;
    counters_.reclaimedRefcount =
        registry_.destroyed - counters_.invalidatedByWindow;
}

void
LooperModel::registerModelMetrics(obs::MetricsRegistry &reg)
{
    // The looper model predates the model seam; its state is fully
    // described by the engine's detector.* metrics, and adding
    // model.* aliases would churn every existing metrics consumer.
    (void)reg;
}

void
LooperModel::onThreadBegin(const Operation &op)
{
    ThreadId t = op.task.index();
    ChainId c = newChain();
    chains_[c].level = 0;  // thread chains are FIFO level 0
    threadChain_[t] = c;
    if (forkSnapValid_[t]) {
        joinIntoChain(c, forkSnap_[t]);
        booked_.rebook(forkSnap_[t].bytes(), MemCatBytes{});
        forkSnap_[t] = Snapshot();
        forkSnapValid_[t] = false;
    }
    Epoch beginEpoch = tickChain(c);
    if (meta().thread(t).kind == trace::ThreadKind::Looper) {
        ChainState &ch = chains_[c];
        Snapshot &lb = looperBegin_[t];
        MemCatBytes before = lb.bytes();
        lb.vc = ch.vc;
        lb.acs = ch.acs;
        lb.atomic = ch.atomic;
        booked_.rebook(before, lb.bytes());
        looperBeginEpoch_[t] = beginEpoch;
    }
}

void
LooperModel::onThreadEnd(const Operation &op)
{
    ThreadId t = op.task.index();
    ChainId c = threadChain_[t];
    ChainState &ch = chains_[c];
    // Rule LOOPEND: the looper's end inherits its events' ends.
    ch.vc.joinWith(looperEndAccum_[t]);
    ++counters_.clockJoins;
    threadEndEpoch_[t] = tickChain(c);
    Snapshot &end = threadEndState_[t];
    MemCatBytes before = end.bytes();
    end.vc = ch.vc;
    end.acs = std::move(ch.acs);
    end.atomic = std::move(ch.atomic);
    ch.acs.clear();
    ch.atomic.clear();
    booked_.rebook(before, end.bytes());
}

void
LooperModel::dominanceDrop(EventMeta *m)
{
    // Drop the async-before record *immediately below* event m's own
    // record when it has m's class and time constraint: every future
    // target it can order before, m also can, and it is causally
    // before m (same class, equal time, sends ordered). Runs at m's
    // *begin* — at send time m could still be removed, and a removed
    // event's relay does not cover the dropped record's end. Never
    // applies to AtFront classes (two AtFront events are mutually
    // unordered per Table 1). Adjacency is required so no AsyncClock
    // entry can point between the two records.
    unsigned cls = trace::priorityClass(m->attrs);
    if (cls >= 4)
        return;
    ChainState &sender = chains_[m->sendEpoch.chain];
    SendList *list = sender.sendLists.find(m->queue);
    if (!list)
        return;
    auto it = std::lower_bound(
        list->recs.begin(), list->recs.end(), m->sendEpoch.tick,
        [](const SendRec &rec, clock::Tick t) {
            return rec.sendTick < t;
        });
    if (it == list->recs.end() || it == list->recs.begin() ||
        it->sendTick != m->sendEpoch.tick) {
        return;  // own record trimmed (aged) or not found
    }
    SendRec &below = *(it - 1);
    EventMeta *x = below.ev.get();
    if (!below.dead && x && !x->removed &&
        below.attrs.time == m->attrs.time &&
        trace::priorityClass(below.attrs) == cls) {
        below.dead = true;
        below.ev.reset();
        ++list->deadCount;
        --list->liveCount[cls];
    }
}

void
LooperModel::onSend(const Operation &op)
{
    ChainId c = chainOf(op.task);
    Epoch sendEpoch = tickChain(c);
    ChainState &ch = chains_[c];

    EventRef meta = EventRef::make(registry_);
    EventMeta *m = meta.get();
    m->id = op.event;
    m->queue = op.target;
    m->attrs = op.attrs;
    m->sendEpoch = sendEpoch;
    m->sendVC = ch.vc;
    m->sendACs = ch.acs;      // deep copy (entries share refs)
    m->sendAtomic = ch.atomic;
    m->rebook();
    ++counters_.eventsSeen;

    // Async-before list record (section 5.3).
    SendList &list = ch.sendLists[op.target];
    unsigned cls = trace::priorityClass(op.attrs);
    bool prefixMax = op.attrs.time >= list.maxTime[cls];
    list.maxTime[cls] = std::max(list.maxTime[cls], op.attrs.time);
    list.recs.push_back(
        {meta, sendEpoch.tick, op.attrs, false, prefixMax});
    list.lastIdx[cls] = static_cast<std::uint32_t>(list.recs.size());
    ++list.liveCount[cls];

    // Update the sender's own slot (displacing the previous send and
    // dropping its reference). The paper's full identity reduction
    // (clear everything else too, section 3.3) is sound only for the
    // base FIFO model: under Table 1 a cleared foreign-chain entry
    // can hide a predecessor behind a non-matching send (e.g. an
    // AtTime event between two FIFO ones). Other entries are slimmed
    // by the guarded begin-time reduction and GC instead.
    ch.acs[op.target].update(c, meta, sendEpoch.tick);

    if (!cfg_.reclaimHeirless)
        pinned_.push_back(meta);
    FlatMap<EventRef> &pending = pending_[op.target];
    std::uint64_t before = pending.byteSize();
    pending[op.event] = std::move(meta);
    booked_.rebook(MemCat::Other, before, pending.byteSize());
}

void
LooperModel::onRemove(const Operation &op)
{
    ChainId c = chainOf(op.task);
    tickChain(c);
    const trace::MetaEvent &info = meta().event(op.event);
    EventRef *ref = pending_[info.queue].find(op.event);
    acAssert(ref != nullptr && ref->get() != nullptr,
             "remove of unknown event");
    ref->get()->removed = true;
    // Resolution is lazy (resolveRemoved); drop the pending handle so
    // the event is reclaimable once it leaves every AsyncClock.
    pending_[info.queue].erase(op.event);
}

void
LooperModel::resolveRemoved(EventMeta *m)
{
    if (m->resolvedRemoved)
        return;
    m->resolvedRemoved = true;
    // A removed event relays exactly its send-time state: successors
    // inherit send(E) (Table 1's priority function is transitive, so
    // the removed event's own predecessors reach successors through
    // the direct PRIORITY rule).
    m->endVC = std::move(m->sendVC);
    m->endACs = std::move(m->sendACs);
    m->endAtomic = std::move(m->sendAtomic);
    m->sendVC.clear();
    m->rebook();
}

void
LooperModel::inheritEnd(Resolution &r, const EventRef &predRef)
{
    EventMeta *pred = predRef.get();
    r.vc.joinWith(pred->endVC);
    ++counters_.clockJoins;
    joinACSet(r.acs, pred->endACs);
    joinAtomicSet(r.atomic, pred->endAtomic);
    // The predecessor is itself the latest send from its sender chain
    // as far as its inheritors know; its end snapshot cannot carry
    // that slot (self-reference), so restore it here with our own
    // counted reference.
    r.acs[pred->queue].update(pred->sendEpoch.chain, predRef,
                              pred->sendEpoch.tick);
}

void
LooperModel::priorityResolve(EventMeta *m, Resolution &r)
{
    const trace::SendAttrs &target = m->attrs;
    // Walk starts come from the AsyncClock at send(E) only — entries
    // merged later (looper begin, window clock, predecessors' ends)
    // are not causally before send(E).
    for (auto &[chain, start] : r.starts) {
        ChainState &src = chains_[chain];
        SendList *list = src.sendLists.find(m->queue);
        r.walkedTick[chain] = start.sendTick;
        bool covered = true;
        bool stopped = false;

        // The AC entry's own event first: its async-before record may
        // have been dominance-dropped by a later same-class send, but
        // it is still this event's immediate predecessor candidate.
        EventMeta *entryEv = start.ev.get();
        if (!entryEv) {
            // The entry's own event aged out: its end is folded into
            // the window clock we joined. Records below it can still
            // be live (pending delayed events end later than aged
            // neighbours) and must be walked like any others.
            r.fullyCovered[chain] = 1;
        }
        auto inheritRec = [&](EventMeta *x, const EventRef &ref) {
            if (x->removed) {
                resolveRemoved(x);
                r.vc.joinWith(x->endVC);
                ++counters_.clockJoins;
                joinACSet(r.acs, x->endACs);
                joinAtomicSet(r.atomic, x->endAtomic);
            } else {
                if (!x->ended) {
                    // Only reachable on protocol-damaged traces (a
                    // dropped EventEnd upstream); inherit nothing.
                    noteAnomaly("priority predecessor has not ended");
                    covered = false;
                    return;
                }
                // Skip the join when this end is already known
                // transitively (dominating record joined first, or
                // the window-clock floor): saves most of the walk's
                // join traffic.
                if (!r.vc.knows(x->endEpoch))
                    inheritEnd(r, ref);
                r.preds.push_back(ref);
            }
        };
        unsigned entryCls =
            entryEv ? trace::priorityClass(entryEv->attrs) : 0;
        if (entryEv &&
            trace::priorityOrders(entryEv->attrs, target)) {
            inheritRec(entryEv, start.ev);
            // A removed event's resolved time is only its send clock;
            // it covers nothing deeper, so it can never stop a walk.
            if (cfg_.earlyStopping && !entryEv->removed &&
                stopsWalk(entryEv->attrs, target)) {
                ++counters_.walkEarlyStops;
                stopped = true;
                // Covered despite stopping if the whole list only
                // ever held this class (pure-FIFO streams).
                covered = true;
                if (list) {
                    for (unsigned cl = 0;
                         cl < trace::kNumPriorityClasses; ++cl) {
                        if (cl != entryCls && list->liveCount[cl])
                            covered = false;
                    }
                }
                r.fullyCovered[chain] = covered ? 1 : 0;
                continue;
            }
        } else if (entryEv && !(entryEv->ended &&
                                r.vc.knows(entryEv->endEpoch))) {
            covered = false;
        }

        if (!list) {
            r.fullyCovered[chain] = covered ? 1 : 0;
            continue;
        }
        // Per-class walk state. A class is "done" when it cannot
        // contribute further predecessors: it never could (not in the
        // Table 1 column for our class), it has no live records, or a
        // prefix-max record of it was already inherited (early
        // stopping case 2 — everything deeper in the class is
        // causally before that record).
        const unsigned relevant =
            relevantClasses(trace::priorityClass(target));
        bool done[trace::kNumPriorityClasses];
        unsigned active = 0;
        for (unsigned cl = 0; cl < trace::kNumPriorityClasses; ++cl) {
            done[cl] = ((relevant >> cl) & 1u) == 0 ||
                       list->liveCount[cl] == 0;
            if (!done[cl])
                ++active;
            // Irrelevant classes with live records block the
            // begin-time AC reduction (a future event of another
            // class may still need them through this entry).
            if (((relevant >> cl) & 1u) == 0 &&
                list->liveCount[cl] != 0) {
                covered = false;
            }
        }
        // Records strictly below the entry's send.
        auto it = std::lower_bound(
            list->recs.begin(), list->recs.end(), start.sendTick,
            [](const SendRec &rec, clock::Tick t) {
                return rec.sendTick < t;
            });
        std::size_t idx =
            static_cast<std::size_t>(it - list->recs.begin());
        bool reachedBottom = true;
        while (idx-- > 0) {
            if (active == 0) {
                ++counters_.walkEarlyStops;
                reachedBottom = false;
                break;
            }
            SendRec &rec = list->recs[idx];
            if (rec.dead)
                continue;
            EventMeta *x = rec.ev.get();
            if (!x) {
                // Aged out: ordered before us via the window clock.
                continue;
            }
            if (x == entryEv)
                continue;  // already handled above
            unsigned cls = trace::priorityClass(rec.attrs);
            if (done[cls])
                continue;
            ++counters_.walkSteps;
            if (trace::priorityOrders(rec.attrs, target)) {
                inheritRec(x, rec.ev);
                if (cfg_.earlyStopping && !x->removed &&
                    stopsWalk(rec.attrs, target)) {
                    ++counters_.walkEarlyStops;
                    stopped = true;
                    break;
                }
                // Case 2 never applies to AtFront classes: deeper
                // AtFront sends are independent predecessors, not
                // causally before this one.
                if (cfg_.earlyStopping && rec.prefixMax &&
                    !x->removed && cls < 4) {
                    done[cls] = true;
                    --active;
                }
            } else if (!x->removed &&
                       !(x->ended && r.vc.knows(x->endEpoch))) {
                // A non-inherited record below the start: the
                // begin-time AC reduction must keep this chain.
                covered = false;
            } else if (x->removed) {
                covered = false;
            }
        }
        r.fullyCovered[chain] =
            (covered && !stopped && reachedBottom) ? 1 : 0;
    }
}

void
LooperModel::binderResolve(EventMeta *m, Resolution &r)
{
    // Binder rule: begins follow sends; inherit the *begin* state of
    // the latest non-removed send per chain.
    for (auto &[chain, start] : r.starts) {
        auto inheritBegin = [&](EventMeta *x, const EventRef &ref) {
            if (!x->begun) {
                noteAnomaly("binder FIFO dispatch violated");
                return;
            }
            if (r.vc.knows(x->beginEpoch))
                return;  // already inherited transitively
            r.vc.joinWith(x->beginVC);
            ++counters_.clockJoins;
            joinACSet(r.acs, x->beginACs);
            joinAtomicSet(r.atomic, x->beginAtomic);
            r.acs[x->queue].update(x->sendEpoch.chain, ref,
                                   x->sendEpoch.tick);
        };
        EventMeta *entryEv = start.ev.get();
        if (entryEv && !entryEv->removed) {
            inheritBegin(entryEv, start.ev);
            continue;  // latest begin dominates all deeper ones
        }
        if (!entryEv)
            continue;  // aged: window clock covers it
        ChainState &src = chains_[chain];
        SendList *list = src.sendLists.find(m->queue);
        if (!list)
            continue;
        auto it = std::lower_bound(
            list->recs.begin(), list->recs.end(), start.sendTick,
            [](const SendRec &rec, clock::Tick t) {
                return rec.sendTick < t;
            });
        std::size_t idx =
            static_cast<std::size_t>(it - list->recs.begin());
        while (idx-- > 0) {
            SendRec &rec = list->recs[idx];
            if (rec.dead)
                continue;
            EventMeta *x = rec.ev.get();
            if (!x)
                break;  // aged: window clock covers everything older
            ++counters_.walkSteps;
            if (x->removed)
                continue;  // keep searching deeper
            inheritBegin(x, rec.ev);
            break;
        }
    }
}

bool
LooperModel::atFrontFold(EventMeta *m, Resolution &r)
{
    bool changed = false;
    for (EventRef &ref : m->sentAtFront) {
        EventMeta *f = ref.get();
        if (!f)
            continue;
        if (f->ended && r.vc.knows(f->endEpoch))
            continue;  // already inherited
        // Premise (checked at registration: send(E) hb send(F)):
        // send(F) hb begin(E).
        if (r.vc.knows(f->sendEpoch)) {
            if (!f->ended) {
                noteAnomaly("at-front predecessor has not ended");
                continue;
            }
            inheritEnd(r, ref);
            r.preds.push_back(ref);
            changed = true;
        }
    }
    return changed;
}

bool
LooperModel::atomicFold(ThreadId looper, const EventMeta *self,
                        VectorClock &vc, ACSet &acs, AtomicSet &atomic)
{
    AtomicClock *ac = atomic.find(looper);
    if (!ac || ac->empty())
        return false;
    // Snapshot first: the joins below may insert into `atomic`
    // (including the clock being folded), which would invalidate an
    // in-place iteration.
    std::vector<EventRef> entries;
    ac->forEach([&entries](ChainId, AtomicEntry &entry) {
        entries.push_back(entry.ev);
    });
    bool changed = false;
    for (EventRef &er : entries) {
        EventMeta *x = er.get();
        if (!x || x == self || !x->ended)
            continue;
        if (!vc.knows(x->endEpoch)) {
            // Rule ATOMIC: begin(X) hb here (AsyncClock invariant), X
            // runs on our looper, so end(X) hb here too.
            vc.joinWith(x->endVC);
            ++counters_.clockJoins;
            joinACSet(acs, x->endACs);
            joinAtomicSet(atomic, x->endAtomic);
            acs[x->queue].update(x->sendEpoch.chain, er,
                                 x->sendEpoch.tick);
            changed = true;
        }
    }
    // Folded (or dead) entries are no longer needed on this path.
    ac = atomic.find(looper);
    if (ac) {
        ac->eraseIf([&](ChainId, AtomicEntry &entry) {
            EventMeta *x = entry.ev.get();
            if (!x)
                return true;
            if (x == self || !x->ended)
                return false;
            return vc.knows(x->endEpoch);
        });
    }
    return changed;
}

void
LooperModel::maybeAtomicFold(Task task)
{
    if (!task.isEvent())
        return;
    EventId e = task.index();
    ThreadId looper = meta().looperOf(e);
    if (looper == kInvalidId)
        return;
    EventRef *ref = running_.find(e);
    acAssert(ref != nullptr, "op from event that is not running");
    ChainState &ch = chains_[eventChain_[e]];
    while (atomicFold(looper, ref->get(), ch.vc, ch.acs, ch.atomic)) {
    }
}

clock::ChainId
LooperModel::chooseChain(EventMeta *m, const Resolution &r)
{
    const bool binder =
        meta().queue(m->queue).kind == QueueKind::Binder;
    if (binder) {
        for (ChainId c : binderChains_) {
            ChainState &ch = chains_[c];
            if (ch.retired) {
                // Retired by the window: end(last) hb TC hb us.
                ch.retired = false;
                ++counters_.chainsReused;
                return c;
            }
            EventMeta *last = ch.lastEvent.get();
            if (ch.lastEnded && last && last->ended &&
                r.vc.knows(last->endEpoch)) {
                ++counters_.chainsReused;
                return c;
            }
        }
        ChainId c = newChain();
        chains_[c].isBinder = true;
        binderChains_.push_back(c);
        return c;
    }

    // FIFO chain decomposition (section 4.2).
    if (cfg_.chainMode == ChainMode::Fifo && plainFifo(m->attrs)) {
        ChainId sender = m->sendEpoch.chain;
        std::uint8_t lvl = chains_[sender].level;
        if (lvl <= 2) {
            if (ChainId *child =
                    chains_[sender].fifoChild.find(m->queue)) {
                ++counters_.fifoLevel[lvl + 1];
                return *child;
            }
            ChainId c;
            if (!freeByQueue_[m->queue].empty()) {
                c = freeByQueue_[m->queue].back();
                freeByQueue_[m->queue].pop_back();
                chains_[c].retired = false;
                ++counters_.chainsReused;
            } else {
                c = newChain();
            }
            ChainState &ch = chains_[c];
            ch.level = static_cast<std::uint8_t>(lvl + 1);
            ch.fifoParent = sender;
            ch.fifoQueue = m->queue;
            chains_[sender].fifoChild[m->queue] = c;
            touchChain(sender);
            ++counters_.fifoLevel[lvl + 1];
            return c;
        }
    }

    // Greedy [17]: a chain whose last event is an immediate
    // predecessor.
    for (const EventRef &pref : r.preds) {
        EventMeta *x = pref.get();
        if (!x || !x->begun)
            continue;
        ChainId c = x->beginEpoch.chain;
        ChainState &ch = chains_[c];
        if (!ch.retired && ch.lastEnded && ch.lastEvent.get() == x &&
            ch.level == 255) {
            ++counters_.fifoLevel[0];
            return c;
        }
    }
    ChainId c;
    if (!freeByQueue_[m->queue].empty()) {
        c = freeByQueue_[m->queue].back();
        freeByQueue_[m->queue].pop_back();
        chains_[c].retired = false;
        chains_[c].level = 255;
        chains_[c].fifoParent = kInvalidId;
        chains_[c].fifoQueue = kInvalidId;
        ++counters_.chainsReused;
    } else {
        c = newChain();
    }
    ++counters_.fifoLevel[0];
    return c;
}

void
LooperModel::onEventBegin(const Operation &op, OpId id)
{
    (void)id;
    EventId e = op.task.index();
    const trace::MetaEvent &info = meta().event(e);
    EventRef *pref = pending_[info.queue].find(e);
    acAssert(pref != nullptr && pref->get() != nullptr,
             "begin of unknown event");
    EventRef ref = *pref;
    pending_[info.queue].erase(e);
    EventMeta *m = ref.get();
    const bool binder =
        meta().queue(info.queue).kind == QueueKind::Binder;

    Resolution r;
    r.vc = m->sendVC;
    r.acs = std::move(m->sendACs);
    r.atomic = std::move(m->sendAtomic);
    m->sendACs.clear();
    m->sendAtomic.clear();

    // Snapshot the walk starts (the AsyncClock at send(E)) before
    // merging anything that is not causally before the send.
    if (const AsyncClock *ac = r.acs.find(m->queue)) {
        ac->forEach([&r](ChainId c, const ACEntry &entry) {
            r.starts.emplace_back(c, entry);
        });
    }

    // Time-window clock (section 4.1) and Rule LOOPBEGIN. Both joins
    // are skipped when the send clock already transitively covers
    // them (the common case: any FIFO predecessor carried them).
    if (cfg_.windowMs > 0) {
        const WindowClock &tc = windowClock_[m->queue];
        if (tc.version > 0 &&
            r.vc.get(tc.marker) < tc.version) {
            r.vc.joinWith(tc.vc);
            ++counters_.clockJoins;
            joinACSet(r.acs, tc.acs);
            joinAtomicSet(r.atomic, tc.atomic);
        }
    }
    ThreadId looper = meta().looperOf(e);
    if (looper != kInvalidId &&
        !r.vc.knows(looperBeginEpoch_[looper])) {
        const Snapshot &lb = looperBegin_[looper];
        r.vc.joinWith(lb.vc);
        ++counters_.clockJoins;
        joinACSet(r.acs, lb.acs);
        joinAtomicSet(r.atomic, lb.atomic);
    }

    if (binder) {
        binderResolve(m, r);
    } else if (m->attrs.kind != SendKind::AtFront) {
        priorityResolve(m, r);
    }

    // ATFRONT and ATOMIC can enable each other: iterate to fixpoint.
    bool changed = true;
    while (changed) {
        changed = atFrontFold(m, r);
        if (looper != kInvalidId) {
            changed |= atomicFold(looper, m, r.vc, r.acs, r.atomic);
        }
    }
    m->sentAtFront.clear();
    m->sentAtFront.shrink_to_fit();

    // The AsyncClock invariant at begin(E): the latest send to E's
    // queue from E's sender chain that happens-before begin(E) is
    // send(E) itself. Without this slot, entries inherited from the
    // send-time snapshot go stale and future walks miss predecessors
    // (and greedy chaining falls apart).
    r.acs[m->queue].update(m->sendEpoch.chain, ref,
                           m->sendEpoch.tick);

    ChainId c = chooseChain(m, r);
    eventChain_[e] = c;
    touchChain(c);
    ChainState &ch = chains_[c];
    clock::Tick beginTick = ++ch.tick;
    m->beginEpoch = {c, beginTick};
    r.vc.raise(c, beginTick);
    m->begun = true;

    ch.vc = std::move(r.vc);
    ch.acs = std::move(r.acs);
    ch.atomic = std::move(r.atomic);

    // Begin-time AC reduction (section 3.3), restricted to chains the
    // walk verified as fully inherited (see looper_model.hh header
    // note).
    if (AsyncClock *ownAc = ch.acs.find(m->queue)) {
        const VectorClock &vc = ch.vc;
        ownAc->eraseIf([&](ChainId i, ACEntry &entry) {
            const std::uint8_t *cov = r.fullyCovered.find(i);
            const clock::Tick *walked = r.walkedTick.find(i);
            if (!cov || !*cov || !walked ||
                entry.sendTick > *walked) {
                return false;
            }
            EventMeta *x = entry.ev.get();
            return x && x->ended && vc.knows(x->endEpoch);
        });
    }

    if (looper != kInvalidId) {
        AtomicEntry &slot = ch.atomic[looper][c];
        slot.ev = ref;
        slot.beginTick = beginTick;
    }
    ch.lastEvent = ref;
    ch.lastEnded = false;

    if (binder) {
        m->beginVC = ch.vc;
        m->beginACs = ch.acs;
        m->beginAtomic = ch.atomic;
        // Strip the self slot (refcount cycle); inheritors restore it
        // with their own reference (binderResolve::inheritBegin).
        if (AsyncClock *own = m->beginACs.find(m->queue)) {
            own->eraseIf([m](ChainId, ACEntry &entry) {
                return entry.ev.get() == m;
            });
        }
    }

    // Now that this event provably began (it was not removed), its
    // async-before record dominates the equal-class/equal-time record
    // adjacent below it.
    dominanceDrop(m);

    // Feed sent-at-front lists: premise send(E2) hb send(this).
    if (!binder && m->attrs.kind == SendKind::AtFront) {
        pending_[info.queue].forEach(
            [&](EventId, EventRef &other) {
                EventMeta *o = other.get();
                if (o && m->sendVC.knows(o->sendEpoch)) {
                    o->sentAtFront.push_back(ref);
                    o->rebook();
                }
            });
    }
    m->rebook();

    std::uint64_t before = running_.byteSize();
    running_[e] = std::move(ref);
    booked_.rebook(MemCat::Other, before, running_.byteSize());
}

void
LooperModel::onEventEnd(const Operation &op)
{
    EventId e = op.task.index();
    EventRef *rref = running_.find(e);
    acAssert(rref != nullptr && rref->get() != nullptr,
             "end of event that is not running");
    EventRef ref = *rref;
    running_.erase(e);
    EventMeta *m = ref.get();

    ChainId c = eventChain_[e];
    ChainState &ch = chains_[c];
    m->endEpoch = tickChain(c);
    // Move — not copy — the chain state into the end snapshot: the
    // chain is idle until its next event's begin replaces everything,
    // and keeping a second live copy would defeat the reference-count
    // test of multi-path reduction (Fig 6b).
    m->endVC = ch.vc;
    m->endACs = std::move(ch.acs);
    m->endAtomic = std::move(ch.atomic);
    ch.acs.clear();
    ch.atomic.clear();
    // Drop the self-entries minted at our own begin (the atomic slot
    // and the own-queue AsyncClock slot): a self-reference would keep
    // the refcount above zero forever. Inheritors of this end restore
    // the AsyncClock slot with their own reference (inheritEnd).
    if (AtomicClock *own = m->endAtomic.find(meta().looperOf(e))) {
        own->eraseIf([m](ChainId, AtomicEntry &entry) {
            return entry.ev.get() == m;
        });
    }
    if (AsyncClock *own = m->endACs.find(m->queue)) {
        own->eraseIf([m](ChainId, ACEntry &entry) {
            return entry.ev.get() == m;
        });
    }
    m->ended = true;
    m->endVtime = op.vtime;
    ch.lastEnded = true;

    ThreadId looper = meta().looperOf(e);
    if (looper != kInvalidId) {
        VectorClock &accum = looperEndAccum_[looper];
        std::uint64_t before = accum.byteSize();
        accum.joinWith(m->endVC);
        ++counters_.clockJoins;
        booked_.rebook(MemCat::VectorClock, before, accum.byteSize());
    }

    // Multi-path reduction (section 4.1): a predecessor held only by
    // this end clock, with send(X) hb send(this), is heirless. Also
    // re-checked during GC sweeps — the sender's own AsyncClock may
    // still hold the predecessor at this moment (Fig 6b) and release
    // it at its next send. sendVC is retained for those re-checks.
    if (cfg_.multiPathReduction && cfg_.reclaimHeirless)
        multiPathReduce(m);
    // The meta's final size: later cleanses keep every capacity.
    m->rebook();

    if (cfg_.windowMs > 0)
        endedQueue_.emplace_back(op.vtime, WeakPtr<EventMeta>(ref));
}

void
LooperModel::multiPathReduce(EventMeta *m,
                             std::vector<EventRef> *deferred)
{
    m->endACs.forEach([&](std::uint32_t, AsyncClock &ac) {
        ac.eraseIf([&](ChainId, ACEntry &entry) {
            EventMeta *x = entry.ev.get();
            if (!x || x == m || entry.ev.refCount() != 1)
                return false;
            if (!m->sendVC.knows(x->sendEpoch))
                return false;
            ++counters_.reclaimedMultiPath;
            if (deferred)
                deferred->push_back(std::move(entry.ev));
            return true;
        });
    });
}

void
LooperModel::retireChain(ChainId c)
{
    ChainState &ch = chains_[c];
    if (ch.retired)
        return;
    ch.retired = true;
    ch.lastEvent.reset();
    ch.acs.clear();  // frees the per-queue clocks
    ch.atomic.clear();
    touchChain(c);
    if (ch.fifoParent != kInvalidId) {
        chains_[ch.fifoParent].fifoChild.erase(ch.fifoQueue);
        ch.fifoParent = kInvalidId;
        ch.fifoQueue = kInvalidId;
        ch.level = 255;
    }
}

void
LooperModel::ageWindow(std::uint64_t now)
{
    while (!endedQueue_.empty() &&
           endedQueue_.front().first + cfg_.windowMs < now) {
        ageOneEnded();
    }
}

void
LooperModel::drainEndedWindow()
{
    while (!endedQueue_.empty())
        ageOneEnded();
}

void
LooperModel::ageOneEnded()
{
    WeakPtr<EventMeta> weak = std::move(endedQueue_.front().second);
    endedQueue_.pop_front();
    // Pin the event: the TC joins below can displace the last
    // counted reference to it (e.g. its own slot in the TC) and
    // must not free it while its end state is being read.
    EventRef pin = weak.lock();
    EventMeta *x = pin.get();
    if (!x)
        return;  // already reclaimed as heirless
    WindowClock &tc = windowClock_[x->queue];
    if (tc.marker == kInvalidId)
        tc.marker = newChain();
    MemCatBytes before = tc.bytes();
    tc.vc.joinWith(x->endVC);
    ++counters_.clockJoins;
    joinACSet(tc.acs, x->endACs);
    joinAtomicSet(tc.atomic, x->endAtomic);
    tc.vc.raise(tc.marker, ++tc.version);
    booked_.rebook(before, tc.bytes());
    ChainId c = x->beginEpoch.chain;
    ChainState &ch = chains_[c];
    if (!ch.retired && ch.lastEnded && ch.lastEvent.get() == x &&
        !ch.isBinder) {
        trace::QueueId q = x->queue;
        retireChain(c);
        freeByQueue_[q].push_back(c);
    } else if (ch.isBinder && ch.lastEnded &&
               ch.lastEvent.get() == x) {
        retireChain(c);  // stays in binderChains_ for reuse
    }
    ++counters_.invalidatedByWindow;
    weak.invalidate();
}

void
LooperModel::gcSweep()
{
    ++counters_.gcSweeps;
    auto cleanseAC = [](ACSet &acs) {
        acs.forEach([](std::uint32_t, AsyncClock &ac) {
            ac.eraseIf([](ChainId, ACEntry &entry) {
                return entry.ev.hasRef() && !entry.ev.get();
            });
        });
    };
    auto cleanseAtomic = [](AtomicSet &ats) {
        ats.forEach([](std::uint32_t, AtomicClock &ac) {
            ac.eraseIf([](ChainId, AtomicEntry &entry) {
                return entry.ev.hasRef() && !entry.ev.get();
            });
        });
    };

    for (ChainState &ch : chains_) {
        cleanseAC(ch.acs);
        cleanseAtomic(ch.atomic);
        ch.sendLists.forEach([](std::uint32_t, SendList &list) {
            auto &recs = list.recs;
            // Trim dead/aged prefix.
            std::size_t cut = 0;
            while (cut < recs.size() &&
                   (recs[cut].dead || (recs[cut].ev.hasRef() &&
                                       !recs[cut].ev.get()))) {
                ++cut;
            }
            bool mutated = false;
            if (cut > 0) {
                recs.erase(recs.begin(),
                           recs.begin() +
                               static_cast<std::ptrdiff_t>(cut));
                mutated = true;
            }
            // Compact interior tombstones when they dominate.
            if (list.deadCount > recs.size() / 2) {
                recs.erase(
                    std::remove_if(recs.begin(), recs.end(),
                                   [](const SendRec &rec) {
                                       return rec.dead ||
                                              (rec.ev.hasRef() &&
                                               !rec.ev.get());
                                   }),
                    recs.end());
                list.deadCount = 0;
                mutated = true;
            }
            if (mutated) {
                for (unsigned i = 0; i < trace::kNumPriorityClasses;
                     ++i) {
                    list.lastIdx[i] = 0;
                    list.liveCount[i] = 0;
                }
                for (const SendRec &rec : recs) {
                    if (!rec.dead &&
                        !(rec.ev.hasRef() && !rec.ev.get())) {
                        ++list.liveCount[trace::priorityClass(
                            rec.attrs)];
                    }
                }
            }
        });
    }
    for (Snapshot &h : handleState_) {
        cleanseAC(h.acs);
        cleanseAtomic(h.atomic);
    }
    for (WindowClock &tc : windowClock_) {
        // Entries whose events' ends the TC floor already covers are
        // redundant for inheritors: keep the window clock slim (it is
        // joined into event begins).
        tc.acs.forEach([&tc](std::uint32_t, AsyncClock &ac) {
            ac.eraseIf([&tc](clock::ChainId, ACEntry &entry) {
                EventMeta *x = entry.ev.get();
                return !x || (x->ended && tc.vc.knows(x->endEpoch));
            });
        });
        tc.atomic.forEach([&tc](std::uint32_t, AtomicClock &ac) {
            ac.eraseIf([&tc](clock::ChainId, AtomicEntry &entry) {
                EventMeta *x = entry.ev.get();
                return !x || (x->ended && tc.vc.knows(x->endEpoch));
            });
        });
    }
    // Registry walk. Destructive drops are deferred: destroying a
    // meta inline can cascade through metadata reference cycles and
    // free the meta (or its successor) under iteration. The cleanses
    // above only release references to already-dead payloads, which
    // cannot cascade.
    std::vector<EventRef> deferred;
    for (EventMeta *m = registry_.head; m; m = m->next) {
        cleanseAC(m->endACs);
        cleanseAtomic(m->endAtomic);
        cleanseAC(m->beginACs);
        cleanseAtomic(m->beginAtomic);
        if (cfg_.multiPathReduction && cfg_.reclaimHeirless &&
            m->ended) {
            multiPathReduce(m, &deferred);
        }
    }
    deferred.clear();  // destruction cascades run here, walk is over
}

void
LooperModel::aggressiveSweep()
{
    // The scheduled sweep trades compaction for speed (tombstones are
    // only removed when they dominate, capacity is never returned).
    // Under pressure the trade flips: purge every dead/aged record
    // and shrink the vectors to fit.
    for (ChainId c = 0; c < chains_.size(); ++c) {
        touchChain(c);
        chains_[c].sendLists.forEach([](std::uint32_t, SendList &list) {
            auto &recs = list.recs;
            recs.erase(std::remove_if(recs.begin(), recs.end(),
                                      [](const SendRec &rec) {
                                          return rec.dead ||
                                                 (rec.ev.hasRef() &&
                                                  !rec.ev.get());
                                      }),
                       recs.end());
            recs.shrink_to_fit();
            list.deadCount = 0;
            for (unsigned i = 0; i < trace::kNumPriorityClasses; ++i) {
                list.lastIdx[i] = 0;
                list.liveCount[i] = 0;
            }
            for (const SendRec &rec : recs)
                ++list.liveCount[trace::priorityClass(rec.attrs)];
        });
    }
    gcSweep();
}

void
LooperModel::relieveMemoryPressure(std::uint64_t now)
{
    // Checker bytes are deliberately excluded (see the config doc):
    // the ladder must fire identically when a checkpointed run is
    // replayed against a restored checker.
    if (modelBytes() <= cfg_.memBudgetBytes)
        return;

    obs::EventLog *events = engine_.events();

    // Rung 1: aggressive sweep — reclaim everything reclaimable
    // without any recall impact.
    aggressiveSweep();
    ++counters_.pressureGcSweeps;
    if (events)
        events->log(obs::EventLog::Severity::Info, "pressure.sweep",
                    strf("aggressive sweep; %llu bytes live",
                         static_cast<unsigned long long>(
                             modelBytes())),
                    engine_.opsProcessed());
    if (modelBytes() <= cfg_.memBudgetBytes)
        return;

    // Rung 2: halve the time window (down to the floor) and age the
    // excess out immediately. Equivalent to having configured the
    // smaller window: recall degrades only for races separated by
    // more than the new window.
    while (cfg_.windowMs > cfg_.minWindowMs) {
        cfg_.windowMs = std::max(cfg_.windowMs / 2, cfg_.minWindowMs);
        ageWindow(now);
        gcSweep();
        ++counters_.pressureWindowShrinks;
        if (events)
            events->log(obs::EventLog::Severity::Warn,
                        "pressure.shrink",
                        strf("window halved to %llu ms",
                             static_cast<unsigned long long>(
                                 cfg_.windowMs)),
                        engine_.opsProcessed());
        if (modelBytes() <= cfg_.memBudgetBytes)
            return;
    }

    // Rung 3: invalidate every ended event into the window clocks —
    // the window collapses to "currently live events only" for this
    // moment. New metadata keeps accruing afterwards, so the ladder
    // may fire again at the next GC check.
    if (cfg_.windowMs > 0 && !endedQueue_.empty()) {
        drainEndedWindow();
        gcSweep();
        ++counters_.pressureInvalidations;
        if (events)
            events->log(obs::EventLog::Severity::Warn,
                        "pressure.invalidate",
                        "every ended event invalidated into the "
                        "window clock",
                        engine_.opsProcessed());
    }
}

MemCatBytes
LooperModel::memoryBytes() const
{
    settleChains();
    MemCatBytes b = booked_;
    b[MemCat::EventMeta] = registry_.bytes;
    b[MemCat::Other] += endedQueue_.size() * sizeof(endedQueue_.front());
    return b;
}

MemCatBytes
LooperModel::walkMemoryBytes() const
{
    MemCatBytes b;
    for (const ChainState &ch : chains_)
        b += ch.bytes();
    for (const EventMeta *m = registry_.head; m; m = m->next)
        b[MemCat::EventMeta] += m->byteSize();
    for (const auto *snaps :
         {&handleState_, &looperBegin_, &threadEndState_, &forkSnap_}) {
        for (const Snapshot &s : *snaps)
            b += s.bytes();
    }
    for (const WindowClock &tc : windowClock_)
        b += tc.bytes();
    for (const VectorClock &vc : looperEndAccum_)
        b[MemCat::VectorClock] += vc.byteSize();
    for (const auto &p : pending_)
        b[MemCat::Other] += p.byteSize();
    b[MemCat::Other] += running_.byteSize() +
                        endedQueue_.size() * sizeof(endedQueue_.front());
    return b;
}

} // namespace asyncclock::core

#include "graph/eventracer.hh"

#include <algorithm>

#include "support/logging.hh"

namespace asyncclock::graph {

using clock::Epoch;
using trace::EventId;
using trace::kInvalidId;
using trace::OpId;
using trace::OpKind;
using trace::Operation;
using trace::QueueKind;
using trace::SendAttrs;
using trace::SendKind;
using trace::Task;
using trace::ThreadId;

EventRacerDetector::EventRacerDetector(trace::TraceSource &src,
                                       report::AccessChecker &checker,
                                       EventRacerConfig cfg)
    : source_(&src), checker_(checker), cfg_(cfg)
{
    syncEntities();
}

EventRacerDetector::EventRacerDetector(const trace::Trace &tr,
                                       report::AccessChecker &checker,
                                       EventRacerConfig cfg)
    : owned_(std::make_unique<trace::MaterializedSource>(tr)),
      source_(owned_.get()), checker_(checker), cfg_(cfg)
{
    syncEntities();
}

void
EventRacerDetector::syncEntities()
{
    const trace::TraceMeta &m = meta();
    std::size_t nt = m.threads().size();
    if (threadStates_.size() < nt) {
        threadStates_.resize(nt);
        loopers_.resize(nt);
        forkNode_.resize(nt, kInvalidId);
        threadBeginNode_.resize(nt, kInvalidId);
        threadEndNode_.resize(nt, kInvalidId);
        threadEndEpoch_.resize(nt);
    }
    std::size_t ne = m.events().size();
    if (eventStates_.size() < ne) {
        eventStates_.resize(ne);
        events_.resize(ne);
        chainOf_.resize(ne, kInvalidId);
    }
    std::size_t nq = m.queues().size();
    if (pending_.size() < nq)
        pending_.resize(nq);
    std::size_t nh = m.handles().size();
    if (handles_.size() < nh)
        handles_.resize(nh);
}

EventRacerDetector::TaskState &
EventRacerDetector::state(Task task)
{
    return task.isEvent() ? eventStates_[task.index()]
                          : threadStates_[task.index()];
}

clock::ChainId
EventRacerDetector::newChain()
{
    chainTicks_.push_back(0);
    chainLast_.push_back(kInvalidId);
    return static_cast<clock::ChainId>(chainTicks_.size() - 1);
}

Epoch
EventRacerDetector::tick(TaskState &ts)
{
    clock::Tick t = ++chainTicks_[ts.chain];
    ts.vc.raise(ts.chain, t);
    return {ts.chain, t};
}

std::uint32_t
EventRacerDetector::newNode(OpId op, TaskState &ts)
{
    Node n;
    n.op = op;
    n.epoch = tick(ts);
    n.vc = ts.vc;
    if (ts.lastNode != kInvalidId)
        n.preds.push_back(ts.lastNode);
    nodes_.push_back(std::move(n));
    std::uint32_t id = static_cast<std::uint32_t>(nodes_.size() - 1);
    ts.lastNode = id;
    ++counters_.nodes;
    counters_.edges += nodes_[id].preds.size();
    return id;
}

bool
EventRacerDetector::processNext()
{
    Operation op;
    if (!source_->next(op))
        return false;
    syncEntities();
    processOp(op, static_cast<OpId>(cursor_));
    ++cursor_;
    return true;
}

void
EventRacerDetector::processOp(const Operation &op, OpId id)
{
    switch (op.kind) {
      case OpKind::ThreadBegin:
        {
            ThreadId t = op.task.index();
            TaskState &ts = threadStates_[t];
            ts.chain = newChain();
            ts.live = true;
            std::uint32_t fn = forkNode_[t];
            if (fn != kInvalidId)
                ts.vc = nodes_[fn].vc;
            std::uint32_t node = newNode(id, ts);
            if (fn != kInvalidId) {
                nodes_[node].preds.push_back(fn);
                ++counters_.edges;
            }
            threadBeginNode_[t] = node;
        }
        break;
      case OpKind::ThreadEnd:
        {
            ThreadId t = op.task.index();
            TaskState &ts = threadStates_[t];
            // Rule LOOPEND: a looper's end inherits every event it
            // executed.
            LooperState &ls = loopers_[t];
            ts.vc.joinWith(ls.endAccum);
            std::uint32_t node = newNode(id, ts);
            for (EventId e : ls.executed) {
                nodes_[node].preds.push_back(events_[e].endNode);
                ++counters_.edges;
            }
            threadEndNode_[t] = node;
            threadEndEpoch_[t] = nodes_[node].epoch;
            ts.live = false;
        }
        break;
      case OpKind::Fork:
        {
            TaskState &ts = state(op.task);
            std::uint32_t node = newNode(id, ts);
            forkNode_[op.target] = node;
        }
        break;
      case OpKind::Join:
        {
            TaskState &ts = state(op.task);
            std::uint32_t endNode = threadEndNode_[op.target];
            acAssert(endNode != kInvalidId, "join before thread end");
            ts.vc.joinWith(nodes_[endNode].vc);
            std::uint32_t node = newNode(id, ts);
            nodes_[node].preds.push_back(endNode);
            ++counters_.edges;
            if (op.task.isEvent())
                atomicFold(op.task.index(), ts, node);
        }
        break;
      case OpKind::Signal:
        {
            TaskState &ts = state(op.task);
            std::uint32_t node = newNode(id, ts);
            HandleState &h = handles_[op.target];
            h.vc.joinWith(nodes_[node].vc);
            h.signalNodes.push_back(node);
        }
        break;
      case OpKind::Wait:
        {
            TaskState &ts = state(op.task);
            HandleState &h = handles_[op.target];
            ts.vc.joinWith(h.vc);
            std::uint32_t node = newNode(id, ts);
            for (std::uint32_t s : h.signalNodes) {
                nodes_[node].preds.push_back(s);
                ++counters_.edges;
            }
            if (op.task.isEvent())
                atomicFold(op.task.index(), ts, node);
        }
        break;
      case OpKind::Send:
        {
            TaskState &ts = state(op.task);
            std::uint32_t node = newNode(id, ts);
            nodes_[node].sendEvent = op.event;
            events_[op.event].sendNode = node;
            pending_[op.target].push_back(op.event);
        }
        break;
      case OpKind::RemoveEvent:
        {
            TaskState &ts = state(op.task);
            newNode(id, ts);
            events_[op.event].removed = true;
            auto &pq = pending_[meta().event(op.event).queue];
            pq.erase(std::find(pq.begin(), pq.end(), op.event));
        }
        break;
      case OpKind::EventBegin:
        onEventBegin(op, id);
        break;
      case OpKind::EventEnd:
        {
            EventId e = op.task.index();
            TaskState &ts = eventStates_[e];
            std::uint32_t node = newNode(id, ts);
            events_[e].endNode = node;
            events_[e].endEpoch = nodes_[node].epoch;
            ThreadId looper = meta().looperOf(e);
            if (looper != kInvalidId) {
                loopers_[looper].endAccum.joinWith(nodes_[node].vc);
                loopers_[looper].executed.push_back(e);
            }
        }
        break;
      case OpKind::Read:
      case OpKind::Write:
        {
            TaskState &ts = state(op.task);
            report::Access acc;
            acc.op = id;
            acc.epoch = tick(ts);
            acc.site = op.site;
            acc.task = op.task;
            acc.isWrite = op.kind == OpKind::Write;
            checker_.onAccess(op.target, acc, ts.vc);
        }
        break;
    }
}

namespace {

/**
 * EventRacer's traversal pruning: expansion may stop below send(E')
 * only if E' *dominates* every potential predecessor of E that could
 * lie deeper on this path — i.e. any X with send(X) hb send(E') and
 * priority(X, E) also has priority(X, E'). With Table 1 this holds
 * exactly when E' is sync, has E's kind, and carries the same time
 * constraint; equality is common for Delayed events (delays repeat,
 * FIFO posts are all zero) and rare for AtTime events — the paper's
 * observation that pruning "nearly pruned nothing for AtTime events".
 */
bool
canPrune(const SendAttrs &found, const SendAttrs &target)
{
    return !found.async && found.kind == target.kind &&
           found.time == target.time &&
           (found.kind == SendKind::Delayed ||
            found.kind == SendKind::AtTime);
}

} // namespace

std::vector<EventId>
EventRacerDetector::collectPredecessors(EventId e, VectorClock &vc,
                                        std::uint32_t beginNode)
{
    std::vector<EventId> predEvents;
    const trace::MetaEvent &info = meta().event(e);
    const bool binder =
        meta().queue(info.queue).kind == QueueKind::Binder;
    if (!binder && info.attrs.kind == SendKind::AtFront) {
        // No Table 1 row orders anything before an AtFront event.
        return predEvents;
    }

    ++traversalStamp_;
    std::vector<std::uint32_t> stack;
    auto push = [&](std::uint32_t n) {
        if (nodes_[n].stamp != traversalStamp_) {
            nodes_[n].stamp = traversalStamp_;
            stack.push_back(n);
            ++counters_.traversalVisits;
        }
    };
    for (std::uint32_t p : nodes_[events_[e].sendNode].preds)
        push(p);

    while (!stack.empty()) {
        std::uint32_t n = stack.back();
        stack.pop_back();
        Node &node = nodes_[n];
        EventId se = node.sendEvent;
        if (se != kInvalidId && se != e &&
            meta().event(se).queue == info.queue) {
            const trace::MetaEvent &seInfo = meta().event(se);
            if (binder) {
                // Binder rule: begins follow sends; inherit the begin.
                std::uint32_t bn = events_[se].beginNode;
                acAssert(bn != kInvalidId,
                         "binder FIFO dispatch violated");
                vc.joinWith(nodes_[bn].vc);
                nodes_[beginNode].preds.push_back(bn);
                ++counters_.edges;
                ++counters_.predecessorsFound;
                continue;  // latest send per path dominates
            }
            if (events_[se].removed) {
                // Removed events relay: nothing to inherit beyond the
                // send clock (already included); keep searching past.
            } else if (trace::priorityOrders(seInfo.attrs,
                                             info.attrs)) {
                std::uint32_t en = events_[se].endNode;
                acAssert(en != kInvalidId,
                         "priority dispatch violated");
                vc.joinWith(nodes_[en].vc);
                nodes_[beginNode].preds.push_back(en);
                ++counters_.edges;
                ++counters_.predecessorsFound;
                predEvents.push_back(se);
                if (cfg_.pruning &&
                    canPrune(seInfo.attrs, info.attrs)) {
                    continue;
                }
            }
        }
        for (std::uint32_t p : node.preds)
            push(p);
    }
    return predEvents;
}

void
EventRacerDetector::atomicFold(EventId self, TaskState &ts,
                               std::uint32_t node)
{
    ThreadId looper = meta().looperOf(self);
    if (looper == kInvalidId)
        return;
    LooperState &ls = loopers_[looper];
    bool changed = true;
    while (changed) {
        changed = false;
        for (EventId e1 : ls.executed) {
            if (e1 == self)
                continue;
            const EventState &es = events_[e1];
            if (ts.vc.knows(es.beginEpoch) &&
                !ts.vc.knows(es.endEpoch)) {
                ts.vc.joinWith(nodes_[es.endNode].vc);
                nodes_[node].preds.push_back(es.endNode);
                ++counters_.edges;
                changed = true;
            }
        }
    }
    nodes_[node].vc = ts.vc;
}

void
EventRacerDetector::atFrontFold(EventId e, TaskState &ts,
                                std::uint32_t node)
{
    EventState &es = events_[e];
    const Epoch mySend = nodes_[es.sendNode].epoch;
    std::vector<bool> joined(es.sentAtFront.size(), false);
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < es.sentAtFront.size(); ++i) {
            if (joined[i])
                continue;
            EventId e1 = es.sentAtFront[i];
            const EventState &fs = events_[e1];
            if (fs.endNode == kInvalidId ||
                ts.vc.knows(fs.endEpoch)) {
                // Already (transitively) inherited: skip, or the
                // outer begin-time fixpoint would re-add this edge
                // forever.
                joined[i] = true;
                continue;
            }
            // Premises: send(E) hb send(E1) and send(E1) hb begin(E).
            if (nodes_[fs.sendNode].vc.knows(mySend) &&
                ts.vc.knows(nodes_[fs.sendNode].epoch)) {
                ts.vc.joinWith(nodes_[fs.endNode].vc);
                nodes_[node].preds.push_back(fs.endNode);
                ++counters_.edges;
                joined[i] = true;
                changed = true;
            }
        }
    }
    nodes_[node].vc = ts.vc;
}

void
EventRacerDetector::onEventBegin(const Operation &op, OpId id)
{
    EventId e = op.task.index();
    EventState &es = events_[e];
    TaskState &ts = eventStates_[e];
    const trace::MetaEvent &info = meta().event(e);
    const bool binder =
        meta().queue(info.queue).kind == QueueKind::Binder;

    // Rule SEND: inherit the send clock.
    ts.vc = nodes_[es.sendNode].vc;
    // Rule LOOPBEGIN.
    ThreadId looper = meta().looperOf(e);
    std::vector<std::uint32_t> extraPreds{es.sendNode};
    if (looper != kInvalidId &&
        threadBeginNode_[looper] != kInvalidId) {
        ts.vc.joinWith(nodes_[threadBeginNode_[looper]].vc);
        extraPreds.push_back(threadBeginNode_[looper]);
    }

    // The begin epoch needs a chain, the greedy chain choice needs
    // the predecessors, and the predecessor search wants a node to
    // attach edges to. Resolve the cycle with a scratch node at the
    // back of the node array: collect predecessors and run the folds
    // against it, then move its edges onto the real begin node
    // created after the chain is chosen.
    VectorClock &vc = ts.vc;
    nodes_.push_back(Node{});
    std::uint32_t scratch =
        static_cast<std::uint32_t>(nodes_.size() - 1);
    std::vector<EventId> predEvents =
        collectPredecessors(e, vc, scratch);
    // ATFRONT and ATOMIC can enable each other; iterate to fixpoint.
    bool changed = true;
    while (changed) {
        std::size_t before = nodes_[scratch].preds.size();
        atFrontFold(e, ts, scratch);
        atomicFold(e, ts, scratch);
        changed = nodes_[scratch].preds.size() != before;
    }
    std::vector<std::uint32_t> collected =
        std::move(nodes_[scratch].preds);
    nodes_.pop_back();

    // Greedy chain decomposition.
    clock::ChainId chain = kInvalidId;
    if (!binder) {
        for (EventId p : predEvents) {
            clock::ChainId c = chainOf_[p];
            if (c != kInvalidId && chainLast_[c] == p) {
                chain = c;
                break;
            }
        }
    } else {
        // Binder pool: reuse any binder chain whose last event has
        // *ended* and whose end is causally known (so the chain stays
        // a causal sequence).
        for (clock::ChainId c : binderChains_) {
            EventId last = chainLast_[c];
            if (last != kInvalidId &&
                events_[last].endNode != kInvalidId &&
                vc.knows(events_[last].endEpoch)) {
                chain = c;
                break;
            }
        }
    }
    if (chain == kInvalidId) {
        chain = newChain();
        if (binder)
            binderChains_.push_back(chain);
    }
    ts.chain = chain;
    chainOf_[e] = chain;
    chainLast_[chain] = e;

    std::uint32_t node = newNode(id, ts);
    for (std::uint32_t p : extraPreds) {
        nodes_[node].preds.push_back(p);
        ++counters_.edges;
    }
    // `collected` edges were already counted when attached to the
    // scratch node.
    nodes_[node].preds.insert(nodes_[node].preds.end(),
                              collected.begin(), collected.end());
    es.beginNode = node;
    es.beginEpoch = nodes_[node].epoch;

    // Leave the queue; feed sent-at-front lists.
    auto &pq = pending_[info.queue];
    pq.erase(std::find(pq.begin(), pq.end(), e));
    if (!binder && info.attrs.kind == SendKind::AtFront) {
        for (EventId e2 : pq)
            events_[e2].sentAtFront.push_back(e);
    }
}

std::uint64_t
EventRacerDetector::metadataBytes() const
{
    std::uint64_t total = 0;
    for (const Node &n : nodes_) {
        total += sizeof(Node) + n.vc.byteSize() +
                 n.preds.capacity() * sizeof(std::uint32_t);
    }
    for (const TaskState &ts : threadStates_)
        total += sizeof(TaskState) + ts.vc.byteSize();
    for (const TaskState &ts : eventStates_)
        total += sizeof(TaskState) + ts.vc.byteSize();
    for (const EventState &es : events_) {
        total += sizeof(EventState) +
                 es.sentAtFront.capacity() * sizeof(EventId);
    }
    for (const HandleState &h : handles_) {
        total += sizeof(HandleState) + h.vc.byteSize() +
                 h.signalNodes.capacity() * sizeof(std::uint32_t);
    }
    for (const LooperState &ls : loopers_) {
        total += ls.endAccum.byteSize() +
                 ls.executed.capacity() * sizeof(EventId);
    }
    total += chainTicks_.capacity() * sizeof(std::uint32_t);
    total += chainLast_.capacity() * sizeof(EventId);
    total += checker_.byteSize();
    return total;
}

void
EventRacerDetector::sampleMemory(MemStats &stats) const
{
    std::uint64_t nodeBytes = 0, clockBytes = 0;
    for (const Node &n : nodes_) {
        nodeBytes += sizeof(Node) +
                     n.preds.capacity() * sizeof(std::uint32_t);
        clockBytes += n.vc.byteSize();
    }
    stats.sample(MemCat::GraphNode, nodeBytes);
    stats.sample(MemCat::VectorClock, clockBytes);
    stats.sample(MemCat::VarState, checker_.byteSize());
    stats.sample(MemCat::Other,
                 metadataBytes() - nodeBytes - clockBytes -
                     checker_.byteSize());
}

} // namespace asyncclock::graph

#include "core/async_model.hh"

#include <algorithm>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::core {

using clock::Epoch;
using trace::EventId;
using trace::HandleId;
using trace::kInvalidId;
using trace::OpId;
using trace::OpKind;
using trace::Operation;
using trace::Task;
using trace::ThreadId;

AsyncTaskModel::AsyncTaskModel(DetectorEngine &engine)
    : engine_(engine), checker_(engine.checker()), cfg_(engine.cfg()),
      counters_(engine.countersMut())
{
}

void
AsyncTaskModel::syncEntities()
{
    const trace::TraceMeta &m = meta();
    std::size_t nt = m.threads().size();
    if (threadChain_.size() < nt) {
        threadChain_.resize(nt, kInvalidId);
        forkVC_.resize(nt);
        forkValid_.resize(nt, 0);
        threadEndVC_.resize(nt);
    }
    if (threadPhase_.size() < nt)
        threadPhase_.resize(
            nt, static_cast<std::uint8_t>(ThreadPhase::Unstarted));
    std::size_t ne = m.events().size();
    if (taskChain_.size() < ne) {
        taskChain_.resize(ne, kInvalidId);
        spawnVC_.resize(ne);
        settleVC_.resize(ne);
        settleEpoch_.resize(ne);
        aged_.resize(ne, 0);
        startVtime_.resize(ne, 0);
        taskScope_.resize(ne, kInvalidId);
    }
    if (taskPhase_.size() < ne)
        taskPhase_.resize(
            ne, static_cast<std::uint8_t>(TaskPhase::Unspawned));
    std::size_t nh = m.handles().size();
    if (handleVC_.size() < nh) {
        handleVC_.resize(nh);
        scopeJoin_.resize(nh);
        scopeOpen_.resize(nh, 0);
    }
}

clock::ChainId
AsyncTaskModel::newChain()
{
    chains_.emplace_back();
    booked_[MemCat::Other] += sizeof(Chain);
    ++counters_.chainsCreated;
    return static_cast<ChainId>(chains_.size() - 1);
}

clock::ChainId
AsyncTaskModel::chainOf(Task task) const
{
    return task.isEvent() ? taskChain_[task.index()]
                          : threadChain_[task.index()];
}

Epoch
AsyncTaskModel::tickChain(ChainId c)
{
    Chain &ch = chains_[c];
    std::uint64_t before = ch.vc.byteSize();
    clock::Tick t = ++ch.tick;
    ch.vc.raise(c, t);
    rebook(MemCat::VectorClock, before, ch.vc);
    ++counters_.clockTicks;
    return {c, t};
}

void
AsyncTaskModel::joinInto(ChainId c, const VectorClock &vc)
{
    VectorClock &dst = chains_[c].vc;
    std::uint64_t before = dst.byteSize();
    dst.joinWith(vc);
    rebook(MemCat::VectorClock, before, dst);
    ++counters_.clockJoins;
}

void
AsyncTaskModel::joinWindowFloor(VectorClock &vc)
{
    if (window_.version > 0 &&
        vc.get(window_.marker) < window_.version) {
        vc.joinWith(window_.vc);
        ++counters_.clockJoins;
    }
}

bool
AsyncTaskModel::admitOp(const Operation &op)
{
    const char *why = nullptr;
    if (op.task.isEvent()) {
        auto ph = static_cast<TaskPhase>(taskPhase_[op.task.index()]);
        if (op.kind == OpKind::EventBegin) {
            if (ph != TaskPhase::Pending)
                why = "task start without a spawn";
        } else if (ph != TaskPhase::Running) {
            why = op.kind == OpKind::EventEnd
                      ? "task finish without a start"
                      : "op from a task that is not running";
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
    if (!why && op.kind == OpKind::TaskSpawn &&
        static_cast<TaskPhase>(taskPhase_[op.event]) !=
            TaskPhase::Unspawned) {
        why = "duplicate spawn of a task";
    }
    if (!why && op.kind == OpKind::TaskAwait &&
        static_cast<TaskPhase>(taskPhase_[op.event]) !=
            TaskPhase::Settled) {
        why = "await of a task that has not settled";
    }
    if (!why && op.kind == OpKind::TaskCancel &&
        static_cast<TaskPhase>(taskPhase_[op.event]) !=
            TaskPhase::Pending) {
        why = "cancel of a task that is not pending";
    }
    if (!why && op.kind == OpKind::ScopeEnd &&
        scopeOpen_[op.target] != 0) {
        why = "scope end with open tasks";
    }
    if (!why && (op.kind == OpKind::Send ||
                 op.kind == OpKind::RemoveEvent)) {
        why = "looper-dialect op in an async trace";
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
      case OpKind::TaskSpawn:
        taskPhase_[op.event] =
            static_cast<std::uint8_t>(TaskPhase::Pending);
        break;
      case OpKind::TaskCancel:
        taskPhase_[op.event] =
            static_cast<std::uint8_t>(TaskPhase::Settled);
        break;
      case OpKind::EventBegin:
        taskPhase_[op.task.index()] =
            static_cast<std::uint8_t>(TaskPhase::Running);
        break;
      case OpKind::EventEnd:
        taskPhase_[op.task.index()] =
            static_cast<std::uint8_t>(TaskPhase::Settled);
        break;
      default:
        break;
    }
    return true;
}

void
AsyncTaskModel::applyOp(const Operation &op, OpId id)
{
    switch (op.kind) {
      case OpKind::ThreadBegin:
        {
            ThreadId t = op.task.index();
            ChainId c = newChain();
            threadChain_[t] = c;
            if (forkValid_[t]) {
                joinInto(c, forkVC_[t]);
                forkVC_[t].clear();
                forkValid_[t] = 0;
            }
            tickChain(c);
        }
        break;
      case OpKind::ThreadEnd:
        {
            ThreadId t = op.task.index();
            ChainId c = threadChain_[t];
            tickChain(c);
            std::uint64_t before = threadEndVC_[t].byteSize();
            threadEndVC_[t] = chains_[c].vc;
            rebook(MemCat::VectorClock, before, threadEndVC_[t]);
        }
        break;
      case OpKind::Fork:
        {
            ChainId c = chainOf(op.task);
            tickChain(c);
            VectorClock &fork = forkVC_[op.target];
            std::uint64_t before = fork.byteSize();
            fork = chains_[c].vc;
            rebook(MemCat::VectorClock, before, fork);
            forkValid_[op.target] = 1;
        }
        break;
      case OpKind::Join:
        {
            ChainId c = chainOf(op.task);
            joinInto(c, threadEndVC_[op.target]);
            tickChain(c);
        }
        break;
      case OpKind::Signal:
        {
            ChainId c = chainOf(op.task);
            tickChain(c);
            VectorClock &h = handleVC_[op.target];
            std::uint64_t before = h.byteSize();
            h.joinWith(chains_[c].vc);
            rebook(MemCat::VectorClock, before, h);
            ++counters_.clockJoins;
        }
        break;
      case OpKind::Wait:
        {
            ChainId c = chainOf(op.task);
            joinInto(c, handleVC_[op.target]);
            tickChain(c);
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
      case OpKind::TaskSpawn:
        {
            // Rule SPAWN: the child's initial clock is the spawner's
            // clock at the spawn tick.
            ChainId c = chainOf(op.task);
            tickChain(c);
            VectorClock &spawn = spawnVC_[op.event];
            std::uint64_t before = spawn.byteSize();
            spawn = chains_[c].vc;
            rebook(MemCat::EventMeta, before, spawn);
            taskScope_[op.event] = op.target;
            ++scopeOpen_[op.target];
            ++counters_.eventsSeen;
            ++tasksSpawned_;
            ++tasksLive_;
            tasksLivePeak_ = std::max(tasksLivePeak_, tasksLive_);
        }
        break;
      case OpKind::TaskAwait:
        {
            // Rule AWAIT: settle(C) hb await(C). An aged child's
            // settle time is covered by the window clock. Awaits and
            // scope closes are the join-dominated phase of this
            // model.
            PhaseScope timed(engine_, Phase::ClockJoin);
            ChainId c = chainOf(op.task);
            Chain &ch = chains_[c];
            if (aged_[op.event]) {
                std::uint64_t before = ch.vc.byteSize();
                joinWindowFloor(ch.vc);
                rebook(MemCat::VectorClock, before, ch.vc);
            } else if (!ch.vc.knows(settleEpoch_[op.event])) {
                joinInto(c, settleVC_[op.event]);
            }
            tickChain(c);
            ++tasksAwaited_;
        }
        break;
      case OpKind::TaskCancel:
        {
            // A cancelled task never runs; the cancel op is its
            // settle point, so awaiters/scope closes synchronize with
            // the canceller.
            ChainId c = chainOf(op.task);
            Epoch e = tickChain(c);
            spawnVC_[op.event].clear();
            settleTask(op.event, taskScope_[op.event],
                       chains_[c].vc, e, op.vtime);
            ++tasksCancelled_;
        }
        break;
      case OpKind::ScopeEnd:
        {
            // Structured concurrency's implicit join: every member
            // task settled before the scope closes.
            PhaseScope timed(engine_, Phase::ClockJoin);
            ChainId c = chainOf(op.task);
            joinInto(c, scopeJoin_[op.target]);
            tickChain(c);
            scopeJoin_[op.target].clear();
            ++scopesClosed_;
        }
        break;
      case OpKind::EventBegin:
        onTaskStart(op);
        break;
      case OpKind::EventEnd:
        onTaskFinish(op);
        break;
      default:
        break;  // looper-dialect ops are rejected by admitOp
    }
}

void
AsyncTaskModel::onTaskStart(const Operation &op)
{
    EventId e = op.task.index();
    std::uint64_t spawnBytes = spawnVC_[e].byteSize();
    VectorClock vc = std::move(spawnVC_[e]);
    spawnVC_[e].clear();
    rebook(MemCat::EventMeta, spawnBytes, spawnVC_[e]);
    joinWindowFloor(vc);

    // Reuse a freed chain only when this task's start clock covers
    // the chain's last settle epoch — otherwise stale ticks of the
    // previous tenant would leak into our clock and hide races.
    ChainId c = kInvalidId;
    for (std::size_t i = 0; i < freeChains_.size(); ++i) {
        ChainId cand = freeChains_[i];
        if (vc.knows(chains_[cand].lastEnd)) {
            c = cand;
            freeChains_[i] = freeChains_.back();
            freeChains_.pop_back();
            ++counters_.chainsReused;
            break;
        }
    }
    if (c == kInvalidId)
        c = newChain();
    taskChain_[e] = c;
    Chain &ch = chains_[c];
    vc.raise(c, ++ch.tick);
    ++counters_.clockTicks;
    std::uint64_t before = ch.vc.byteSize();
    ch.vc = std::move(vc);
    rebook(MemCat::VectorClock, before, ch.vc);
    startVtime_[e] = op.vtime;
}

void
AsyncTaskModel::onTaskFinish(const Operation &op)
{
    EventId e = op.task.index();
    ChainId c = taskChain_[e];
    Epoch end = tickChain(c);
    Chain &ch = chains_[c];
    settleTask(e, taskScope_[e], ch.vc, end, op.vtime);
    ch.lastEnd = end;
    freeChains_.push_back(c);

    if (obs::Tracer *tracer = engine_.tracer()) {
        if (taskTrack_ < 0)
            taskTrack_ = tracer->registerTrack("tasks");
        // Task spans live on the trace's vtime timeline (ms -> us).
        tracer->span(taskTrack_, strf("task %u", e),
                     startVtime_[e] * 1000, op.vtime * 1000,
                     strf("{\"task\":%u,\"scope\":%u}", e,
                          taskScope_[e]));
    }
}

void
AsyncTaskModel::settleTask(EventId task, HandleId scope,
                           const VectorClock &vc, Epoch settleEpoch,
                           std::uint64_t vtime)
{
    std::uint64_t before = settleVC_[task].byteSize();
    settleVC_[task] = vc;
    rebook(MemCat::EventMeta, before, settleVC_[task]);
    settleEpoch_[task] = settleEpoch;
    if (scope != kInvalidId) {
        VectorClock &join = scopeJoin_[scope];
        before = join.byteSize();
        join.joinWith(vc);
        rebook(MemCat::VectorClock, before, join);
        ++counters_.clockJoins;
        --scopeOpen_[scope];
    }
    --tasksLive_;
    if (cfg_.windowMs > 0)
        settled_.emplace_back(vtime, task);
}

void
AsyncTaskModel::ageWindow(std::uint64_t now)
{
    while (!settled_.empty() &&
           settled_.front().first + cfg_.windowMs < now) {
        ageOneSettled();
    }
}

void
AsyncTaskModel::drainSettledWindow()
{
    while (!settled_.empty())
        ageOneSettled();
}

void
AsyncTaskModel::ageOneSettled()
{
    EventId e = settled_.front().second;
    settled_.pop_front();
    if (aged_[e])
        return;
    if (window_.marker == kInvalidId)
        window_.marker = newChain();
    std::uint64_t before = window_.vc.byteSize();
    window_.vc.joinWith(settleVC_[e]);
    ++counters_.clockJoins;
    window_.vc.raise(window_.marker, ++window_.version);
    rebook(MemCat::VectorClock, before, window_.vc);
    settleVC_[e].clear();
    aged_[e] = 1;
    ++windowFolds_;
    ++counters_.invalidatedByWindow;
}

void
AsyncTaskModel::gcSweep()
{
    ++counters_.gcSweeps;
    // Unlike the looper model there is no refcounted metadata to
    // cleanse: per-task clocks are released eagerly (spawn clocks at
    // start, settle clocks when aged). The sweep only compacts the
    // free-chain list when retired clocks dominate it.
    if (freeChains_.size() > 64) {
        for (ChainId c : freeChains_) {
            if (window_.version > 0 &&
                window_.vc.knows(chains_[c].lastEnd)) {
                // Any future tenant joins the window floor first, so
                // the stored clock is redundant.
                chains_[c].vc.clear();
            }
        }
    }
}

void
AsyncTaskModel::relieveMemoryPressure(std::uint64_t now)
{
    if (modelBytes() <= cfg_.memBudgetBytes)
        return;

    obs::EventLog *events = engine_.events();

    gcSweep();
    ++counters_.pressureGcSweeps;
    if (events)
        events->log(obs::EventLog::Severity::Info, "pressure.sweep",
                    strf("aggressive sweep; %llu bytes live",
                         static_cast<unsigned long long>(
                             modelBytes())),
                    engine_.opsProcessed());
    if (modelBytes() <= cfg_.memBudgetBytes)
        return;

    while (cfg_.windowMs > cfg_.minWindowMs) {
        cfg_.windowMs = std::max(cfg_.windowMs / 2, cfg_.minWindowMs);
        ageWindow(now);
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

    if (cfg_.windowMs > 0 && !settled_.empty()) {
        drainSettledWindow();
        gcSweep();
        ++counters_.pressureInvalidations;
        if (events)
            events->log(obs::EventLog::Severity::Warn,
                        "pressure.invalidate",
                        "every settled task invalidated into the "
                        "window clock",
                        engine_.opsProcessed());
    }
}

void
AsyncTaskModel::syncDerivedCounters()
{
    counters_.eventsLive = tasksLive_;
    counters_.eventsLivePeak = tasksLivePeak_;
}

void
AsyncTaskModel::registerModelMetrics(obs::MetricsRegistry &reg)
{
    reg.counterFn("model.tasks_spawned",
                  [this] { return tasksSpawned_; });
    reg.counterFn("model.tasks_awaited",
                  [this] { return tasksAwaited_; });
    reg.counterFn("model.tasks_cancelled",
                  [this] { return tasksCancelled_; });
    reg.counterFn("model.scopes_closed",
                  [this] { return scopesClosed_; });
    reg.counterFn("model.window_folds",
                  [this] { return windowFolds_; });
    reg.gaugeFn("model.tasks_live", [this] {
        return static_cast<std::int64_t>(tasksLive_);
    });
}

MemCatBytes
AsyncTaskModel::memoryBytes() const
{
    MemCatBytes b = booked_;
    b[MemCat::Other] += settled_.size() * sizeof(settled_.front());
    return b;
}

MemCatBytes
AsyncTaskModel::walkMemoryBytes() const
{
    MemCatBytes b;
    for (const Chain &ch : chains_) {
        b[MemCat::VectorClock] += ch.vc.byteSize();
        b[MemCat::Other] += sizeof(Chain);
    }
    for (const auto *clocks : {&spawnVC_, &settleVC_}) {
        for (const VectorClock &vc : *clocks)
            b[MemCat::EventMeta] += vc.byteSize();
    }
    for (const auto *clocks :
         {&forkVC_, &threadEndVC_, &handleVC_, &scopeJoin_}) {
        for (const VectorClock &vc : *clocks)
            b[MemCat::VectorClock] += vc.byteSize();
    }
    b[MemCat::VectorClock] += window_.vc.byteSize();
    b[MemCat::Other] += settled_.size() * sizeof(settled_.front());
    return b;
}

} // namespace asyncclock::core

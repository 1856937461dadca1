#include "runtime/taskgraph.hh"

#include <algorithm>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::runtime {

using trace::kInvalidId;

TaskGraph::TaskGraph(TaskGraphConfig cfg) : cfg_(cfg)
{
    if (cfg_.executors == 0)
        panic("TaskGraph: executor pool must be non-empty");
    main_.name = "main";
}

trace::VarId
TaskGraph::var(std::string name, trace::SeedLabel label)
{
    varSpecs_.push_back({std::move(name), label});
    return static_cast<trace::VarId>(varSpecs_.size() - 1);
}

trace::SiteId
TaskGraph::site(std::string name, trace::Frame frame,
                std::uint32_t commGroup)
{
    siteSpecs_.push_back({std::move(name), frame, commGroup});
    return static_cast<trace::SiteId>(siteSpecs_.size() - 1);
}

TaskGraph::TaskRef
TaskGraph::task(std::string name)
{
    Body b;
    b.name = std::move(name);
    nodes_.push_back(std::move(b));
    return static_cast<TaskRef>(nodes_.size() - 1);
}

void
TaskGraph::addStep(TaskRef actor, Step step)
{
    acAssert(!ran_, "TaskGraph: script mutated after run()");
    if (step.kind == Step::Kind::Spawn)
        body(actor).spawns = true;
    body(actor).steps.push_back(step);
}

void
TaskGraph::read(TaskRef actor, trace::VarId v, trace::SiteId s)
{
    addStep(actor, {Step::Kind::Read, v, s, 0});
}

void
TaskGraph::write(TaskRef actor, trace::VarId v, trace::SiteId s)
{
    addStep(actor, {Step::Kind::Write, v, s, 0});
}

void
TaskGraph::sleepFor(TaskRef actor, std::uint64_t ms)
{
    addStep(actor, {Step::Kind::Sleep, kInvalidId, kInvalidId, ms});
}

void
TaskGraph::spawn(TaskRef actor, TaskRef child)
{
    acAssert(child < nodes_.size(), "TaskGraph: spawn of unknown task");
    addStep(actor, {Step::Kind::Spawn, child, kInvalidId, 0});
}

void
TaskGraph::await(TaskRef actor, TaskRef child)
{
    acAssert(child < nodes_.size(), "TaskGraph: await of unknown task");
    addStep(actor, {Step::Kind::Await, child, kInvalidId, 0});
}

void
TaskGraph::cancel(TaskRef actor, TaskRef child)
{
    acAssert(child < nodes_.size(),
             "TaskGraph: cancel of unknown task");
    addStep(actor, {Step::Kind::Cancel, child, kInvalidId, 0});
}

trace::Task
TaskGraph::actorTask(TaskRef actor) const
{
    return actor == kMain ? trace::Task::thread(mainThread_)
                          : trace::Task::event(nodes_[actor].event);
}

void
TaskGraph::schedule(TaskRef actor, std::uint64_t time)
{
    sched_.push({time, seq_++, actor});
}

void
TaskGraph::releaseExecutor(TaskRef actor, std::uint64_t now)
{
    (void)now;
    trace::ThreadId exec = executorOf_[actor];
    acAssert(exec != kInvalidId,
             "TaskGraph: releasing an executor the task does not hold");
    executorOf_[actor] = kInvalidId;
    freeExecutors_.push_back(exec);
}

void
TaskGraph::noteReadyDepth()
{
    if (ready_.size() > readyPeak_)
        readyPeak_ = ready_.size();
}

void
TaskGraph::obsSync()
{
    if (!obsParked_)
        return;
    obsParked_->set(parkedNow_);
    obsExecFree_->set(
        static_cast<std::int64_t>(freeExecutors_.size()));
    obsReadyPeak_->set(static_cast<std::int64_t>(readyPeak_));
}

void
TaskGraph::parkOnChild(TaskRef actor, TaskRef child)
{
    Body &b = body(actor);
    b.phase = Phase::AwaitParked;
    b.awaitedChild = child;
    nodes_[child].waiters.push_back(actor);
    ++parkedNow_;
}

void
TaskGraph::settle(TaskRef actor, std::uint64_t now)
{
    Body &b = nodes_[actor];
    b.phase = Phase::Settled;
    if (obsSettled_)
        obsSettled_->inc();

    Body &parent = body(b.parent);
    acAssert(parent.openChildren > 0,
             "TaskGraph: scope bookkeeping underflow");
    if (--parent.openChildren == 0 &&
        parent.phase == Phase::ScopeParked) {
        if (b.parent == kMain)
            schedule(kMain, now);
        else
            ready_.push_back({b.parent, Resume::CloseScope, kMain});
    }

    for (TaskRef w : b.waiters) {
        if (w == kMain)
            schedule(kMain, now);
        else
            ready_.push_back({w, Resume::AfterAwait, actor});
    }
    b.waiters.clear();
    noteReadyDepth();
}

void
TaskGraph::closeOut(TaskRef actor, std::uint64_t now)
{
    Body &b = body(actor);
    if (b.scope != kInvalidId)
        tr_->scopeEnd(actorTask(actor), b.scope, now);
    if (actor == kMain) {
        tr_->threadEnd(mainThread_, now);
        b.phase = Phase::Settled;
    } else {
        tr_->eventEnd(b.event, now);
        releaseExecutor(actor, now);
        settle(actor, now);
    }
    endTime_ = std::max(endTime_, now);
    tryDispatch(now);
}

void
TaskGraph::finishBody(TaskRef actor, std::uint64_t now)
{
    Body &b = body(actor);
    if (b.openChildren > 0) {
        // Structured concurrency: the body implicitly waits for its
        // unsettled children before the scope can close.
        b.phase = Phase::ScopeParked;
        ++parkedNow_;
        if (actor != kMain) {
            releaseExecutor(actor, now);
            tryDispatch(now);
        }
        return;
    }
    closeOut(actor, now);
}

void
TaskGraph::tryDispatch(std::uint64_t now)
{
    while (!ready_.empty() && !freeExecutors_.empty()) {
        ReadyEntry e = ready_.front();
        ready_.pop_front();
        Body &b = nodes_[e.task];
        if (e.resume == Resume::Start && b.phase != Phase::Pending)
            continue;  // cancelled before an executor freed up
        trace::ThreadId exec = freeExecutors_.front();
        freeExecutors_.pop_front();
        executorOf_[e.task] = exec;
        switch (e.resume) {
          case Resume::Start:
            tr_->eventBegin(b.event, exec, now);
            b.phase = Phase::Running;
            schedule(e.task, now + cfg_.stepCostMs);
            break;
          case Resume::AfterAwait:
            tr_->taskAwait(trace::Task::event(b.event),
                           nodes_[e.child].event, now);
            b.phase = Phase::Running;
            --parkedNow_;
            ++b.pc;
            schedule(e.task, now + cfg_.stepCostMs);
            break;
          case Resume::CloseScope:
            --parkedNow_;
            closeOut(e.task, now);
            break;
        }
    }
}

void
TaskGraph::stepActor(TaskRef actor, std::uint64_t now)
{
    Body &b = body(actor);
    endTime_ = std::max(endTime_, now);

    // Main parks without an executor, so its continuations arrive
    // here (tasks resume through the ready queue / tryDispatch).
    if (b.phase == Phase::AwaitParked) {
        tr_->taskAwait(actorTask(actor),
                       nodes_[b.awaitedChild].event, now);
        b.phase = Phase::Running;
        --parkedNow_;
        ++b.pc;
        schedule(actor, now + cfg_.stepCostMs);
        return;
    }
    if (b.phase == Phase::ScopeParked) {
        --parkedNow_;
        closeOut(actor, now);
        return;
    }
    acAssert(b.phase == Phase::Running,
             "TaskGraph: scheduled actor is not running");

    if (b.pc >= b.steps.size()) {
        finishBody(actor, now);
        return;
    }

    const Step &st = b.steps[b.pc];
    switch (st.kind) {
      case Step::Kind::Read:
        tr_->read(actorTask(actor), st.a, st.b, now);
        ++b.pc;
        schedule(actor, now + cfg_.stepCostMs);
        break;
      case Step::Kind::Write:
        tr_->write(actorTask(actor), st.a, st.b, now);
        ++b.pc;
        schedule(actor, now + cfg_.stepCostMs);
        break;
      case Step::Kind::Sleep:
        ++b.pc;
        schedule(actor, now + st.ms);
        break;
      case Step::Kind::Spawn:
        {
            Body &c = nodes_[st.a];
            if (c.phase != Phase::Unspawned)
                panic(strf("TaskGraph: task '%s' spawned twice",
                           c.name.c_str()));
            tr_->taskSpawn(actorTask(actor), c.event, b.scope, now);
            c.phase = Phase::Pending;
            c.parent = actor;
            ++b.openChildren;
            if (obsSpawned_)
                obsSpawned_->inc();
            ready_.push_back({st.a, Resume::Start, kMain});
            noteReadyDepth();
            ++b.pc;
            schedule(actor, now + cfg_.stepCostMs);
            tryDispatch(now);
        }
        break;
      case Step::Kind::Await:
        {
            Body &c = nodes_[st.a];
            if (c.phase == Phase::Unspawned)
                panic(strf("TaskGraph: await of unspawned task '%s'",
                           c.name.c_str()));
            if (c.phase == Phase::Settled) {
                tr_->taskAwait(actorTask(actor), c.event, now);
                ++b.pc;
                schedule(actor, now + cfg_.stepCostMs);
            } else {
                parkOnChild(actor, st.a);
                if (actor != kMain) {
                    releaseExecutor(actor, now);
                    tryDispatch(now);
                }
            }
        }
        break;
      case Step::Kind::Cancel:
        {
            Body &c = nodes_[st.a];
            if (c.phase == Phase::Unspawned)
                panic(strf("TaskGraph: cancel of unspawned task '%s'",
                           c.name.c_str()));
            if (c.phase == Phase::Pending) {
                tr_->taskCancel(actorTask(actor), c.event, now);
                ++cancelled_;
                if (obsCancelled_)
                    obsCancelled_->inc();
                settle(st.a, now);
            }
            // Started or settled: cooperative cancellation no-op.
            ++b.pc;
            schedule(actor, now + cfg_.stepCostMs);
        }
        break;
    }
}

trace::Trace
TaskGraph::run(TaskGraphRunInfo *info)
{
    acAssert(!ran_, "TaskGraph: run() called twice");
    ran_ = true;

    if (cfg_.obs.metrics) {
        obs::MetricsRegistry &reg = *cfg_.obs.metrics;
        obsSpawned_ = &reg.counter("taskgraph.tasks_spawned");
        obsSettled_ = &reg.counter("taskgraph.tasks_settled");
        obsCancelled_ = &reg.counter("taskgraph.tasks_cancelled");
        obsParked_ = &reg.gauge("taskgraph.parked");
        obsExecFree_ = &reg.gauge("taskgraph.executors_free");
        obsReadyPeak_ = &reg.gauge("taskgraph.ready_peak");
    }

    trace::Trace tr;
    tr.setDialect(trace::Dialect::Async);
    tr_ = &tr;

    mainThread_ = tr.declThread(trace::ThreadKind::Worker, "main");
    executorThreads_.clear();
    for (std::uint32_t i = 0; i < cfg_.executors; ++i) {
        executorThreads_.push_back(
            tr.declThread(trace::ThreadKind::Worker, strf("exec%u", i)));
        freeExecutors_.push_back(executorThreads_.back());
    }
    for (auto &spec : varSpecs_)
        tr.declVar(spec.name, spec.label);
    for (auto &spec : siteSpecs_)
        tr.declSite(spec.name, spec.frame, spec.commGroup);
    for (auto &node : nodes_)
        node.event = tr.declEvent();
    if (main_.spawns)
        main_.scope = tr.declHandle("main.scope");
    for (auto &node : nodes_) {
        if (node.spawns)
            node.scope = tr.declHandle(node.name + ".scope");
    }
    executorOf_.assign(nodes_.size(), kInvalidId);

    tr.threadBegin(mainThread_, 0);
    for (trace::ThreadId t : executorThreads_)
        tr.threadBegin(t, 0);

    main_.phase = Phase::Running;
    schedule(kMain, 0);

    while (!sched_.empty()) {
        SchedEntry e = sched_.top();
        sched_.pop();
        stepActor(e.actor, e.time);
        obsSync();
    }

    if (main_.phase != Phase::Settled)
        panic("TaskGraph: deadlock — main never finished "
              "(cyclic await?)");
    for (const Body &node : nodes_) {
        if (node.phase != Phase::Unspawned &&
            node.phase != Phase::Settled) {
            panic(strf("TaskGraph: task '%s' never settled",
                       node.name.c_str()));
        }
    }

    for (trace::ThreadId t : executorThreads_)
        tr.threadEnd(t, endTime_);

    if (info) {
        info->endTimeMs = endTime_;
        info->cancelled = cancelled_;
    }
    tr_ = nullptr;
    return tr;
}

} // namespace asyncclock::runtime

/**
 * @file
 * Unit tests for the trace model: priority function (Table 1), trace
 * building, validation, statistics, and serialization round-trips.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace asyncclock::trace {
namespace {

SendAttrs
attrs(SendKind kind, bool async, std::uint64_t time = 0)
{
    return SendAttrs{kind, async, time};
}

// ---------------------------------------------------------------
// Table 1: the priority function, cell by cell.
// ---------------------------------------------------------------

TEST(Priority, DelayedAsyncRow)
{
    auto da1 = attrs(SendKind::Delayed, true, 10);
    EXPECT_TRUE(priorityOrders(da1, attrs(SendKind::Delayed, true, 10)));
    EXPECT_TRUE(priorityOrders(da1, attrs(SendKind::Delayed, true, 11)));
    EXPECT_FALSE(priorityOrders(da1, attrs(SendKind::Delayed, true, 9)));
    EXPECT_TRUE(priorityOrders(da1, attrs(SendKind::Delayed, false, 10)));
    EXPECT_FALSE(priorityOrders(da1, attrs(SendKind::AtTime, true, 99)));
    EXPECT_FALSE(priorityOrders(da1, attrs(SendKind::AtTime, false, 99)));
    EXPECT_FALSE(priorityOrders(da1, attrs(SendKind::AtFront, true)));
    EXPECT_FALSE(priorityOrders(da1, attrs(SendKind::AtFront, false)));
}

TEST(Priority, DelayedSyncRow)
{
    auto ds = attrs(SendKind::Delayed, false, 10);
    // Sync never precedes Async.
    EXPECT_FALSE(priorityOrders(ds, attrs(SendKind::Delayed, true, 20)));
    EXPECT_TRUE(priorityOrders(ds, attrs(SendKind::Delayed, false, 10)));
    EXPECT_FALSE(priorityOrders(ds, attrs(SendKind::Delayed, false, 9)));
    EXPECT_FALSE(priorityOrders(ds, attrs(SendKind::AtTime, false, 99)));
    EXPECT_FALSE(priorityOrders(ds, attrs(SendKind::AtFront, false)));
}

TEST(Priority, AtTimeRows)
{
    auto ta = attrs(SendKind::AtTime, true, 5);
    auto ts = attrs(SendKind::AtTime, false, 5);
    EXPECT_TRUE(priorityOrders(ta, attrs(SendKind::AtTime, true, 6)));
    EXPECT_TRUE(priorityOrders(ta, attrs(SendKind::AtTime, false, 5)));
    EXPECT_FALSE(priorityOrders(ta, attrs(SendKind::Delayed, true, 6)));
    EXPECT_FALSE(priorityOrders(ts, attrs(SendKind::AtTime, true, 9)));
    EXPECT_TRUE(priorityOrders(ts, attrs(SendKind::AtTime, false, 9)));
    EXPECT_FALSE(priorityOrders(ts, attrs(SendKind::AtTime, false, 4)));
}

TEST(Priority, AtFrontRows)
{
    auto fa = attrs(SendKind::AtFront, true);
    auto fs = attrs(SendKind::AtFront, false);
    // AtFront+Async precedes every non-AtFront event.
    EXPECT_TRUE(priorityOrders(fa, attrs(SendKind::Delayed, true, 0)));
    EXPECT_TRUE(priorityOrders(fa, attrs(SendKind::Delayed, false, 0)));
    EXPECT_TRUE(priorityOrders(fa, attrs(SendKind::AtTime, true, 0)));
    EXPECT_TRUE(priorityOrders(fa, attrs(SendKind::AtTime, false, 0)));
    EXPECT_FALSE(priorityOrders(fa, fa));
    EXPECT_FALSE(priorityOrders(fa, fs));
    // AtFront+Sync precedes only Sync events.
    EXPECT_FALSE(priorityOrders(fs, attrs(SendKind::Delayed, true, 0)));
    EXPECT_TRUE(priorityOrders(fs, attrs(SendKind::Delayed, false, 0)));
    EXPECT_FALSE(priorityOrders(fs, attrs(SendKind::AtTime, true, 0)));
    EXPECT_TRUE(priorityOrders(fs, attrs(SendKind::AtTime, false, 0)));
    EXPECT_FALSE(priorityOrders(fs, fa));
    EXPECT_FALSE(priorityOrders(fs, fs));
}

TEST(Priority, ClassIndexCoversAllSix)
{
    EXPECT_EQ(priorityClass(attrs(SendKind::Delayed, true)), 0u);
    EXPECT_EQ(priorityClass(attrs(SendKind::Delayed, false)), 1u);
    EXPECT_EQ(priorityClass(attrs(SendKind::AtTime, true)), 2u);
    EXPECT_EQ(priorityClass(attrs(SendKind::AtTime, false)), 3u);
    EXPECT_EQ(priorityClass(attrs(SendKind::AtFront, true)), 4u);
    EXPECT_EQ(priorityClass(attrs(SendKind::AtFront, false)), 5u);
}

// ---------------------------------------------------------------
// Trace building and validation.
// ---------------------------------------------------------------

/** A minimal valid trace: a worker sends two FIFO events to a looper;
 * both run; the worker and looper exit. */
Trace
makeSmallTrace()
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    ThreadId worker = tr.declThread(ThreadKind::Worker, "w0");
    VarId x = tr.declVar("x");
    SiteId s = tr.declSite("App.java:1", Frame::User);
    EventId e1 = tr.declEvent();
    EventId e2 = tr.declEvent();

    std::uint64_t t = 0;
    tr.threadBegin(looper, t++);
    tr.threadBegin(worker, t++);
    tr.send(Task::thread(worker), q, e1, SendAttrs{}, t++);
    tr.write(Task::thread(worker), x, s, t++);
    tr.send(Task::thread(worker), q, e2, SendAttrs{}, t++);
    tr.eventBegin(e1, looper, t++);
    tr.read(Task::event(e1), x, s, t++);
    tr.eventEnd(e1, t++);
    tr.eventBegin(e2, looper, t++);
    tr.eventEnd(e2, t++);
    tr.threadEnd(worker, t++);
    tr.threadEnd(looper, t++);
    return tr;
}

TEST(Trace, SmallTraceValidates)
{
    Trace tr = makeSmallTrace();
    EXPECT_EQ(tr.validate(), "");
}

TEST(Trace, CrossLinksFilled)
{
    Trace tr = makeSmallTrace();
    const EventInfo &e1 = tr.event(0);
    EXPECT_EQ(e1.queue, 0u);
    EXPECT_EQ(e1.sender, Task::thread(1));
    EXPECT_EQ(e1.executor, 0u);
    EXPECT_EQ(tr.op(e1.sendOp).kind, OpKind::Send);
    EXPECT_EQ(tr.op(e1.beginOp).kind, OpKind::EventBegin);
    EXPECT_EQ(tr.op(e1.endOp).kind, OpKind::EventEnd);
    EXPECT_EQ(e1.removeOp, kInvalidId);
    EXPECT_EQ(tr.looperOf(0), 0u);
}

TEST(Trace, StatsCountsKinds)
{
    Trace tr = makeSmallTrace();
    TraceStats s = tr.stats();
    EXPECT_EQ(s.ops, 12u);
    EXPECT_EQ(s.syncOps, 2u);
    EXPECT_EQ(s.memOps, 2u);
    EXPECT_EQ(s.looperThreads, 1u);
    EXPECT_EQ(s.workerThreads, 1u);
    EXPECT_EQ(s.looperEvents, 2u);
    EXPECT_EQ(s.binderEvents, 0u);
}

TEST(TraceValidate, RejectsOpsOutsideLifetime)
{
    Trace tr;
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    VarId x = tr.declVar("x");
    tr.read(Task::thread(w), x, kInvalidId, 0);  // before begin
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RejectsUnsentEventBegin)
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    EventId e = tr.declEvent();
    tr.threadBegin(looper, 0);
    tr.eventBegin(e, looper, 1);
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RejectsOverlappingLooperEvents)
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    EventId e1 = tr.declEvent(), e2 = tr.declEvent();
    tr.threadBegin(looper, 0);
    tr.threadBegin(w, 0);
    tr.send(Task::thread(w), q, e1, SendAttrs{}, 1);
    tr.send(Task::thread(w), q, e2, SendAttrs{}, 2);
    tr.eventBegin(e1, looper, 3);
    tr.eventBegin(e2, looper, 4);  // e1 still running
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RejectsWaitWithoutSignal)
{
    Trace tr;
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    HandleId h = tr.declHandle("m");
    tr.threadBegin(w, 0);
    tr.wait(Task::thread(w), h, 1);
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RejectsJoinBeforeChildEnd)
{
    Trace tr;
    ThreadId a = tr.declThread(ThreadKind::Worker, "a");
    ThreadId b = tr.declThread(ThreadKind::Worker, "b");
    tr.threadBegin(a, 0);
    tr.fork(Task::thread(a), b, 1);
    tr.threadBegin(b, 2);
    tr.join(Task::thread(a), b, 3);  // b has not ended
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RejectsPriorityInversion)
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    EventId e1 = tr.declEvent(), e2 = tr.declEvent();
    tr.threadBegin(looper, 0);
    tr.threadBegin(w, 0);
    // Two plain FIFO events dispatched in reverse order.
    tr.send(Task::thread(w), q, e1, SendAttrs{}, 1);
    tr.send(Task::thread(w), q, e2, SendAttrs{}, 2);
    tr.eventBegin(e2, looper, 3);
    tr.eventEnd(e2, 4);
    tr.eventBegin(e1, looper, 5);
    tr.eventEnd(e1, 6);
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RejectsDecreasingVtime)
{
    Trace tr;
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    tr.threadBegin(w, 10);
    tr.threadEnd(w, 5);
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, RemovedEventMustNotRun)
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    EventId e = tr.declEvent();
    tr.threadBegin(looper, 0);
    tr.threadBegin(w, 0);
    tr.send(Task::thread(w), q, e, SendAttrs{}, 1);
    tr.removeEvent(Task::thread(w), e, 2);
    tr.eventBegin(e, looper, 3);
    EXPECT_NE(tr.validate(), "");
}

TEST(TraceValidate, AcceptsRemovedEvent)
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    EventId e = tr.declEvent();
    tr.threadBegin(looper, 0);
    tr.threadBegin(w, 0);
    tr.send(Task::thread(w), q, e, SendAttrs{}, 1);
    tr.removeEvent(Task::thread(w), e, 2);
    tr.threadEnd(w, 3);
    tr.threadEnd(looper, 4);
    EXPECT_EQ(tr.validate(), "");
    EXPECT_EQ(tr.stats().removedEvents, 1u);
}

// ---------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------

TEST(TraceIo, RoundTripPreservesEverything)
{
    Trace tr = makeSmallTrace();
    std::string text = writeTraceToString(tr);
    Trace back;
    std::string error;
    ASSERT_TRUE(readTraceFromString(text, back, error)) << error;
    EXPECT_EQ(back.validate(), "");
    EXPECT_EQ(writeTraceToString(back), text);
    EXPECT_EQ(back.numOps(), tr.numOps());
    EXPECT_EQ(back.threads().size(), tr.threads().size());
    EXPECT_EQ(back.events().size(), tr.events().size());
}

TEST(TraceIo, RoundTripSendAttrs)
{
    Trace tr;
    QueueId q = tr.declQueue(QueueKind::Looper, "main");
    ThreadId looper = tr.declThread(ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    ThreadId w = tr.declThread(ThreadKind::Worker, "w");
    EventId e1 = tr.declEvent(), e2 = tr.declEvent(), e3 = tr.declEvent();
    tr.threadBegin(looper, 0);
    tr.threadBegin(w, 0);
    tr.send(Task::thread(w), q, e1,
            SendAttrs{SendKind::Delayed, true, 123}, 1);
    tr.send(Task::thread(w), q, e2,
            SendAttrs{SendKind::AtTime, false, 456}, 2);
    tr.send(Task::thread(w), q, e3,
            SendAttrs{SendKind::AtFront, true, 0}, 3);

    std::string text = writeTraceToString(tr);
    Trace back;
    std::string error;
    ASSERT_TRUE(readTraceFromString(text, back, error)) << error;
    EXPECT_EQ(back.event(0).attrs,
              (SendAttrs{SendKind::Delayed, true, 123}));
    EXPECT_EQ(back.event(1).attrs,
              (SendAttrs{SendKind::AtTime, false, 456}));
    EXPECT_EQ(back.event(2).attrs,
              (SendAttrs{SendKind::AtFront, true, 0}));
}

TEST(TraceIo, RejectsGarbage)
{
    Trace tr;
    std::string error;
    EXPECT_FALSE(readTraceFromString("not a trace", tr, error));
    EXPECT_FALSE(readTraceFromString(
        "asyncclock-trace v1\nbogus line here\n", tr, error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceIo, SeedLabelsSurvive)
{
    Trace tr;
    tr.declVar("racy", SeedLabel::Harmful);
    tr.declVar("benign", SeedLabel::HarmlessTypeII);
    std::string text = writeTraceToString(tr);
    Trace back;
    std::string error;
    ASSERT_TRUE(readTraceFromString(text, back, error)) << error;
    EXPECT_EQ(back.var(0).seedLabel, SeedLabel::Harmful);
    EXPECT_EQ(back.var(1).seedLabel, SeedLabel::HarmlessTypeII);
}

TEST(Task, Packing)
{
    Task t = Task::thread(5);
    Task e = Task::event(5);
    EXPECT_FALSE(t.isEvent());
    EXPECT_TRUE(e.isEvent());
    EXPECT_EQ(t.index(), 5u);
    EXPECT_EQ(e.index(), 5u);
    EXPECT_NE(t.raw(), e.raw());
    EXPECT_EQ(t, Task::thread(5));
}

} // namespace
} // namespace asyncclock::trace

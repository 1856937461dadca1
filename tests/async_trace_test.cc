/**
 * @file
 * Async-dialect trace tests: the new record kinds (TaskSpawn,
 * TaskAwait, ScopeEnd, TaskCancel) must round-trip through both
 * serialization formats, damaged async files must be rejected with a
 * diagnostic instead of mis-parsed, and the async protocol validator
 * must catch each rule it claims to enforce.
 */

#include <gtest/gtest.h>

#include "runtime/taskgraph.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace asyncclock::trace {
namespace {

/** Hand-built minimal async trace: main spawns one task into a
 * scope, the task runs on an executor, main awaits it and closes the
 * scope. Exercises every async record kind except TaskCancel. */
Trace
tinyAsync()
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    HandleId scope = tr.declHandle("main.scope");
    VarId v = tr.declVar("v");
    SiteId s = tr.declSite("site", Frame::User);
    Task m = Task::thread(main);
    Task body = Task::event(t);
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.write(m, v, s, 1);
    tr.taskSpawn(m, t, scope, 2);
    tr.eventBegin(t, exec, 3);
    tr.read(body, v, s, 4);
    tr.eventEnd(t, 5);
    tr.taskAwait(m, t, 6);
    tr.scopeEnd(m, scope, 7);
    tr.threadEnd(main, 8);
    tr.threadEnd(exec, 8);
    return tr;
}

/** Same shape plus a second task that is cancelled before it runs. */
Trace
tinyAsyncWithCancel()
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    EventId doomed = tr.declEvent();
    HandleId scope = tr.declHandle("main.scope");
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.taskSpawn(m, t, scope, 1);
    tr.taskSpawn(m, doomed, scope, 2);
    tr.taskCancel(m, doomed, 3);
    tr.eventBegin(t, exec, 4);
    tr.eventEnd(t, 5);
    tr.taskAwait(m, t, 6);
    tr.scopeEnd(m, scope, 7);
    tr.threadEnd(main, 8);
    tr.threadEnd(exec, 8);
    return tr;
}

void
expectSameOps(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.numOps(), b.numOps());
    EXPECT_EQ(a.dialect(), b.dialect());
    for (OpId i = 0; i < a.numOps(); ++i) {
        const Operation &x = a.op(i);
        const Operation &y = b.op(i);
        EXPECT_EQ(x.kind, y.kind) << "op " << i;
        EXPECT_EQ(x.task.raw(), y.task.raw()) << "op " << i;
        EXPECT_EQ(x.target, y.target) << "op " << i;
        EXPECT_EQ(x.event, y.event) << "op " << i;
        EXPECT_EQ(x.site, y.site) << "op " << i;
        EXPECT_EQ(x.vtime, y.vtime) << "op " << i;
    }
}

// ---------------------------------------------------------------
// Round-trips.
// ---------------------------------------------------------------

TEST(AsyncDialect, TextRoundTripsEveryRecordKind)
{
    Trace tr = tinyAsyncWithCancel();
    ASSERT_EQ(tr.validate(true), "");
    std::string text = writeTraceToString(tr);
    EXPECT_EQ(text.rfind("asyncclock-trace v2 async", 0), 0u)
        << "async traces must carry the dialect in the header";
    Trace back;
    std::string err;
    ASSERT_TRUE(readTraceFromString(text, back, err)) << err;
    expectSameOps(tr, back);
    EXPECT_EQ(back.validate(true), "");
}

TEST(AsyncDialect, BinaryRoundTripsEveryRecordKind)
{
    Trace tr = tinyAsyncWithCancel();
    std::string blob = writeBinaryTraceToString(tr);
    Trace back;
    std::string err;
    ASSERT_TRUE(readBinaryTraceFromString(blob, back, err)) << err;
    expectSameOps(tr, back);
    EXPECT_EQ(back.validate(true), "");
}

TEST(AsyncDialect, GeneratorOutputRoundTripsBothFormats)
{
    runtime::TaskGraph tg({1, 2});
    VarId v = tg.var("shared");
    SiteId s = tg.site("w", Frame::User);
    auto t1 = tg.task("t1");
    auto t2 = tg.task("t2");
    tg.write(runtime::TaskGraph::kMain, v, s);
    tg.spawn(runtime::TaskGraph::kMain, t1);
    tg.spawn(runtime::TaskGraph::kMain, t2);
    tg.read(t1, v, s);
    tg.read(t2, v, s);
    tg.await(runtime::TaskGraph::kMain, t1);
    Trace tr = tg.run();
    ASSERT_EQ(tr.validate(true), "");

    std::string err;
    Trace t;
    ASSERT_TRUE(readTraceFromString(writeTraceToString(tr), t, err))
        << err;
    expectSameOps(tr, t);
    Trace b;
    ASSERT_TRUE(
        readBinaryTraceFromString(writeBinaryTraceToString(tr), b,
                                  err))
        << err;
    expectSameOps(tr, b);
}

// ---------------------------------------------------------------
// Damage rejection: truncation and corruption must produce a
// diagnostic, never a silently different trace.
// ---------------------------------------------------------------

TEST(AsyncDialect, BinaryTruncationAlwaysRejected)
{
    std::string blob = writeBinaryTraceToString(tinyAsyncWithCancel());
    // Every proper prefix is missing at least the end marker.
    for (std::size_t n = 0; n < blob.size(); ++n) {
        Trace back;
        std::string err;
        EXPECT_FALSE(readBinaryTraceFromString(blob.substr(0, n),
                                               back, err))
            << "prefix of " << n << " bytes parsed";
        EXPECT_FALSE(err.empty());
    }
}

TEST(AsyncDialect, AsyncRecordsRejectedInLooperVersionFile)
{
    // Flip the version byte (right after the 4-byte magic) back to 1:
    // the async record tags are not words of the v1 looper format.
    std::string blob = writeBinaryTraceToString(tinyAsyncWithCancel());
    ASSERT_GT(blob.size(), 5u);
    blob[4] = 1;
    Trace back;
    std::string err;
    EXPECT_FALSE(readBinaryTraceFromString(blob, back, err));
    EXPECT_FALSE(err.empty());
}

TEST(AsyncDialect, TextAsyncOpsRejectedUnderLooperHeader)
{
    Trace tr = tinyAsync();
    std::string text = writeTraceToString(tr);
    const std::string asyncHeader = "asyncclock-trace v2 async";
    ASSERT_EQ(text.rfind(asyncHeader, 0), 0u);
    // Demote the header to the looper dialect; the spawn/await lines
    // that follow must now fail to parse.
    std::string looperText =
        "asyncclock-trace v1" + text.substr(asyncHeader.size());
    Trace back;
    std::string err;
    EXPECT_FALSE(readTraceFromString(looperText, back, err));
    EXPECT_NE(err.find("unknown op kind"), std::string::npos) << err;
}

TEST(AsyncDialect, TextGarbageOpKindRejected)
{
    std::string text = writeTraceToString(tinyAsync());
    std::size_t pos = text.find("op spawn");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 8, "op sporn");
    Trace back;
    std::string err;
    EXPECT_FALSE(readTraceFromString(text, back, err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------
// Protocol validation: each async rule, violated on purpose.
// ---------------------------------------------------------------

TEST(AsyncProtocol, ValidTraceValidates)
{
    EXPECT_EQ(tinyAsync().validate(true), "");
    EXPECT_EQ(tinyAsyncWithCancel().validate(true), "");
}

TEST(AsyncProtocol, BeginWithoutSpawnRejected)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.eventBegin(t, exec, 1);
    tr.eventEnd(t, 2);
    tr.threadEnd(main, 3);
    tr.threadEnd(exec, 3);
    EXPECT_NE(tr.validate(true), "");
}

TEST(AsyncProtocol, AwaitBeforeSettleRejected)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.taskSpawn(m, t, kInvalidId, 1);
    tr.eventBegin(t, exec, 2);
    tr.taskAwait(m, t, 3);  // task is still running
    tr.eventEnd(t, 4);
    tr.threadEnd(main, 5);
    tr.threadEnd(exec, 5);
    EXPECT_NE(tr.validate(true), "");
}

TEST(AsyncProtocol, CancelOfRunningTaskRejected)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.taskSpawn(m, t, kInvalidId, 1);
    tr.eventBegin(t, exec, 2);
    tr.taskCancel(m, t, 3);  // too late: only NotStarted may cancel
    tr.eventEnd(t, 4);
    tr.threadEnd(main, 5);
    tr.threadEnd(exec, 5);
    EXPECT_NE(tr.validate(true), "");
}

TEST(AsyncProtocol, CancelledTaskMustNeverBegin)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.taskSpawn(m, t, kInvalidId, 1);
    tr.taskCancel(m, t, 2);
    tr.eventBegin(t, exec, 3);  // zombie
    tr.eventEnd(t, 4);
    tr.threadEnd(main, 5);
    tr.threadEnd(exec, 5);
    EXPECT_NE(tr.validate(true), "");
}

TEST(AsyncProtocol, DoubleSpawnRejected)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    EventId t = tr.declEvent();
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.taskSpawn(m, t, kInvalidId, 1);
    tr.taskSpawn(m, t, kInvalidId, 2);
    tr.threadEnd(main, 3);
    EXPECT_NE(tr.validate(true), "");
}

TEST(AsyncProtocol, ScopeEndWithOpenChildRejected)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    ThreadId exec = tr.declThread(ThreadKind::Worker, "exec");
    EventId t = tr.declEvent();
    HandleId scope = tr.declHandle("main.scope");
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.threadBegin(exec, 0);
    tr.taskSpawn(m, t, scope, 1);
    tr.scopeEnd(m, scope, 2);  // t has not settled
    tr.eventBegin(t, exec, 3);
    tr.eventEnd(t, 4);
    tr.threadEnd(main, 5);
    tr.threadEnd(exec, 5);
    EXPECT_NE(tr.validate(true), "");
}

TEST(AsyncProtocol, LooperOpsRejectedInAsyncTrace)
{
    Trace tr;
    tr.setDialect(Dialect::Async);
    QueueId q = tr.declQueue(QueueKind::Looper, "q");
    ThreadId main = tr.declThread(ThreadKind::Worker, "main");
    EventId t = tr.declEvent();
    Task m = Task::thread(main);
    tr.threadBegin(main, 0);
    tr.send(m, q, t, SendAttrs{}, 1);
    tr.threadEnd(main, 2);
    std::string problem = tr.validate(true);
    EXPECT_NE(problem.find("looper-dialect op in async trace"),
              std::string::npos)
        << problem;
}

TEST(AsyncProtocol, NonMonotonicVtimeRejected)
{
    Trace tr = tinyAsync();
    Trace bad;
    std::string err;
    // Rebuild with a vtime regression via text surgery: the simplest
    // way to mutate one op without rebuilding the whole trace.
    std::string text = writeTraceToString(tr);
    std::size_t pos = text.rfind("@8");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 2, "@1");
    ASSERT_TRUE(readTraceFromString(text, bad, err)) << err;
    EXPECT_NE(bad.validate(true), "");
}

} // namespace
} // namespace asyncclock::trace

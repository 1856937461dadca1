/**
 * @file
 * Edge-case tests across the pipeline: empty traces, events that
 * never get dispatched (stalled behind a barrier), empty event
 * bodies, multi-waiter handles, zero-variable traces, and detectors
 * driven op-by-op rather than via runAll.
 */

#include <gtest/gtest.h>

#include "core/detector.hh"
#include "gold/closure.hh"
#include "graph/eventracer.hh"
#include "report/checker.hh"
#include "report/races.hh"
#include "runtime/runtime.hh"
#include "trace/trace_io.hh"

namespace asyncclock {
namespace {

using runtime::PostOpts;
using runtime::Runtime;
using runtime::Script;
using trace::Trace;

core::DetectorConfig
exactConfig()
{
    core::DetectorConfig cfg;
    cfg.windowMs = 0;
    return cfg;
}

TEST(Edge, EmptyTrace)
{
    Trace tr;
    EXPECT_EQ(tr.validate(true), "");
    gold::Closure hb(tr);
    EXPECT_TRUE(hb.races().empty());
    report::ExactChecker c1, c2;
    core::AsyncClockDetector ac(tr, c1, exactConfig());
    ac.runAll();
    graph::EventRacerDetector er(tr, c2);
    er.runAll();
    EXPECT_EQ(ac.opsProcessed(), 0u);
    EXPECT_EQ(er.opsProcessed(), 0u);
    // Round-trips too.
    std::string text = trace::writeTraceToString(tr);
    Trace back;
    std::string err;
    ASSERT_TRUE(trace::readTraceFromString(text, back, err)) << err;
}

TEST(Edge, UndeliveredEventsBehindBarrier)
{
    // Sync events stalled behind a never-removed barrier are sent but
    // never begin; both detectors must cope (pending metadata simply
    // stays pending) and the trace round-trips.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    auto bar = rt.token();
    rt.spawnWorker("w", Script()
                            .write(x, s)
                            .postBarrier(q, bar)
                            .post(q, Script().read(x, s))
                            .post(q, Script().write(x, s)));
    Trace tr = rt.run();
    ASSERT_EQ(tr.validate(true), "");
    EXPECT_EQ(rt.lastRun().undelivered, 2u);

    gold::Closure hb(tr);
    report::ExactChecker c1, c2;
    core::AsyncClockDetector ac(tr, c1, exactConfig());
    ac.runAll();
    graph::EventRacerDetector er(tr, c2);
    er.runAll();
    // Undelivered events have no accesses: no races anywhere.
    EXPECT_TRUE(hb.races().empty());
    EXPECT_TRUE(c1.races().empty());
    EXPECT_TRUE(c2.races().empty());
    // The undelivered events' metadata is still live (pending).
    EXPECT_GE(ac.counters().eventsLive, 2u);
}

TEST(Edge, EmptyEventBodies)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    rt.spawnWorker("w", Script()
                            .post(q, Script())
                            .post(q, Script(), PostOpts::atFront())
                            .post(q, Script(), PostOpts::delayed(5)));
    Trace tr = rt.run();
    ASSERT_EQ(tr.validate(true), "");
    report::ExactChecker c;
    core::AsyncClockDetector ac(tr, c, exactConfig());
    ac.runAll();
    EXPECT_TRUE(c.races().empty());
}

TEST(Edge, ManyWaitersOneSignal)
{
    Runtime rt;
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    auto h = rt.handle("broadcast");
    rt.spawnWorker("writer", Script().write(x, s).signal(h));
    for (int i = 0; i < 5; ++i) {
        rt.spawnWorker("reader" + std::to_string(i),
                       Script().await(h).read(x, s));
    }
    Trace tr = rt.run();
    ASSERT_EQ(tr.validate(true), "");
    gold::Closure hb(tr);
    EXPECT_TRUE(hb.races().empty());
    report::ExactChecker c;
    core::AsyncClockDetector ac(tr, c, exactConfig());
    ac.runAll();
    EXPECT_TRUE(c.races().empty());
}

TEST(Edge, StepwiseDrivingMatchesRunAll)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w1", Script().post(q, Script().write(x, s)));
    rt.spawnWorker("w2", Script().post(q, Script().write(x, s)));
    Trace tr = rt.run();

    report::ExactChecker c1, c2;
    core::AsyncClockDetector a(tr, c1, exactConfig());
    a.runAll();
    core::AsyncClockDetector b(tr, c2, exactConfig());
    std::uint64_t steps = 0;
    while (b.processNext())
        ++steps;
    EXPECT_EQ(steps, tr.numOps());
    EXPECT_FALSE(b.processNext());  // idempotent at end
    EXPECT_EQ(c1.races().size(), c2.races().size());
}

TEST(Edge, ReportOnTraceWithoutSites)
{
    // Accesses can carry no site (kInvalidId); the analyzer must
    // treat them as non-user-induced rather than crash.
    Trace tr;
    auto q = tr.declQueue(trace::QueueKind::Looper, "main");
    auto looper = tr.declThread(trace::ThreadKind::Looper, "main", q);
    tr.bindLooper(q, looper);
    auto w = tr.declThread(trace::ThreadKind::Worker, "w");
    auto x = tr.declVar("x");
    tr.threadBegin(looper, 0);
    tr.threadBegin(w, 0);
    tr.write(trace::Task::thread(w), x, trace::kInvalidId, 1);
    tr.threadEnd(w, 2);
    tr.threadEnd(looper, 3);
    ASSERT_EQ(tr.validate(true), "");
    report::RaceAnalyzer analyzer(tr);
    EXPECT_FALSE(analyzer.userInduced(trace::kInvalidId));
    report::ReportSummary summary = analyzer.analyze({});
    EXPECT_EQ(summary.allGroups, 0u);
}

TEST(Edge, GcIntervalOneOpIsStable)
{
    // Degenerate config: GC after every op must not perturb results.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w1", Script().post(q, Script().write(x, s)));
    rt.spawnWorker("w2", Script().post(q, Script().write(x, s)));
    Trace tr = rt.run();

    report::ExactChecker c;
    core::DetectorConfig cfg = exactConfig();
    cfg.gcIntervalOps = 1;
    core::AsyncClockDetector det(tr, c, cfg);
    det.runAll();
    EXPECT_EQ(c.races().size(), 1u);
    EXPECT_EQ(det.counters().gcSweeps, tr.numOps());
}

TEST(Edge, WindowSmallerThanEveryGap)
{
    // A 1ms window ages everything instantly; analysis must still be
    // race-subset-correct and reclaim essentially all metadata.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w", Script()
                            .post(q, Script().write(x, s))
                            .sleep(100)
                            .post(q, Script().write(x, s)));
    Trace tr = rt.run();
    report::ExactChecker c;
    core::DetectorConfig cfg;
    cfg.windowMs = 1;
    cfg.gcIntervalOps = 4;
    core::AsyncClockDetector det(tr, c, cfg);
    det.runAll();
    EXPECT_TRUE(c.races().empty());  // ordered anyway (FIFO)
    EXPECT_GT(det.counters().invalidatedByWindow, 0u);
}

} // namespace
} // namespace asyncclock

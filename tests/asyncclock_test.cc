/**
 * @file
 * Tests for the AsyncClock detector.
 *
 * Correctness: with reclamation on but the time window off, the
 * detector must report exactly the gold oracle's race set — on every
 * causality feature and across a parameterized sweep of generated
 * apps (the paper's soundness claim in section 7.3: AsyncClock with
 * no window and EventRacer's graph algorithm find the same races).
 *
 * Scalability: reference counting and multi-path reduction must
 * actually reclaim events; the time window must bound live metadata
 * and chains; reclamation must never change the reported races.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/detector.hh"
#include "gold/closure.hh"
#include "graph/eventracer.hh"
#include "report/checker.hh"
#include "runtime/runtime.hh"
#include "workload/workload.hh"

namespace asyncclock::core {
namespace {

using runtime::PostOpts;
using runtime::Runtime;
using runtime::Script;
using trace::Trace;

using RaceSet = std::set<std::pair<trace::OpId, trace::OpId>>;

/** Detector config without the window (exact mode). */
DetectorConfig
exactConfig()
{
    DetectorConfig cfg;
    cfg.windowMs = 0;
    return cfg;
}

RaceSet
goldSet(const Trace &tr)
{
    gold::Closure hb(tr);
    RaceSet out;
    for (const auto &r : hb.races())
        out.insert({r.first, r.second});
    return out;
}

RaceSet
asyncClockSet(const Trace &tr, DetectorConfig cfg = exactConfig())
{
    report::ExactChecker checker;
    AsyncClockDetector det(tr, checker, cfg);
    det.runAll();
    RaceSet out;
    for (const auto &r : checker.races())
        out.insert({r.prevOp, r.curOp});
    return out;
}

void
expectMatchesGold(const Trace &tr, DetectorConfig cfg = exactConfig())
{
    ASSERT_EQ(tr.validate(true), "");
    EXPECT_EQ(asyncClockSet(tr, cfg), goldSet(tr));
}

// ----------------------------------------------------------------
// Feature-by-feature correctness (window off).
// ----------------------------------------------------------------

TEST(AsyncClock, FifoOrderingNoRace)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w", Script()
                            .post(q, Script().write(x, s))
                            .post(q, Script().write(x, s)));
    expectMatchesGold(rt.run());
}

TEST(AsyncClock, UnorderedEventsRace)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w1", Script().post(q, Script().write(x, s)));
    rt.spawnWorker("w2", Script().post(q, Script().write(x, s)));
    Trace tr = rt.run();
    expectMatchesGold(tr);
    EXPECT_EQ(asyncClockSet(tr).size(), 1u);
}

TEST(AsyncClock, Figure5Shape)
{
    // Two workers synchronized by a handle; events A, B, D, C, E as
    // in Fig 5: D must inherit both A and B; E only C.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto a = rt.var("a"), b = rt.var("b"), c = rt.var("c");
    auto s = rt.site("s", trace::Frame::User);
    auto m = rt.handle("m");
    // Fig 5: T2 sends B then signals m; T1 waits on m between sending
    // A and D, so the AsyncClock at send(D) holds both A and B; the
    // AsyncClock at send(E) holds only C.
    rt.spawnWorker("t1", Script()
                             .post(q, Script().write(a, s))  // A
                             .await(m)
                             .post(q, Script()
                                          .read(a, s)
                                          .read(b, s)));     // D
    rt.spawnWorker("t2", Script()
                             .post(q, Script().write(b, s))  // B
                             .signal(m)
                             .post(q, Script().write(c, s))  // C
                             .sleep(100)
                             .post(q, Script().read(c, s))); // E
    Trace tr = rt.run();
    expectMatchesGold(tr);
    EXPECT_TRUE(asyncClockSet(tr).empty());
}

TEST(AsyncClock, CrossQueueChains)
{
    Runtime rt;
    auto q1 = rt.addLooper("main");
    auto q2 = rt.addLooper("bg");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker(
        "w", Script()
                 .write(x, s)
                 .post(q1, Script().post(
                               q2, Script().post(
                                       q1, Script().read(x, s)))));
    expectMatchesGold(rt.run());
}

TEST(AsyncClock, ForkJoinSignalWait)
{
    Runtime rt;
    auto x = rt.var("x"), y = rt.var("y");
    auto s = rt.site("s", trace::Frame::User);
    auto h = rt.handle("m");
    auto tok = rt.token();
    rt.spawnWorker("a", Script()
                            .write(x, s)
                            .signal(h)
                            .fork(tok, "c", Script().write(y, s))
                            .join(tok)
                            .read(y, s));
    rt.spawnWorker("b", Script().await(h).read(x, s));
    expectMatchesGold(rt.run());
}

TEST(AsyncClock, PriorityTags)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x"), y = rt.var("y"), z = rt.var("z");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w",
                   Script()
                       .post(q, Script().write(x, s),
                             PostOpts::delayed(100))
                       .post(q, Script().write(x, s))  // races
                       .post(q, Script().write(y, s),
                             PostOpts::delayed(0, true))
                       .post(q, Script().write(y, s))  // ordered
                       .post(q, Script().write(z, s),
                             PostOpts::at(500))
                       .post(q, Script().write(z, s),
                             PostOpts::at(400)));  // races
    expectMatchesGold(rt.run());
}

TEST(AsyncClock, AtomicRule)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto before = rt.var("before"), after = rt.var("after");
    auto s = rt.site("s", trace::Frame::User);
    auto h = rt.handle("m");
    rt.spawnWorker("w1", Script().post(q, Script()
                                              .write(before, s)
                                              .signal(h)
                                              .write(after, s)));
    rt.spawnWorker("w2", Script().sleep(1).post(
                             q, Script()
                                    .read(before, s)
                                    .await(h)
                                    .read(after, s)));
    Trace tr = rt.run();
    expectMatchesGold(tr);
    EXPECT_EQ(asyncClockSet(tr).size(), 1u);  // only `before`
}

TEST(AsyncClock, AtFrontRule)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    auto h = rt.handle("h");
    rt.spawnWorker("w",
                   Script()
                       .post(q, Script().await(h))
                       .post(q, Script().read(x, s),
                             PostOpts::delayed(2000))
                       .post(q, Script().write(x, s),
                             PostOpts::atFront())
                       .signal(h));
    Trace tr = rt.run();
    expectMatchesGold(tr);
    EXPECT_TRUE(asyncClockSet(tr).empty());
}

TEST(AsyncClock, RemovedEvents)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    auto h = rt.handle("gate");
    auto tok = rt.token();
    rt.spawnWorker("w",
                   Script()
                       .write(x, s)
                       .post(q, Script().await(h))
                       .post(q, Script(), PostOpts{}, tok)
                       .remove(tok)
                       .post(q, Script().read(x, s))
                       .signal(h));
    expectMatchesGold(rt.run());
}

TEST(AsyncClock, BinderEvents)
{
    Runtime rt;
    auto q = rt.addBinderPool("ipc", 2);
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w",
                   Script()
                       .post(q, Script().sleep(50).write(x, s))
                       .post(q, Script().write(x, s)));
    Trace tr = rt.run();
    expectMatchesGold(tr);
    EXPECT_EQ(asyncClockSet(tr).size(), 1u);
}

TEST(AsyncClock, PatternsMatchGold)
{
    expectMatchesGold(workload::barcodePattern(25));
    expectMatchesGold(workload::pingPongPattern(6, 4));
    expectMatchesGold(workload::multiPathPattern(10));
}

// ----------------------------------------------------------------
// Configuration invariance: reclamation must not change results.
// ----------------------------------------------------------------

TEST(AsyncClock, ReclamationInvariant)
{
    workload::AppProfile p;
    p.seed = 33;
    p.looperEvents = 150;
    p.spanMs = 30000;
    auto app = workload::generateApp(p);
    RaceSet gold = goldSet(app.trace);

    for (bool reclaim : {false, true}) {
        for (bool multipath : {false, true}) {
            for (auto mode : {ChainMode::Greedy, ChainMode::Fifo}) {
                DetectorConfig cfg = exactConfig();
                cfg.reclaimHeirless = reclaim;
                cfg.multiPathReduction = multipath;
                cfg.chainMode = mode;
                EXPECT_EQ(asyncClockSet(app.trace, cfg), gold)
                    << "reclaim=" << reclaim << " mp=" << multipath
                    << " fifo=" << (mode == ChainMode::Fifo);
            }
        }
    }
}

// ----------------------------------------------------------------
// Scalability machinery.
// ----------------------------------------------------------------

TEST(AsyncClock, RefcountReclaimsFifoStreams)
{
    // A long FIFO stream: every event is displaced from the sender's
    // AsyncClock (and its list record dominance-dropped) by the next
    // send, so almost everything should be reclaimed by refcount.
    Runtime rt;
    auto q = rt.addLooper("main");
    Script w;
    for (int i = 0; i < 300; ++i)
        w.post(q, Script());
    rt.spawnWorker("w", std::move(w));
    Trace tr = rt.run();

    report::ExactChecker checker;
    DetectorConfig cfg = exactConfig();
    cfg.gcIntervalOps = 128;
    AsyncClockDetector det(tr, checker, cfg);
    det.runAll();
    EXPECT_EQ(det.counters().eventsSeen, 300u);
    // The vast majority reclaimed before the end of the pass.
    EXPECT_LT(det.counters().eventsLive, 20u);
    EXPECT_GT(det.counters().reclaimedRefcount, 250u);
}

TEST(AsyncClock, NoReclaimKeepsEverything)
{
    Runtime rt;
    auto q = rt.addLooper("main");
    Script w;
    for (int i = 0; i < 200; ++i)
        w.post(q, Script());
    rt.spawnWorker("w", std::move(w));
    Trace tr = rt.run();

    report::ExactChecker checker;
    DetectorConfig cfg = exactConfig();
    cfg.reclaimHeirless = false;
    cfg.multiPathReduction = false;
    AsyncClockDetector det(tr, checker, cfg);
    det.runAll();
    EXPECT_EQ(det.counters().eventsLive, 200u);
}

TEST(AsyncClock, MultiPathReductionFires)
{
    Trace tr = workload::multiPathPattern(40);
    report::ExactChecker c1, c2;

    DetectorConfig noMp = exactConfig();
    noMp.multiPathReduction = false;
    noMp.gcIntervalOps = 64;
    AsyncClockDetector d1(tr, c1, noMp);
    d1.runAll();

    DetectorConfig mp = exactConfig();
    mp.gcIntervalOps = 64;
    AsyncClockDetector d2(tr, c2, mp);
    d2.runAll();

    EXPECT_GT(d2.counters().reclaimedMultiPath, 20u);
    // Multi-path reduction strictly reduces live metadata on this
    // pattern (Fig 6b events are heirless but have refcount 1 > 0).
    EXPECT_LT(d2.counters().eventsLive, d1.counters().eventsLive);
}

TEST(AsyncClock, WindowBoundsMemoryOnPingPong)
{
    // Fig 6a shape: without a window, non-heirless events accumulate;
    // with a window, live metadata is bounded.
    Trace tr = workload::pingPongPattern(400, 3);

    report::ExactChecker c1;
    AsyncClockDetector noWindow(tr, c1, exactConfig());
    noWindow.runAll();

    report::ExactChecker c2;
    DetectorConfig win = exactConfig();
    win.windowMs = 200;  // tiny window for the test
    win.gcIntervalOps = 128;
    AsyncClockDetector windowed(tr, c2, win);
    windowed.runAll();

    EXPECT_GT(windowed.counters().invalidatedByWindow, 100u);
    EXPECT_LT(windowed.counters().eventsLive,
              noWindow.counters().eventsLive / 4);
}

TEST(AsyncClock, WindowRetiresAndReusesChains)
{
    // Many short-lived workers spread over time, each creating its
    // own level-1 FIFO chain. With a small window, old chains retire
    // and later workers' events reuse them, bounding the chain count.
    Runtime rt;
    auto q = rt.addLooper("main");
    for (int i = 0; i < 60; ++i) {
        rt.spawnWorker("w" + std::to_string(i),
                       Script().post(q, Script()).post(q, Script()),
                       static_cast<std::uint64_t>(i) * 1000);
    }
    Trace tr = rt.run();

    report::ExactChecker c1;
    AsyncClockDetector noWindow(tr, c1, exactConfig());
    noWindow.runAll();

    report::ExactChecker c2;
    DetectorConfig win = exactConfig();
    win.windowMs = 2000;
    win.gcIntervalOps = 64;
    AsyncClockDetector windowed(tr, c2, win);
    windowed.runAll();

    EXPECT_GT(windowed.counters().chainsReused, 10u);
    EXPECT_LT(windowed.numChains(), noWindow.numChains());
}

TEST(AsyncClock, WindowOnlyRemovesFarApartRaces)
{
    // Two racy pairs: one close in time, one far apart. A window
    // between the two gaps must keep the close race and may assume
    // order only for the far one.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto nearVar = rt.var("near"), farVar = rt.var("far");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("a1", Script().post(q, Script().write(nearVar, s)),
                   1000);
    rt.spawnWorker("a2", Script().post(q, Script().write(nearVar, s)),
                   1200);
    rt.spawnWorker("b1", Script().post(q, Script().write(farVar, s)),
                   1000);
    rt.spawnWorker("b2", Script().post(q, Script().write(farVar, s)),
                   60000);
    Trace tr = rt.run();
    ASSERT_EQ(tr.validate(true), "");
    ASSERT_EQ(goldSet(tr).size(), 2u);

    DetectorConfig win = exactConfig();
    win.windowMs = 10000;
    RaceSet withWindow = asyncClockSet(tr, win);
    ASSERT_EQ(withWindow.size(), 1u);
    // The surviving race is on `near`.
    EXPECT_EQ(tr.op(withWindow.begin()->first).target, nearVar);
}

TEST(AsyncClock, WalkPastAgedSendEntryWithLiveSendList)
{
    // At send(E2) the worker's AsyncClock entry for q names E1, which
    // the window ages out right after that send; the worker's send
    // list to q stays live (it holds E2's record). Resolving E2 walks
    // that list with the entry's event gone and must not touch its
    // metadata; the window clock still orders E2 after E1.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w", Script()
                            .post(q, Script().write(x, s))
                            .sleep(60000)
                            .post(q, Script().write(x, s)));
    Trace tr = rt.run();
    ASSERT_EQ(tr.validate(true), "");
    ASSERT_TRUE(goldSet(tr).empty());

    DetectorConfig win = exactConfig();
    win.windowMs = 1000;
    report::ExactChecker checker;
    AsyncClockDetector det(tr, checker, win);
    det.runAll();
    EXPECT_TRUE(det.runStatus().isOk());
    EXPECT_EQ(det.counters().invalidatedByWindow, 1u);
    EXPECT_TRUE(checker.races().empty());
}

TEST(AsyncClock, FifoChainDecompositionLevels)
{
    // Worker -> level-1 -> level-2 -> level-3 chains.
    Runtime rt;
    auto q = rt.addLooper("main");
    Script w;
    for (int i = 0; i < 20; ++i) {
        w.post(q, Script().post(
                      q, Script().post(q, Script())));  // 3 levels
    }
    rt.spawnWorker("w", std::move(w));
    Trace tr = rt.run();

    report::ExactChecker checker;
    AsyncClockDetector det(tr, checker, exactConfig());
    det.runAll();
    const auto &c = det.counters();
    EXPECT_EQ(c.fifoLevel[1], 20u);
    EXPECT_EQ(c.fifoLevel[2], 20u);
    EXPECT_EQ(c.fifoLevel[3], 20u);
    EXPECT_EQ(c.fifoLevel[0], 0u);
    // All sixty events fit in 3 chains + 2 thread chains.
    EXPECT_LE(det.numChains(), 6u);
}

TEST(AsyncClock, GreedyUsesMoreChainsThanFifo)
{
    Trace tr = workload::barcodePattern(60);
    report::ExactChecker c1, c2;
    DetectorConfig greedy = exactConfig();
    greedy.chainMode = ChainMode::Greedy;
    AsyncClockDetector d1(tr, c1, greedy);
    d1.runAll();
    AsyncClockDetector d2(tr, c2, exactConfig());
    d2.runAll();
    // FIFO decomposition finds chains by table lookup; the chain
    // count itself is comparable to greedy's (section 7.6 reports
    // modest 5-10% wins), so allow a small slack either way.
    EXPECT_LE(d2.numChains(), d1.numChains() + 3);
    EXPECT_GT(d2.counters().fifoLevel[1], 0u);
}

TEST(AsyncClock, EarlyStoppingLimitsWalks)
{
    // Long FIFO stream: each begin's walk must early-stop at the
    // previous FIFO send, keeping total walk steps linear.
    Runtime rt;
    auto q = rt.addLooper("main");
    Script w;
    for (int i = 0; i < 400; ++i)
        w.post(q, Script());
    rt.spawnWorker("w", std::move(w));
    Trace tr = rt.run();
    report::ExactChecker checker;
    AsyncClockDetector det(tr, checker, exactConfig());
    det.runAll();
    EXPECT_LT(det.counters().walkSteps, 1000u);
    EXPECT_GT(det.counters().walkEarlyStops, 300u);
}

TEST(AsyncClock, MemoryBytesSane)
{
    Trace tr = workload::pingPongPattern(50, 3);
    report::ExactChecker checker;
    AsyncClockDetector det(tr, checker, exactConfig());
    MemStats stats;
    det.runAll(&stats, 64);
    EXPECT_GT(det.metadataBytes(), 1000u);
    EXPECT_GT(stats.peakTotal(), 1000u);
    EXPECT_GT(stats.peak(MemCat::AsyncClock), 0u);
}

TEST(AsyncClock, DominanceDropKeepsNonAdjacentPredecessors)
{
    // Regression: worker posts X (fifo), V (delayed), signals h; a
    // second worker waits on h and posts E (fifo) *whose AsyncClock
    // entry for the first worker's chain is V*. The first worker then
    // posts W (fifo). W must NOT dominance-drop X's async-before
    // record (V sits between them): E's resolution walks below V and
    // still needs X — end(X) happens-before begin(E) by Rule FIFO.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    auto h = rt.handle("h");
    auto gate = rt.handle("gate");
    rt.spawnWorker("w1",
                   Script()
                       .post(q, Script().write(x, s))   // X = e0
                       .post(q, Script(), PostOpts::delayed(5000)) // V
                       .signal(h)
                       .post(q, Script())               // W = e2
                       .signal(gate));
    rt.spawnWorker("w2", Script()
                             .await(h)
                             .await(gate)  // ensure W sent first
                             .post(q, Script().read(x, s)));  // E
    Trace tr = rt.run();
    expectMatchesGold(tr);
    EXPECT_TRUE(asyncClockSet(tr).empty());  // X hb E via FIFO
}

TEST(AsyncClock, Case2EarlyStoppingOnAtTimeChains)
{
    // Increasing AtTime constraints from one chain: each resolution
    // stops at the previous decode (prefix-max), keeping total walk
    // steps linear — the paper's answer to the Fig 9b pattern.
    Trace tr = workload::barcodePattern(200);
    report::ExactChecker checker;
    AsyncClockDetector det(tr, checker, exactConfig());
    det.runAll();
    EXPECT_LT(det.counters().walkSteps, 2000u);
    EXPECT_GT(det.counters().walkEarlyStops, 150u);
    EXPECT_LE(det.numChains(), 10u);
}

// ----------------------------------------------------------------
// Triple cross-validation sweep on generated apps.
// ----------------------------------------------------------------

class AsyncClockSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AsyncClockSweep, MatchesGoldAndBaseline)
{
    workload::AppProfile p;
    p.seed = 100 + static_cast<std::uint64_t>(GetParam());
    p.looperEvents = 60 + (GetParam() % 7) * 20;
    p.binderEvents = 5 + (GetParam() % 3) * 5;
    p.spanMs = 15000 + (GetParam() % 4) * 10000;
    p.workers = 2 + (GetParam() % 4);
    p.loopers = 1 + (GetParam() % 3);
    auto app = workload::generateApp(p);
    ASSERT_EQ(app.trace.validate(true), "");

    RaceSet gold = goldSet(app.trace);
    EXPECT_EQ(asyncClockSet(app.trace), gold) << "vs gold";

    report::ExactChecker erChecker;
    graph::EventRacerDetector er(app.trace, erChecker);
    er.runAll();
    RaceSet erSet;
    for (const auto &r : erChecker.races())
        erSet.insert({r.prevOp, r.curOp});
    EXPECT_EQ(erSet, gold) << "baseline vs gold";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncClockSweep,
                         ::testing::Range(1, 26));

/** Chaos sweep: dense shared-state traces exercising every rule at
 * once (priority tags, barriers, at-front, removal, binder, fork/
 * join) must still triple-match, and windowed runs must stay subsets
 * of the exact race set. */
class ChaosSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ChaosSweep, TripleMatchAndWindowSubset)
{
    Trace tr = workload::chaosTrace(
        static_cast<std::uint64_t>(GetParam()),
        40 + (GetParam() % 4) * 15);
    ASSERT_EQ(tr.validate(true), "");

    RaceSet gold = goldSet(tr);
    EXPECT_EQ(asyncClockSet(tr), gold) << "AsyncClock vs gold";

    report::ExactChecker erChecker;
    graph::EventRacerDetector er(tr, erChecker);
    er.runAll();
    RaceSet erSet;
    for (const auto &r : erChecker.races())
        erSet.insert({r.prevOp, r.curOp});
    EXPECT_EQ(erSet, gold) << "baseline vs gold";

    // Window subset property under heavy sharing.
    DetectorConfig win = exactConfig();
    win.windowMs = 500;
    win.gcIntervalOps = 256;
    for (const auto &race : asyncClockSet(tr, win))
        EXPECT_TRUE(gold.count(race)) << "window invented a race";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range(1, 61));

} // namespace
} // namespace asyncclock::core

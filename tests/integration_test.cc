/**
 * @file
 * Cross-module integration tests: trace files round-trip through the
 * full pipeline, gold-oracle rule toggles behave as documented, both
 * detectors agree under the FastTrack checker on stress patterns, and
 * the full generate -> save -> load -> analyze -> report flow works
 * end to end (the trace_analyzer example's path).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "core/detector.hh"
#include "gold/closure.hh"
#include "graph/eventracer.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "runtime/runtime.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

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

TEST(Integration, FileRoundTripPreservesAnalysis)
{
    workload::AppProfile p;
    p.seed = 4242;
    p.looperEvents = 90;
    auto app = workload::generateApp(p);

    std::string path = ::testing::TempDir() + "/roundtrip.trace";
    trace::saveTraceFile(app.trace, path);
    Trace loaded = trace::tryLoadTrace(path).take();
    EXPECT_EQ(loaded.validate(true), "");

    auto analyze = [](const Trace &tr) {
        report::ExactChecker checker;
        core::AsyncClockDetector det(tr, checker, exactConfig());
        det.runAll();
        std::set<std::pair<trace::OpId, trace::OpId>> out;
        for (const auto &r : checker.races())
            out.insert({r.prevOp, r.curOp});
        return out;
    };
    EXPECT_EQ(analyze(app.trace), analyze(loaded));
    std::remove(path.c_str());
}

TEST(Integration, GoldRuleTogglesAreMonotone)
{
    // Disabling rules can only remove orderings, i.e. add races.
    workload::AppProfile p;
    p.seed = 777;
    p.looperEvents = 80;
    auto app = workload::generateApp(p);

    gold::GoldConfig full;
    std::size_t fullRaces = gold::Closure(app.trace, full).races().size();

    for (int toggle = 0; toggle < 4; ++toggle) {
        gold::GoldConfig cfg;
        switch (toggle) {
          case 0: cfg.atomicRule = false; break;
          case 1: cfg.priorityRule = false; break;
          case 2: cfg.atFrontRule = false; break;
          case 3: cfg.loopRules = false; break;
        }
        std::size_t races =
            gold::Closure(app.trace, cfg).races().size();
        EXPECT_GE(races, fullRaces) << "toggle " << toggle;
    }
    // Dropping PRIORITY (the FIFO rule) must strictly increase races
    // on a trace whose only ordering is FIFO.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    rt.spawnWorker("w", Script()
                            .post(q, Script().write(x, s))
                            .post(q, Script().write(x, s)));
    Trace fifoTrace = rt.run();
    gold::GoldConfig noPriority;
    noPriority.priorityRule = false;
    EXPECT_EQ(gold::Closure(fifoTrace).races().size(), 0u);
    EXPECT_EQ(gold::Closure(fifoTrace, noPriority).races().size(), 1u);
}

TEST(Integration, DetectorsAgreeUnderFastTrackOnPatterns)
{
    for (const Trace &tr :
         {workload::barcodePattern(40), workload::pingPongPattern(8, 4),
          workload::multiPathPattern(12)}) {
        report::FastTrackChecker acChecker, erChecker;
        core::AsyncClockDetector ac(tr, acChecker, exactConfig());
        ac.runAll();
        graph::EventRacerDetector er(tr, erChecker);
        er.runAll();
        std::set<trace::VarId> acVars, erVars;
        for (const auto &r : acChecker.races())
            acVars.insert(r.var);
        for (const auto &r : erChecker.races())
            erVars.insert(r.var);
        EXPECT_EQ(acVars, erVars);
        EXPECT_TRUE(acVars.empty());  // patterns are race-free
    }
}

TEST(Integration, EndToEndReportPipeline)
{
    workload::AppProfile p;
    p.seed = 31337;
    p.looperEvents = 150;
    p.binderEvents = 12;
    auto app = workload::generateApp(p);

    report::FastTrackChecker checker;
    core::AsyncClockDetector det(app.trace, checker, exactConfig());
    MemStats mem;
    det.runAll(&mem, 256);

    report::RaceAnalyzer analyzer(app.trace);
    auto summary = analyzer.analyze(checker.races());
    EXPECT_EQ(summary.harmful, app.truth.harmful);
    EXPECT_EQ(summary.typeI, app.truth.typeI);
    EXPECT_EQ(summary.typeII, app.truth.typeII);
    EXPECT_EQ(summary.filteredGroups, app.truth.commutative);
    EXPECT_GT(mem.peakTotal(), 0u);
    EXPECT_GT(det.counters().reclaimedRefcount, 0u);
    for (const auto &group : summary.reported)
        EXPECT_FALSE(analyzer.describe(group).empty());
}

TEST(Integration, WindowedRunIsSubsetOfExactOnApps)
{
    // The time window may only remove races, never invent them.
    for (std::uint64_t seed : {9001u, 9002u, 9003u}) {
        workload::AppProfile p;
        p.seed = seed;
        p.looperEvents = 140;
        p.spanMs = 120000;
        auto app = workload::generateApp(p);

        auto run = [&](std::uint64_t windowMs) {
            report::ExactChecker checker;
            core::DetectorConfig cfg;
            cfg.windowMs = windowMs;
            cfg.gcIntervalOps = 512;
            core::AsyncClockDetector det(app.trace, checker, cfg);
            det.runAll();
            std::set<std::pair<trace::OpId, trace::OpId>> out;
            for (const auto &r : checker.races())
                out.insert({r.prevOp, r.curOp});
            return out;
        };
        auto exact = run(0);
        for (std::uint64_t w : {5000u, 20000u, 60000u}) {
            auto windowed = run(w);
            for (const auto &race : windowed) {
                EXPECT_TRUE(exact.count(race))
                    << "window " << w << " invented a race (seed "
                    << seed << ")";
            }
        }
    }
}

TEST(Integration, EventRacerPruningOffStillAgrees)
{
    workload::AppProfile p;
    p.seed = 555;
    p.looperEvents = 90;
    auto app = workload::generateApp(p);
    report::ExactChecker a, b;
    graph::EventRacerConfig pruned, unpruned;
    unpruned.pruning = false;
    graph::EventRacerDetector d1(app.trace, a, pruned);
    d1.runAll();
    graph::EventRacerDetector d2(app.trace, b, unpruned);
    d2.runAll();
    EXPECT_EQ(a.races().size(), b.races().size());
    // Pruning must reduce (or equal) traversal work.
    EXPECT_LE(d1.counters().traversalVisits,
              d2.counters().traversalVisits);
}

TEST(Integration, LongFifoStreamStaysLinear)
{
    // End-to-end sanity on a 2000-event FIFO stream: bounded walks,
    // bounded live metadata, no races.
    Runtime rt;
    auto q = rt.addLooper("main");
    auto x = rt.var("x");
    auto s = rt.site("s", trace::Frame::User);
    Script w;
    for (int i = 0; i < 2000; ++i)
        w.post(q, Script().write(x, s).read(x, s));
    rt.spawnWorker("w", std::move(w));
    Trace tr = rt.run();

    report::FastTrackChecker checker;
    core::DetectorConfig cfg = exactConfig();
    cfg.gcIntervalOps = 1024;
    core::AsyncClockDetector det(tr, checker, cfg);
    det.runAll();
    EXPECT_TRUE(checker.races().empty());
    EXPECT_LT(det.counters().eventsLive, 30u);
    EXPECT_LT(det.counters().walkSteps, 5000u);
    EXPECT_LE(det.numChains(), 4u);
}

} // namespace
} // namespace asyncclock

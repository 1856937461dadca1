/**
 * @file
 * The predictive race tier (src/predict/, DESIGN.md section 16):
 * the weakened gold closure, the ShbEngine's linear mirror of it,
 * the seeded HB-hidden-race patterns (prediction finds them, replay
 * confirms them, combined recall strictly beats observed recall), the
 * FIFO-forced soundness negative, candidate bounding with explicit
 * drop counters, and byte-identical rendered output across runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "gold/closure.hh"
#include "predict/candidates.hh"
#include "predict/predict.hh"
#include "predict/shb.hh"
#include "report/checker.hh"
#include "trace/source.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

using core::DetectorEngine;
using core::ModelKind;
using gold::GoldRace;
using predict::PredictConfig;
using predict::PredictResult;
using report::RaceReport;
using report::ReplayVerdict;
using trace::OpId;

using PairSet = std::set<std::pair<OpId, OpId>>;

PairSet
racePairs(const std::vector<GoldRace> &races)
{
    PairSet out;
    for (const GoldRace &g : races)
        out.insert({g.first, g.second});
    return out;
}

PairSet
reportPairs(const std::vector<RaceReport> &races)
{
    PairSet out;
    for (const RaceReport &r : races)
        out.insert({r.prevOp, r.curOp});
    return out;
}

/** The HB detector's race list for @p tr (exact checker, no time
 * window), the way the predictive funnel consumes it. */
std::vector<RaceReport>
detectRaces(const trace::Trace &tr)
{
    report::ExactChecker checker;
    DetectorEngine eng(core::modelForDialect(tr.dialect()), tr,
                       checker, {});
    eng.runAll();
    EXPECT_TRUE(eng.runStatus().isOk());
    return checker.races();
}

gold::GoldConfig
weakConfigFor(const trace::Trace &tr)
{
    return predict::weakGoldConfig(core::weakOrderingFor(
        core::modelForDialect(tr.dialect())));
}

// ---------------------------------------------------------------
// The weakened gold closure: dropping the non-releasing signal
// edges and the queue rules exposes exactly the schedule-hidden
// pairs.
// ---------------------------------------------------------------

TEST(WeakClosure, FirstSignalOnlyGateWeakensOrdering)
{
    trace::Trace tr = workload::lockShadowedPattern();
    ASSERT_EQ(tr.validate(true), "");

    gold::Closure strong(tr);
    gold::Closure weak(tr, weakConfigFor(tr));

    // The observed schedule hides the write/write pair from HB...
    EXPECT_TRUE(strong.races().empty());
    // ...but the weak relation exposes it.
    ASSERT_EQ(weak.races().size(), 1u);

    // Weakening only removes order: every weak edge is also strong.
    const GoldRace race = weak.races()[0];
    EXPECT_TRUE(strong.happensBefore(race.first, race.second));
}

TEST(WeakClosure, WeakRacesAreASupersetOfStrongRaces)
{
    for (std::uint64_t seed : {11u, 23u, 47u}) {
        trace::Trace tr = workload::chaosTrace(seed, 60);
        ASSERT_EQ(tr.validate(true), "");
        gold::Closure strong(tr);
        gold::Closure weak(tr, weakConfigFor(tr));
        PairSet strongSet = racePairs(strong.races());
        PairSet weakSet = racePairs(weak.races());
        for (const auto &p : strongSet)
            EXPECT_TRUE(weakSet.count(p))
                << "seed " << seed << ": strong race " << p.first
                << "-" << p.second << " missing from weak set";
    }
}

// ---------------------------------------------------------------
// ShbEngine is the linear mirror of the weakened closure.
// ---------------------------------------------------------------

TEST(ShbEngine, MatchesWeakClosureOnEveryBackend)
{
    std::vector<trace::Trace> traces;
    traces.push_back(workload::lockShadowedPattern());
    traces.push_back(workload::queueSiblingsPattern());
    traces.push_back(workload::fifoForcedPattern());
    traces.push_back(workload::chaosTrace(11, 60));
    traces.push_back(workload::chaosTrace(23, 45));
    {
        workload::AppProfile p;
        p.seed = 7;
        p.looperEvents = 80;
        p.binderEvents = 10;
        traces.push_back(workload::generateApp(p).trace);
    }
    for (const trace::Trace &tr : traces) {
        ASSERT_EQ(tr.validate(true), "");
        gold::Closure weak(tr, weakConfigFor(tr));
        report::ExactChecker sink;
        predict::ShbEngine shb(tr);
        shb.run(sink);
        EXPECT_EQ(shb.malformedDropped(), 0u);
        EXPECT_EQ(reportPairs(sink.races()), racePairs(weak.races()));
    }
}

TEST(ShbEngine, AsyncWeakOrderingEqualsHappensBefore)
{
    // Every async edge is programmatic, so the weak relation is the
    // full happens-before: prediction runs but can surface only
    // detector misses, never schedule-hidden pairs.
    core::WeakOrderingSpec spec =
        core::weakOrderingFor(ModelKind::Async);
    EXPECT_FALSE(spec.weakerThanStrong());

    workload::GeneratedAsyncApp app =
        workload::generateAsyncApp(workload::asyncProfiles().front());
    ASSERT_EQ(app.trace.validate(true), "");
    gold::Closure strong(app.trace);
    report::ExactChecker sink;
    predict::ShbEngine shb(app.trace);
    shb.run(sink);
    EXPECT_EQ(shb.malformedDropped(), 0u);
    EXPECT_EQ(reportPairs(sink.races()), racePairs(strong.races()));
}

// ---------------------------------------------------------------
// The seeded HB-hidden patterns: prediction finds the planted pair,
// replay confirms it, and combined recall strictly beats observed.
// ---------------------------------------------------------------

void
expectConfirmedHiddenRace(const trace::Trace &tr)
{
    ASSERT_EQ(tr.validate(true), "");
    std::vector<RaceReport> detected = detectRaces(tr);
    PredictResult res = predict::runPrediction(tr, detected);
    const predict::PredictSummary &sum = res.summary;

    EXPECT_GE(sum.candidates, 1u);
    EXPECT_GE(sum.hidden, 1u);
    EXPECT_GE(sum.confirmed, 1u);
    ASSERT_TRUE(sum.recallScored);
    EXPECT_GT(sum.combinedRecall, sum.observedRecall)
        << "prediction must add recall over the observed schedule";
    EXPECT_GE(sum.combinedRecall, sum.observedRecall);

    // Every Confirmed class went through replay: a flip experiment
    // ran and carries the divergence detail.
    for (const report::TriageClass &cls : res.triage.classes) {
        if (cls.verdict == ReplayVerdict::Confirmed) {
            EXPECT_NE(cls.detail.find("diverges"), std::string::npos)
                << cls.detail;
        }
    }
    EXPECT_GE(sum.replays, 1u);
}

TEST(Predict, ConfirmsLockShadowedWrites)
{
    expectConfirmedHiddenRace(workload::lockShadowedPattern());
}

TEST(Predict, ConfirmsQueueReorderedSiblings)
{
    expectConfirmedHiddenRace(workload::queueSiblingsPattern());
}

TEST(Predict, SeededPatternsConfirmUnderEveryBackend)
{
    expectConfirmedHiddenRace(workload::lockShadowedPattern());
    expectConfirmedHiddenRace(workload::queueSiblingsPattern());
}

TEST(Predict, FifoForcedPairIsInfeasibleNeverConfirmed)
{
    trace::Trace tr = workload::fifoForcedPattern();
    ASSERT_EQ(tr.validate(true), "");
    PredictResult res = predict::runPrediction(tr, detectRaces(tr));
    const predict::PredictSummary &sum = res.summary;

    EXPECT_GE(sum.candidates, 1u);
    EXPECT_EQ(sum.confirmed, 0u)
        << "a FIFO-forced order must never be confirmed";
    EXPECT_GE(sum.infeasible, 1u);
    for (const report::TriageClass &cls : res.triage.classes) {
        EXPECT_NE(cls.verdict, ReplayVerdict::Confirmed);
        if (cls.verdict == ReplayVerdict::Infeasible) {
            EXPECT_NE(cls.detail.find("queue discipline"),
                      std::string::npos)
                << cls.detail;
        }
    }
    // Nothing the detector observed and nothing confirmed: recall
    // stays at its observed level.
    ASSERT_TRUE(sum.recallScored);
    EXPECT_EQ(sum.combinedHits, sum.observedHits);
}

// ---------------------------------------------------------------
// Soundness on ordinary workloads: prediction never reports a pair
// replay did not confirm, and recall never regresses.
// ---------------------------------------------------------------

TEST(Predict, NeverRegressesRecallOnProfilesAndChaos)
{
    std::vector<trace::Trace> traces;
    {
        workload::AppProfile p;
        p.seed = 13;
        p.looperEvents = 100;
        p.binderEvents = 12;
        traces.push_back(workload::generateApp(p).trace);
    }
    traces.push_back(workload::chaosTrace(31, 50));
    for (const trace::Trace &tr : traces) {
        ASSERT_EQ(tr.validate(true), "");
        std::vector<RaceReport> detected = detectRaces(tr);
        PredictResult res = predict::runPrediction(tr, detected);
        const predict::PredictSummary &sum = res.summary;
        ASSERT_TRUE(sum.recallScored);
        EXPECT_GE(sum.combinedRecall, sum.observedRecall);
        EXPECT_EQ(sum.malformedDropped, 0u);
        // The exact checker reports every HB-unordered pair, so
        // every surviving candidate must be HB-ordered (hidden);
        // a Confirmed verdict must carry replay evidence.
        gold::Closure strong(tr);
        for (const report::TriageClass &cls : res.triage.classes) {
            if (cls.verdict != ReplayVerdict::Confirmed)
                continue;
            EXPECT_NE(cls.detail.find("diverges"),
                      std::string::npos);
            const RaceReport &rep = cls.representative;
            EXPECT_TRUE(
                strong.happensBefore(rep.prevOp, rep.curOp) ||
                strong.happensBefore(rep.curOp, rep.prevOp))
                << "exact detection leaves only hidden candidates";
        }
    }
}

// ---------------------------------------------------------------
// Candidate bounding: both caps drop deterministically and loudly.
// ---------------------------------------------------------------

TEST(Predict, BoundsDropWithExplicitCounters)
{
    trace::Trace tr = workload::chaosTrace(11, 60);
    std::vector<RaceReport> detected = detectRaces(tr);

    PredictConfig tight;
    tight.bounds.window = 1;
    tight.bounds.maxCandidates = 1;
    PredictResult bounded = predict::runPrediction(tr, detected, tight);
    PredictResult full = predict::runPrediction(tr, detected);

    EXPECT_GT(bounded.summary.windowDrops, 0u);
    EXPECT_LE(bounded.summary.candidates, 1u);
    EXPECT_GT(full.summary.candidates, bounded.summary.candidates);
    EXPECT_EQ(full.summary.windowDrops, 0u)
        << "default window must hold this trace";

    // Deterministic: the same bounds drop the same pairs.
    PredictResult again = predict::runPrediction(tr, detected, tight);
    EXPECT_EQ(again.summary.candidates, bounded.summary.candidates);
    EXPECT_EQ(again.summary.windowDrops, bounded.summary.windowDrops);
    EXPECT_EQ(again.summary.capDrops, bounded.summary.capDrops);
}

TEST(Predict, OverOpsCapLeavesCandidatesUnverified)
{
    trace::Trace tr = workload::lockShadowedPattern();
    PredictConfig cfg;
    cfg.maxOps = 4;  // force the degradation path
    PredictResult res = predict::runPrediction(tr, detectRaces(tr), cfg);
    EXPECT_GE(res.summary.candidates, 1u);
    EXPECT_EQ(res.summary.confirmed, 0u);
    EXPECT_FALSE(res.summary.recallScored);
    ASSERT_FALSE(res.summary.notes.empty());
    for (const report::TriageClass &cls : res.triage.classes)
        EXPECT_EQ(cls.verdict, ReplayVerdict::Unverified);
}

// ---------------------------------------------------------------
// Byte-identical rendered prediction output across runs.
// ---------------------------------------------------------------

std::string
renderPrediction(const trace::Trace &tr)
{
    std::vector<RaceReport> detected = detectRaces(tr);
    PredictResult res = predict::runPrediction(tr, detected);
    trace::TraceMeta meta = trace::TraceMeta::fromTrace(tr);
    std::string out = res.summary.summary() + "\n";
    for (const report::TriageClass &cls : res.triage.classes)
        out += report::describeClass(meta, cls) + "\n";
    out += res.summary.recallLine() + "\n";
    return out;
}

TEST(Predict, RenderedOutputByteIdenticalAcrossBackends)
{
    std::vector<trace::Trace> traces;
    traces.push_back(workload::lockShadowedPattern());
    traces.push_back(workload::queueSiblingsPattern());
    traces.push_back(workload::fifoForcedPattern());
    traces.push_back(workload::chaosTrace(19, 40));
    for (const trace::Trace &tr : traces)
        EXPECT_EQ(renderPrediction(tr), renderPrediction(tr));
}

} // namespace
} // namespace asyncclock

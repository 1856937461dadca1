/**
 * @file
 * Tests for the JSON writer, the report/trace-stats exporters, and
 * the dense vector-clock ablation baseline (equivalence with the
 * sparse clock under randomized operations).
 */

#include <gtest/gtest.h>

#include "../bench/dense_clock.hh"
#include "core/detector.hh"
#include "report/export.hh"
#include "report/fasttrack.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "verify/verifier.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

TEST(JsonWriter, ObjectsArraysAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", std::string("a\"b\\c\nd"));
    w.field("count", std::uint64_t(42));
    w.field("ratio", 0.5);
    w.field("flag", true);
    w.key("items").beginArray();
    w.value(std::uint64_t(1));
    w.value("two");
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":42,"
              "\"ratio\":0.500000,\"flag\":true,\"items\":[1,\"two\"]}");
}

TEST(JsonWriter, ControlCharactersEscaped)
{
    JsonWriter w;
    w.value(std::string("x\x01y"));
    EXPECT_EQ(w.str(), "\"x\\u0001y\"");
}

TEST(Export, ReportJsonContainsGroups)
{
    workload::AppProfile p;
    p.seed = 2024;
    p.looperEvents = 80;
    auto app = workload::generateApp(p);
    report::FastTrackChecker checker;
    core::DetectorConfig cfg;
    cfg.windowMs = 0;
    core::AsyncClockDetector det(app.trace, checker, cfg);
    det.runAll();
    auto summary =
        report::RaceAnalyzer(app.trace).analyze(checker.races());
    std::string json = report::toJson(
        summary, trace::TraceMeta::fromTrace(app.trace));
    EXPECT_NE(json.find("\"harmful\":" +
                        std::to_string(summary.harmful)),
              std::string::npos);
    EXPECT_NE(json.find("\"groups\":["), std::string::npos);
    EXPECT_NE(json.find("App.onResume"), std::string::npos);
    // Balanced braces (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Export, TraceStatsJson)
{
    workload::AppProfile p;
    p.seed = 5;
    p.looperEvents = 60;
    auto app = workload::generateApp(p);
    auto stats = app.trace.stats();
    std::string json = report::toJson(stats);
    EXPECT_NE(json.find("\"looperEvents\":" +
                        std::to_string(stats.looperEvents)),
              std::string::npos);
    EXPECT_NE(json.find("\"spanMs\":"), std::string::npos);
}

TEST(Export, ReportOrderIsInputOrderIndependent)
{
    // The exported report must not depend on the order a checker
    // emits races in. Shuffle the race list and require
    // byte-identical summary text and JSON.
    workload::AppProfile p;
    p.seed = 31337;
    p.looperEvents = 80;
    auto app = workload::generateApp(p);
    report::FastTrackChecker checker;
    core::DetectorConfig cfg;
    cfg.windowMs = 0;
    core::AsyncClockDetector det(app.trace, checker, cfg);
    det.runAll();
    std::vector<report::RaceReport> races = checker.races();
    ASSERT_GT(races.size(), 1u);

    report::RaceAnalyzer analyzer(app.trace);
    auto render = [&](const std::vector<report::RaceReport> &in) {
        auto summary = analyzer.analyze(in);
        std::string text = summary.summary() + "\n";
        for (const auto &group : summary.reported)
            text += analyzer.describe(group) + "\n";
        return text + report::toJson(
                          summary, trace::TraceMeta::fromTrace(app.trace));
    };

    std::string baseline = render(races);
    Rng rng(7);
    for (int round = 0; round < 5; ++round) {
        // Fisher-Yates with the repo's deterministic Rng.
        for (std::size_t i = races.size() - 1; i > 0; --i) {
            std::size_t j = rng.below(i + 1);
            std::swap(races[i], races[j]);
        }
        EXPECT_EQ(render(races), baseline) << "round " << round;
    }
}

TEST(Export, TriageJsonCarriesVerdicts)
{
    workload::AppProfile p;
    p.seed = 424;
    p.looperEvents = 70;
    auto app = workload::generateApp(p);
    report::FastTrackChecker checker;
    core::DetectorConfig cfg;
    cfg.windowMs = 0;
    core::AsyncClockDetector det(app.trace, checker, cfg);
    det.runAll();
    auto summary =
        report::RaceAnalyzer(app.trace).analyze(checker.races());

    report::TriageReport tri = report::buildTriage(checker.races());
    verify::verifyTriage(tri, app.trace, {});
    std::string json = report::toJson(
        summary, tri, trace::TraceMeta::fromTrace(app.trace));
    EXPECT_NE(json.find("\"verification\":{"), std::string::npos);
    EXPECT_NE(json.find("\"confirmed\":" +
                        std::to_string(tri.confirmed)),
              std::string::npos);
    EXPECT_NE(json.find("\"CONFIRMED\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// ----------------------------------------------------------------
// Dense vs sparse vector clocks (section 4.2 ablation baseline).
// ----------------------------------------------------------------

TEST(DenseClock, MatchesSparseUnderRandomOps)
{
    Rng rng(99);
    for (int round = 0; round < 50; ++round) {
        clock::DenseClock dense, dense2;
        clock::VectorClock sparse, sparse2;
        for (int i = 0; i < 60; ++i) {
            auto c = static_cast<clock::ChainId>(rng.below(128));
            auto t = static_cast<clock::Tick>(rng.range(1, 50));
            if (rng.chance(0.5)) {
                dense.raise(c, t);
                sparse.raise(c, t);
            } else {
                dense2.raise(c, t);
                sparse2.raise(c, t);
            }
        }
        dense.joinWith(dense2);
        sparse.joinWith(sparse2);
        EXPECT_TRUE(dense.toSparse() == sparse);
        EXPECT_EQ(dense.size(), sparse.size());
        for (int i = 0; i < 20; ++i) {
            clock::Epoch e{static_cast<clock::ChainId>(rng.below(160)),
                           static_cast<clock::Tick>(rng.range(1, 60))};
            EXPECT_EQ(dense.knows(e), sparse.knows(e));
        }
        EXPECT_EQ(dense.leq(dense2), sparse.leq(sparse2));
    }
}

TEST(DenseClock, SpaceBlowupOnSparseUse)
{
    // One far chain id: dense pays for the whole index range, sparse
    // for one entry — the section 4.2 motivation in one assertion.
    clock::DenseClock dense;
    clock::VectorClock sparse;
    dense.raise(100000, 1);
    sparse.raise(100000, 1);
    EXPECT_GT(dense.byteSize(), 100000 * sizeof(clock::Tick) / 2);
    EXPECT_LT(sparse.byteSize(), 1024u);
}

} // namespace
} // namespace asyncclock

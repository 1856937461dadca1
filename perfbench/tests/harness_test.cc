/**
 * @file
 * Tests of the benchmark harness itself: the layer decorators must
 * not change what the library computes, span self times must add up,
 * and daemon_evict must evict and resume the same way on every run of
 * one seed.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "harness/decorators.hh"
#include "harness/runs.hh"
#include "harness/spans.hh"
#include "harness/workloads.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "trace/trace_io.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

namespace asyncclock::perfbench {
namespace {

TraceInput
smallLooper()
{
    workload::GeneratedApp app =
        workload::generateApp(workload::profileByName("K9Mail", 0.02));
    return {"k9mail", trace::writeBinaryTraceToString(app.trace),
            app.trace.numOps(), app.truth.harmful};
}

TraceInput
smallAsync()
{
    workload::AsyncProfile p = workload::asyncProfileByName("AsyncFanOut");
    p.rootTasks = 200;
    workload::GeneratedAsyncApp app = workload::generateAsyncApp(p);
    return {"fanout", trace::writeBinaryTraceToString(app.trace),
            app.trace.numOps(), app.truth.harmful};
}

/** Metrics that are counts or sizes, not times: the decorators must
 * leave every one of them unchanged. */
bool
isCount(const std::string &name)
{
    return !name.ends_with("_s") && name != "bench.closure" &&
           name != "report.accesses";
}

TEST(Decorators, ForwardEveryCallAndChangeNothing)
{
    for (const TraceInput &in : {smallLooper(), smallAsync()}) {
        SCOPED_TRACE(in.id);
        std::string reports[2];
        core::DetectorCounters counters[2];
        std::uint64_t decodeCalls = 0, checkCalls = 0, races = 0;
        for (int decorated = 0; decorated < 2; ++decorated) {
            std::istringstream stream(in.bytes);
            trace::StreamingBinarySource binary(stream);
            ASSERT_TRUE(binary.ok());
            report::FastTrackChecker fasttrack;
            TimedSource timedSource(binary);
            TimedChecker timedChecker(fasttrack);
            trace::TraceSource &source =
                decorated ? static_cast<trace::TraceSource &>(timedSource)
                          : binary;
            report::AccessChecker &checker =
                decorated
                    ? static_cast<report::AccessChecker &>(timedChecker)
                    : fasttrack;
            core::DetectorEngine engine(
                core::modelForDialect(binary.meta().dialect()), source,
                checker);
            while (engine.processNext()) {
            }
            ASSERT_TRUE(binary.ok());
            ASSERT_TRUE(engine.runStatus().isOk());
            report::RaceAnalyzer analyzer(binary.meta());
            report::ReportSummary summary =
                analyzer.analyze(checker.races());
            core::appendRunNotes(summary.notes, binary.recordsSkipped(),
                                 &engine.counters());
            reports[decorated] = report::renderReportText(analyzer, summary);
            counters[decorated] = engine.counters();
            decodeCalls = timedSource.calls();
            checkCalls = timedChecker.calls();
            races = fasttrack.races().size();
        }
        EXPECT_EQ(reports[0], reports[1]);
        EXPECT_EQ(counters[0].walkSteps, counters[1].walkSteps);
        EXPECT_EQ(counters[0].gcSweeps, counters[1].gcSweeps);
        EXPECT_EQ(counters[0].eventsSeen, counters[1].eventsSeen);
        EXPECT_EQ(counters[0].chainsCreated, counters[1].chainsCreated);
        EXPECT_EQ(counters[0].clockJoins, counters[1].clockJoins);
        // One next() per op plus the final exhausted pull.
        EXPECT_EQ(decodeCalls, in.ops + 1);
        EXPECT_GT(checkCalls, 0u);
        EXPECT_GT(races, 0u);
    }
}

TEST(Decorators, TracedIterationMatchesUntraced)
{
    for (const TraceInput &in : {smallLooper(), smallAsync()}) {
        SCOPED_TRACE(in.id);
        Iteration plain = runEngine(in, nullptr);
        SpanLog spans;
        Iteration traced = runEngine(in, &spans);
        ASSERT_EQ(plain.failure, "");
        ASSERT_EQ(traced.failure, "");
        EXPECT_EQ(plain.reports, traced.reports);
        EXPECT_EQ(plain.harmful, traced.harmful);
        for (const auto &[name, v] : plain.metrics) {
            if (isCount(name)) {
                EXPECT_EQ(v, traced.metrics.at(name)) << name;
            }
        }
        EXPECT_FALSE(spans.spans().empty());
    }
}

TEST(Spans, SelfTimeIsDurationMinusChildren)
{
    SpanLog log;
    std::int32_t run = log.add("run", -1, 0, 0);
    std::int32_t block = log.add("process", run, 0, 600);
    log.add("decode", block, 0, 100, 40);
    log.add("check", block, 0, 50, 7);
    log.add("render", run, 600, 300);
    log.setDuration(run, 1000);
    std::map<std::string, double> self = log.selfSeconds();
    EXPECT_DOUBLE_EQ(self["run"], 100e-9);
    EXPECT_DOUBLE_EQ(self["process"], 450e-9);
    EXPECT_DOUBLE_EQ(self["decode"], 100e-9);
    EXPECT_DOUBLE_EQ(self["check"], 50e-9);
    EXPECT_DOUBLE_EQ(self["render"], 300e-9);
}

TEST(DaemonEvict, EvictionsAndResumesRepeatForOneSeed)
{
    std::vector<TraceInput> inputs =
        makeInputs(planInputs(Workload::DaemonEvict, kDefaultSeed));
    ASSERT_EQ(inputs.size(), 6u);
    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / "perfbench-daemon")
            .string();
    Iteration first = runDaemon(inputs, dir, nullptr);
    Iteration second = runDaemon(inputs, dir, nullptr);
    ASSERT_EQ(first.failure, "");
    ASSERT_EQ(second.failure, "");
    EXPECT_GT(first.metrics.at("daemon.evictions"), 0);
    EXPECT_EQ(first.metrics.at("daemon.evictions"),
              second.metrics.at("daemon.evictions"));
    EXPECT_EQ(first.metrics.at("daemon.resumes"),
              second.metrics.at("daemon.resumes"));
    EXPECT_EQ(first.metrics.at("clock.joins"),
              second.metrics.at("clock.joins"));
    // Every session's report is the single-shot report.
    ASSERT_EQ(first.reports.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Iteration single = runEngine(inputs[i], nullptr);
        EXPECT_EQ(first.reports[i], single.reports.at(0)) << inputs[i].id;
        EXPECT_EQ(second.reports[i], single.reports.at(0)) << inputs[i].id;
    }
}

} // namespace
} // namespace asyncclock::perfbench

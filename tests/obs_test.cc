/**
 * @file
 * Observability layer tests: metrics registry semantics (including
 * concurrent hot-path updates — run under TSan in CI), the stable
 * metrics JSON schema (golden string), Chrome trace-event output
 * well-formedness, the progress heartbeat layout, rate-limited
 * warnings, the MemStats underflow guard, and the detector's obs
 * hookup end to end.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/progress.hh"
#include "obs/trace_events.hh"
#include "report/fasttrack.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON well-formedness checker. The library is write-only by
// design (support/json.hh), so the tests bring their own reader.

struct JsonValidator
{
    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool
    lit(const char *t)
    {
        std::size_t n = std::strlen(t);
        if (s.compare(i, n, t) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        for (++i; i < s.size(); ++i) {
            if (s[i] == '\\') {
                ++i;
            } else if (s[i] == '"') {
                ++i;
                return true;
            }
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                std::strchr(".eE+-", s[i])))
            ++i;
        return i > start;
    }

    bool
    value()
    {
        ws();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{': return members('}');
          case '[': return members(']');
          case '"': return string();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }

    /** Parse `{...}` or `[...]` starting at the opening bracket. */
    bool
    members(char close)
    {
        ++i;
        ws();
        if (i < s.size() && s[i] == close) {
            ++i;
            return true;
        }
        while (true) {
            ws();
            if (close == '}') {
                if (!string())
                    return false;
                ws();
                if (i >= s.size() || s[i] != ':')
                    return false;
                ++i;
            }
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            if (i < s.size() && s[i] == close) {
                ++i;
                return true;
            }
            return false;
        }
    }
};

bool
validJson(const std::string &s)
{
    JsonValidator v{s};
    if (!v.value())
        return false;
    v.ws();
    return v.i == s.size();
}

TEST(JsonValidatorSelfTest, AcceptsAndRejects)
{
    EXPECT_TRUE(validJson("{}"));
    EXPECT_TRUE(validJson("{\"a\":[1,-2,\"x\"],\"b\":{\"c\":true}}"));
    EXPECT_FALSE(validJson("{\"a\":}"));
    EXPECT_FALSE(validJson("{\"a\":1"));
    EXPECT_FALSE(validJson("{\"a\":1}trailing"));
    EXPECT_FALSE(validJson("[1,]"));
}

// ---------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterAndGaugeSemantics)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("x");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge &g = reg.gauge("y");
    g.set(-5);
    g.add(2);
    EXPECT_EQ(g.value(), -3);

    // Create-or-get: the same name yields the same object.
    EXPECT_EQ(&reg.counter("x"), &c);
    EXPECT_EQ(&reg.gauge("y"), &g);
}

TEST(Metrics, HistogramBucketsAndStats)
{
    obs::Histogram h({10, 100});
    EXPECT_EQ(h.min(), 0u);  // empty
    h.observe(0);
    h.observe(10);    // bounds are inclusive upper bounds
    h.observe(11);
    h.observe(5000);  // overflow bucket
    EXPECT_EQ(h.numBuckets(), 3u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 5021u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 5000u);
}

TEST(Metrics, ConcurrentUpdates)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("ops");
    obs::Gauge &g = reg.gauge("level");
    obs::Histogram &h = reg.histogram("lat", {1, 8, 64});

    constexpr int kThreads = 4;
    constexpr int kIters = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                g.add(t % 2 ? 1 : -1);
                h.observe(static_cast<std::uint64_t>(i % 100));
            }
        });
    }
    // Snapshot while the workers hammer the metrics: must be safe,
    // values merely approximate.
    (void)reg.snapshot();
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kIters);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kIters);
    std::uint64_t bucketSum = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        bucketSum += h.bucketCount(i);
    EXPECT_EQ(bucketSum, h.count());
    EXPECT_EQ(h.max(), 99u);
}

TEST(Metrics, CallbackMetricsMergeSorted)
{
    obs::MetricsRegistry reg;
    reg.counter("b.owned").inc(2);
    std::uint64_t backing = 7;
    reg.counterFn("a.cb", [&backing] { return backing; });
    reg.gaugeFn("z.cb", [] { return std::int64_t(-1); });
    reg.gauge("m.owned").set(3);

    obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a.cb");
    EXPECT_EQ(snap.counters[0].second, 7u);
    EXPECT_EQ(snap.counters[1].first, "b.owned");
    ASSERT_EQ(snap.gauges.size(), 2u);
    EXPECT_EQ(snap.gauges[0].first, "m.owned");
    EXPECT_EQ(snap.gauges[1].first, "z.cb");

    backing = 9;  // callbacks are re-evaluated per snapshot
    EXPECT_EQ(reg.snapshot().counters[0].second, 9u);
}

TEST(Metrics, GoldenJson)
{
    obs::MetricsRegistry reg;
    reg.counter("a.count").inc(3);
    reg.gauge("b.gauge").set(-7);
    obs::Histogram &h = reg.histogram("c.hist", {1, 10, 100});
    h.observe(0);
    h.observe(5);
    h.observe(1000);

    std::string json = reg.snapshot().toJson();
    EXPECT_EQ(json,
              "{\"schema\":\"asyncclock-metrics-v1\","
              "\"counters\":{\"a.count\":3},"
              "\"gauges\":{\"b.gauge\":-7},"
              "\"histograms\":{\"c.hist\":{"
              "\"bounds\":[1,10,100],\"counts\":[1,1,0,1],"
              "\"count\":3,\"sum\":1005,\"min\":0,\"max\":1000}}}");
    EXPECT_TRUE(validJson(json));
}

TEST(Metrics, RegisterMemStats)
{
    obs::MetricsRegistry reg;
    MemStats mem;
    obs::registerMemStats(reg, mem);
    mem.alloc(MemCat::VectorClock, 128);
    mem.alloc(MemCat::VectorClock, 64);
    mem.release(MemCat::VectorClock, 100);

    obs::MetricsSnapshot snap = reg.snapshot();
    auto gauge = [&](const std::string &name) -> std::int64_t {
        for (const auto &[n, v] : snap.gauges)
            if (n == name)
                return v;
        ADD_FAILURE() << "gauge not found: " << name;
        return -1;
    };
    EXPECT_EQ(gauge("mem.live.vector-clock"), 92);
    EXPECT_EQ(gauge("mem.peak.vector-clock"), 192);
    EXPECT_EQ(gauge("mem.live.total"), 92);
    EXPECT_EQ(gauge("mem.peak.total"), 192);
}

// ---------------------------------------------------------------------
// Span tracing

TEST(TraceEvents, TracksSpansAndJson)
{
    obs::Tracer tracer;
    int shard0 = tracer.registerTrack("shard-0");
    int shard1 = tracer.registerTrack("shard-1");
    EXPECT_EQ(shard0, 1);
    EXPECT_EQ(shard1, 2);

    tracer.span(obs::kMainTrack, "pump", 10, 30, "{\"ops\":512}");
    tracer.span(shard0, "check_batch", 12, 20);
    tracer.span(obs::kMainTrack, "gc_sweep", 35, 40);
    {
        obs::ScopedSpan s(&tracer, shard1, "check_batch");
    }

    std::string json = tracer.toJson();
    EXPECT_TRUE(validJson(json)) << json;
    // The essential Chrome trace-event fields must be present.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"ops\":512}"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);

    // Spans on each track must have monotonically non-decreasing
    // start timestamps (each track is one thread's timeline).
    std::vector<obs::Tracer::Event> events = tracer.events();
    std::map<int, std::uint64_t> lastTs;
    for (const auto &ev : events) {
        if (ev.ph != 'X')
            continue;
        auto it = lastTs.find(ev.tid);
        if (it != lastTs.end()) {
            EXPECT_GE(ev.ts, it->second)
                << "ts regressed on tid " << ev.tid;
        }
        lastTs[ev.tid] = ev.ts;
    }
    EXPECT_EQ(lastTs.size(), 3u);  // main + both shards saw spans
}

TEST(TraceEvents, NullTracerScopedSpanIsFree)
{
    // Must not crash or record anything; this is the disabled path
    // every instrumentation site takes by default.
    obs::ScopedSpan s(nullptr, obs::kMainTrack, "noop");
}

// ---------------------------------------------------------------------
// Progress heartbeat

TEST(Progress, DueAndFormat)
{
    obs::ProgressMeter off(0);
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.due(1000000));

    obs::ProgressMeter meter(1000);
    EXPECT_TRUE(meter.enabled());
    EXPECT_FALSE(meter.due(999));
    EXPECT_TRUE(meter.due(1000));

    obs::ProgressSample s;
    s.ops = 50000;
    s.liveBytes = 1 << 20;
    s.peakBytes = 2 << 20;
    s.races = 3;
    std::string line = meter.format(s, 12345.0);
    EXPECT_NE(line.find("[progress]"), std::string::npos);
    EXPECT_NE(line.find("50,000 ops"), std::string::npos);
    EXPECT_NE(line.find("ops/s"), std::string::npos);
    EXPECT_NE(line.find("live 1.0MB (peak 2.0MB)"), std::string::npos);
    EXPECT_NE(line.find("races 3"), std::string::npos);
}

// ---------------------------------------------------------------------
// Satellites: rate-limited warnings, MemStats underflow guard

TEST(Logging, WarnRateLimited)
{
    testing::internal::CaptureStderr();
    for (int i = 0; i < 10; ++i)
        warnRateLimited("obs_test.limited", "boom", 3);
    std::string err = testing::internal::GetCapturedStderr();
    std::size_t warns = 0, pos = 0;
    while ((pos = err.find("boom", pos)) != std::string::npos) {
        ++warns;
        pos += 4;
    }
    EXPECT_EQ(warns, 3u);
    EXPECT_NE(err.find("further warnings suppressed"),
              std::string::npos);

    // A different key has its own budget.
    testing::internal::CaptureStderr();
    warnOnce("obs_test.once", "single");
    warnOnce("obs_test.once", "single");
    err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("single"), err.rfind("single"));
}

using ObsDeathTest = ::testing::Test;

TEST(ObsDeathTest, MemStatsReleaseUnderflowPanics)
{
    MemStats mem;
    mem.alloc(MemCat::Other, 8);
    EXPECT_DEATH(mem.release(MemCat::Other, 9),
                 "MemStats release underflow");
}

// ---------------------------------------------------------------------
// Detector observability hookup

TEST(DetectorObs, CountersRegisteredAndPumpSpansEmitted)
{
    workload::AppProfile profile =
        workload::profileByName("AnyMemo", 0.005);
    workload::GeneratedApp app = workload::generateApp(profile);

    // A run that fails its op budget: a burst of ops from a thread
    // that never began, one more than the budget allows.
    trace::Trace failing = app.trace;
    trace::ThreadId ghost =
        failing.declThread(trace::ThreadKind::Worker, "ghost");
    std::uint64_t end = failing.ops().back().vtime;
    for (int i = 0; i < 5; ++i)
        failing.write(trace::Task::thread(ghost), 0, 0, end);

    struct Case
    {
        const char *name;
        const trace::Trace *tr;
        bool phaseTiming;
        std::uint64_t maxInvalidOps;
    };
    const Case cases[] = {
        {"tracer", &app.trace, false, 64},
        {"tracer and phase timing", &app.trace, true, 64},
        {"tracer and a failed run", &failing, false, 4},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        obs::MetricsRegistry registry;
        obs::Tracer tracer;
        report::FastTrackChecker checker;
        core::DetectorConfig cfg;
        cfg.phaseTiming = c.phaseTiming;
        cfg.maxInvalidOps = c.maxInvalidOps;
        core::AsyncClockDetector det(*c.tr, checker, cfg);
        det.attachObs(obs::ObsContext{&registry, &tracer});
        det.runAll();
        EXPECT_EQ(det.runStatus().isOk(), c.tr == &app.trace)
            << det.runStatus().toString();

        obs::MetricsSnapshot snap = registry.snapshot();
        auto counter = [&](const std::string &name) -> std::uint64_t {
            for (const auto &[n, v] : snap.counters)
                if (n == name)
                    return v;
            ADD_FAILURE() << "counter not found: " << name;
            return 0;
        };
        EXPECT_EQ(counter("detector.ops_processed"), det.opsProcessed());
        EXPECT_EQ(counter("detector.events_seen"),
                  det.counters().eventsSeen);
        EXPECT_GT(counter("detector.clock_ticks"), 0u);
        EXPECT_GT(counter("detector.clock_joins"), 0u);
        EXPECT_GT(counter("detector.gc_sweeps"), 0u);

        // The pump spans cover the whole run: their op counts add up
        // to the processed total.
        auto arg = [](const std::string &args, const char *key) {
            std::string field = std::string("\"") + key + "\":";
            std::size_t p = args.find(field);
            EXPECT_NE(p, std::string::npos) << key;
            return p == std::string::npos
                       ? 0ull
                       : std::strtoull(args.c_str() + p + field.size(),
                                       nullptr, 10);
        };
        std::uint64_t pumpedOps = 0, spans = 0, decodeUs = 0,
                      resolveUs = 0;
        for (const auto &ev : tracer.events()) {
            if (ev.ph != 'X' || ev.name != "pump")
                continue;
            EXPECT_EQ(ev.tid, obs::kMainTrack);
            ++spans;
            pumpedOps += arg(ev.args, "ops");
            decodeUs += arg(ev.args, "decode_us");
            resolveUs += arg(ev.args, "resolve_us");
        }
        EXPECT_EQ(pumpedOps, det.opsProcessed());
        EXPECT_TRUE(validJson(tracer.toJson()));
        if (!c.phaseTiming)
            continue;
        // With phase timing the spans' time split comes from the same
        // ledger as the phase totals; each span rounds its decode and
        // resolve ns down to whole microseconds.
        const std::uint64_t *totals = det.phaseTotalsNs();
        std::uint64_t allNs = 0;
        for (std::size_t k = 0; k < core::kNumPhases; ++k)
            allNs += totals[k];
        std::uint64_t decodeNs =
            totals[static_cast<std::size_t>(core::Phase::Decode)];
        std::uint64_t resolveNs = allNs - decodeNs;
        EXPECT_LE(decodeUs, decodeNs / 1000);
        EXPECT_GE(decodeUs + spans, decodeNs / 1000);
        EXPECT_LE(resolveUs, resolveNs / 1000);
        EXPECT_GE(resolveUs + spans, resolveNs / 1000);
    }
}

} // namespace
} // namespace asyncclock

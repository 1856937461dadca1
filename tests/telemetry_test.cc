/**
 * @file
 * Live-telemetry-plane tests: labeled series naming (canonical form,
 * round-trip, registry create-or-get), the v2 metrics JSON schema,
 * Prometheus text exposition (golden string), publisher rate
 * computation, the in-process HTTP scrape endpoint end to end over
 * loopback (including scraping concurrently with a live detector run
 * — the TSan target), structured event-log JSONL well-formedness,
 * the WarnTap counters, TaskGraph observability, and the engine's
 * per-phase latency attribution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/detector.hh"
#include "core/engine.hh"
#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/telemetry.hh"
#include "report/fasttrack.hh"
#include "runtime/taskgraph.hh"
#include "support/logging.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON well-formedness checker (same shape as obs_test.cc:
// the library is write-only by design, so the tests bring their own
// reader).

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
            if (close == '}') {
                ws();
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
            if (i >= s.size())
                return false;
            if (s[i] == close) {
                ++i;
                return true;
            }
            if (s[i] != ',')
                return false;
            ++i;
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

// ---------------------------------------------------------------------
// Series naming

TEST(SeriesName, CanonicalFormSortsKeysAndEscapesValues)
{
    EXPECT_EQ(obs::seriesName("m", {}), "m");
    EXPECT_EQ(obs::seriesName("m", {{"a", "1"}}), "m{a=\"1\"}");
    // Key order on input is irrelevant.
    EXPECT_EQ(obs::seriesName("m", {{"b", "2"}, {"a", "1"}}),
              "m{a=\"1\",b=\"2\"}");
    // '"' and '\' in values are backslash-escaped.
    EXPECT_EQ(obs::seriesName("m", {{"k", "a\"b\\c"}}),
              "m{k=\"a\\\"b\\\\c\"}");
}

TEST(SeriesName, SplitRoundTrips)
{
    obs::LabelSet in = {{"model", "async"}, {"backend", "tree"},
                        {"odd", "x\"y\\z"}};
    std::string full = obs::seriesName("detector.phase_ns", in);

    std::string base;
    obs::LabelSet out;
    ASSERT_TRUE(obs::splitSeries(full, base, out));
    EXPECT_EQ(base, "detector.phase_ns");
    ASSERT_EQ(out.size(), 3u);
    // splitSeries returns the canonical (sorted) order.
    EXPECT_EQ(out[0].first, "backend");
    EXPECT_EQ(out[0].second, "tree");
    EXPECT_EQ(out[1].first, "model");
    EXPECT_EQ(out[1].second, "async");
    EXPECT_EQ(out[2].first, "odd");
    EXPECT_EQ(out[2].second, "x\"y\\z");

    // Splitting and re-joining is the identity on canonical names.
    EXPECT_EQ(obs::seriesName(base, out), full);

    // A plain name has no label block; outputs stay untouched.
    base = "sentinel";
    EXPECT_FALSE(obs::splitSeries("plain.name", base, out));
    EXPECT_EQ(base, "sentinel");
}

TEST(LabeledRegistry, CreateOrGetIgnoresLabelOrder)
{
    obs::MetricsRegistry reg;
    obs::Counter &a =
        reg.counter("c", {{"model", "looper"}, {"shard", "0"}});
    obs::Counter &b =
        reg.counter("c", {{"shard", "0"}, {"model", "looper"}});
    EXPECT_EQ(&a, &b);

    // A different label value is a different series...
    obs::Counter &c =
        reg.counter("c", {{"model", "looper"}, {"shard", "1"}});
    EXPECT_NE(&a, &c);
    // ...and the unlabeled name is yet another.
    EXPECT_NE(&a, &reg.counter("c"));

    obs::Gauge &g1 = reg.gauge("g", {{"k", "v"}});
    obs::Gauge &g2 = reg.gauge("g", {{"k", "v"}});
    EXPECT_EQ(&g1, &g2);

    obs::Histogram &h1 =
        reg.histogram("h", {{"k", "v"}}, {10, 100});
    obs::Histogram &h2 = reg.histogram("h", {{"k", "v"}}, {999});
    EXPECT_EQ(&h1, &h2);  // bounds ignored on re-get
    ASSERT_EQ(h1.bounds().size(), 2u);
}

// ---------------------------------------------------------------------
// Snapshot JSON schemas

TEST(MetricsJson, UnlabeledRegistryKeepsV1Schema)
{
    obs::MetricsRegistry reg;
    reg.counter("a.count").inc(3);
    reg.gauge("b.level").set(-4);
    std::string json = reg.snapshot().toJson();
    EXPECT_TRUE(validJson(json));
    EXPECT_NE(json.find("\"asyncclock-metrics-v1\""),
              std::string::npos);
    EXPECT_EQ(json.find("\"series\""), std::string::npos);
}

TEST(MetricsJson, LabeledSeriesSwitchToV2Schema)
{
    obs::MetricsRegistry reg;
    reg.counter("plain.count").inc(7);
    reg.counter("c", {{"model", "async"}}).inc(2);
    reg.gauge("run.info", {{"model", "looper"}, {"backend", "sparse"}})
        .set(1);
    reg.histogram("h", {{"phase", "decode"}}, {10, 100}).observe(5);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.hasLabels());
    std::string json = snap.toJson();
    EXPECT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"asyncclock-metrics-v2\""),
              std::string::npos);
    // Flat sections keep holding plain names only...
    EXPECT_NE(json.find("\"plain.count\":7"), std::string::npos);
    EXPECT_EQ(json.find("\"c{"), std::string::npos);
    // ...and the series section carries the parsed label sets.
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"labels\":{\"backend\":\"sparse\","
                        "\"model\":\"looper\"}"),
              std::string::npos)
        << json;
}

// ---------------------------------------------------------------------
// Prometheus text exposition

TEST(MetricsPrometheus, GoldenExposition)
{
    obs::MetricsRegistry reg;
    reg.counter("detector.ops_processed").inc(41);
    reg.counter("races.found", {{"shard", "0"}}).inc(2);
    reg.counter("races.found", {{"shard", "1"}}).inc(3);
    reg.gauge("run.info", {{"model", "looper"}, {"backend", "sparse"}})
        .set(1);
    obs::Histogram &h =
        reg.histogram("batch.us", {{"shard", "0"}}, {10, 100});
    h.observe(5);
    h.observe(50);
    h.observe(5000);  // overflow bucket

    std::string expected =
        "# TYPE asyncclock_batch_us histogram\n"
        "asyncclock_batch_us_bucket{shard=\"0\",le=\"10\"} 1\n"
        "asyncclock_batch_us_bucket{shard=\"0\",le=\"100\"} 2\n"
        "asyncclock_batch_us_bucket{shard=\"0\",le=\"+Inf\"} 3\n"
        "asyncclock_batch_us_sum{shard=\"0\"} 5055\n"
        "asyncclock_batch_us_count{shard=\"0\"} 3\n";
    std::string prom = reg.snapshot().toPrometheus();
    EXPECT_NE(prom.find("# TYPE asyncclock_detector_ops_processed "
                        "counter\n"
                        "asyncclock_detector_ops_processed 41\n"),
              std::string::npos)
        << prom;
    // One TYPE line per family, members adjacent.
    EXPECT_NE(prom.find("# TYPE asyncclock_races_found counter\n"
                        "asyncclock_races_found{shard=\"0\"} 2\n"
                        "asyncclock_races_found{shard=\"1\"} 3\n"),
              std::string::npos)
        << prom;
    EXPECT_NE(
        prom.find("asyncclock_run_info{backend=\"sparse\","
                  "model=\"looper\"} 1\n"),
        std::string::npos)
        << prom;
    EXPECT_NE(prom.find(expected), std::string::npos) << prom;
}

// ---------------------------------------------------------------------
// SnapshotPublisher

TEST(SnapshotPublisher, SeqRatesAndLatest)
{
    obs::MetricsRegistry reg;
    obs::Counter &ops = reg.counter("detector.ops_processed");
    obs::SnapshotPublisher pub(reg, /*intervalMs=*/0);

    EXPECT_EQ(pub.latest(), nullptr);
    ASSERT_TRUE(pub.due());

    obs::ProgressSample s;
    s.ops = 10;
    ops.inc(10);
    pub.publish(s);
    auto first = pub.latest();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->seq, 1u);
    // No rates on the first publish (no baseline yet).
    EXPECT_TRUE(first->rates.empty());

    ops.inc(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    s.ops = 110;
    pub.publish(s);
    auto second = pub.latest();
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->seq, 2u);
    ASSERT_EQ(second->rates.size(), 1u);
    EXPECT_EQ(second->rates[0].first, "detector.ops_processed");
    EXPECT_GT(second->rates[0].second, 0.0);

    EXPECT_TRUE(validJson(second->toJson())) << second->toJson();
    std::string progress = second->progressJson();
    EXPECT_TRUE(validJson(progress)) << progress;
    EXPECT_NE(progress.find("\"ops\":110"), std::string::npos);
    EXPECT_NE(progress.find("\"ops_per_sec\":"), std::string::npos);

    // The old snapshot stays immutable and readable.
    EXPECT_EQ(first->seq, 1u);
}

// ---------------------------------------------------------------------
// TelemetryServer over loopback

/** One-shot HTTP request against 127.0.0.1:port; returns the whole
 * response (status line + headers + body), "" on connect failure. */
std::string
httpRequest(std::uint16_t port, const std::string &target,
            const char *method = "GET")
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return "";
    }
    std::string req = std::string(method) + " " + target +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      "Connection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
        ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return resp;
}

std::string
httpBody(const std::string &resp)
{
    std::size_t p = resp.find("\r\n\r\n");
    return p == std::string::npos ? "" : resp.substr(p + 4);
}

TEST(TelemetryServer, ServesAllEndpoints)
{
    obs::MetricsRegistry reg;
    reg.counter("detector.ops_processed").inc(5);
    reg.gauge("run.info", {{"model", "looper"}, {"backend", "sparse"}})
        .set(1);
    obs::SnapshotPublisher pub(reg, 0);
    obs::TelemetryServer server(pub);
    ASSERT_TRUE(server.start(0));  // kernel-assigned port
    ASSERT_GT(server.port(), 0);

    // /healthz answers before any publish; data paths say 503 rather
    // than serving an all-zero document.
    std::string health = httpRequest(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"snapshots\":0"), std::string::npos);
    EXPECT_NE(httpRequest(server.port(), "/metrics")
                  .find("503 Service Unavailable"),
              std::string::npos);

    pub.publish(obs::ProgressSample{});

    std::string metrics = httpRequest(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(
        metrics.find("# TYPE asyncclock_detector_ops_processed "
                     "counter"),
        std::string::npos);
    EXPECT_NE(metrics.find("asyncclock_run_info{backend=\"sparse\","
                           "model=\"looper\"} 1"),
              std::string::npos);

    std::string mj = httpBody(httpRequest(server.port(),
                                          "/metrics.json"));
    EXPECT_TRUE(validJson(mj)) << mj;
    EXPECT_NE(mj.find("\"asyncclock-metrics-v2\""),
              std::string::npos);
    EXPECT_NE(mj.find("\"seq\":1"), std::string::npos);

    std::string progress = httpBody(httpRequest(server.port(),
                                                "/progress"));
    EXPECT_TRUE(validJson(progress)) << progress;

    EXPECT_NE(httpRequest(server.port(), "/nope").find("404"),
              std::string::npos);
    EXPECT_NE(httpRequest(server.port(), "/metrics", "POST")
                  .find("405"),
              std::string::npos);

    EXPECT_GE(server.requestsServed(), 7u);
    server.stop();
}

TEST(TelemetryServer, RepeatedStartStopIsDeathFree)
{
    obs::MetricsRegistry reg;
    obs::SnapshotPublisher pub(reg, 0);
    pub.publish(obs::ProgressSample{});
    for (int round = 0; round < 3; ++round) {
        obs::TelemetryServer server(pub);
        ASSERT_TRUE(server.start(0));
        EXPECT_NE(httpRequest(server.port(), "/healthz")
                      .find("200 OK"),
                  std::string::npos);
        server.stop();
        server.stop();  // idempotent
        // A fresh server can rebind immediately.
        ASSERT_TRUE(server.start(0));
        // Destructor stops the second incarnation.
    }
}

/** The TSan target: a detector run publishing on its own thread while
 * a scraper hammers every endpoint from another. Scrapes must only
 * touch frozen snapshots, never the live registry. */
TEST(TelemetryServer, ConcurrentScrapeWhileDetecting)
{
    workload::AppProfile profile =
        workload::profileByName("AnyMemo", 0.005);
    workload::GeneratedApp app = workload::generateApp(profile);

    obs::MetricsRegistry registry;
    report::FastTrackChecker checker;
    core::AsyncClockDetector det(app.trace, checker);
    det.attachObs(obs::ObsContext{&registry});

    obs::SnapshotPublisher pub(registry, 0);
    obs::TelemetryServer server(pub);
    ASSERT_TRUE(server.start(0));
    std::uint16_t port = server.port();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> scrapes{0};
    std::thread scraper([&] {
        const char *paths[] = {"/metrics", "/metrics.json",
                               "/progress", "/healthz"};
        unsigned k = 0;
        while (!done.load(std::memory_order_relaxed)) {
            if (!httpRequest(port, paths[k++ % 4]).empty())
                scrapes.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // Pipeline thread: process + publish, the analyzer loop's shape.
    std::uint64_t n = 0;
    while (det.processNext()) {
        if ((++n % 64) == 0) {
            obs::ProgressSample s;
            s.ops = n;
            s.races = checker.races().size();
            pub.publishIfDue(s);
        }
    }
    obs::ProgressSample last;
    last.ops = n;
    pub.publish(last);

    done.store(true, std::memory_order_relaxed);
    scraper.join();
    server.stop();

    EXPECT_GT(n, 0u);
    EXPECT_GT(scrapes.load(), 0u);
    auto snap = pub.latest();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->progress.ops, n);
}

// ---------------------------------------------------------------------
// EventLog

TEST(EventLog, WritesWellFormedJsonl)
{
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    {
        obs::EventLog log(f);
        log.log(obs::EventLog::Severity::Info, "checkpoint.saved",
                "1024 access(es) checked", 4096);
        log.log(obs::EventLog::Severity::Warn, "pressure.shrink",
                "window halved to 60000 ms", 5000);
        // Hostile message: quotes, backslash, newline, control char.
        log.log(obs::EventLog::Severity::Error, "shard.watchdog",
                "path \"C:\\tmp\"\nnext\tline", 6000);
        EXPECT_EQ(log.eventsLogged(), 3u);
    }

    std::rewind(f);
    std::vector<std::string> lines;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), f))
        lines.emplace_back(buf);
    std::fclose(f);

    ASSERT_EQ(lines.size(), 3u);
    for (std::size_t k = 0; k < lines.size(); ++k) {
        std::string line = lines[k];
        ASSERT_FALSE(line.empty());
        ASSERT_EQ(line.back(), '\n');
        line.pop_back();
        EXPECT_TRUE(validJson(line)) << line;
        std::size_t p = line.find("\"seq\":");
        ASSERT_NE(p, std::string::npos);
        std::uint64_t seq =
            std::strtoull(line.c_str() + p + 6, nullptr, 10);
        EXPECT_EQ(seq, k);  // monotonic, gap-free, from 0
    }
    EXPECT_NE(lines[0].find("\"sev\":\"info\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"kind\":\"checkpoint.saved\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"op\":4096"), std::string::npos);
    EXPECT_NE(lines[1].find("\"sev\":\"warn\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"sev\":\"error\""), std::string::npos);
}

TEST(EventLog, ConcurrentWritersKeepSeqTotalOrder)
{
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    constexpr unsigned kThreads = 4, kPerThread = 50;
    {
        obs::EventLog log(f);
        std::vector<std::thread> writers;
        for (unsigned t = 0; t < kThreads; ++t) {
            writers.emplace_back([&log, t] {
                for (unsigned k = 0; k < kPerThread; ++k)
                    log.log(obs::EventLog::Severity::Info,
                            "shard.watchdog", "tick", t * 1000 + k);
            });
        }
        for (std::thread &t : writers)
            t.join();
        EXPECT_EQ(log.eventsLogged(), kThreads * kPerThread);
    }

    std::rewind(f);
    char buf[4096];
    std::uint64_t count = 0;
    while (std::fgets(buf, sizeof(buf), f)) {
        std::string line(buf);
        line.pop_back();
        EXPECT_TRUE(validJson(line)) << line;
        std::size_t p = line.find("\"seq\":");
        ASSERT_NE(p, std::string::npos);
        std::uint64_t seq =
            std::strtoull(line.c_str() + p + 6, nullptr, 10);
        EXPECT_EQ(seq, count);  // gap-free despite contention
        ++count;
    }
    std::fclose(f);
    EXPECT_EQ(count, kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// WarnTap

TEST(WarnTap, CountsEveryWarnAndSuppressedOnes)
{
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    obs::MetricsRegistry reg;
    {
        obs::EventLog events(f);
        obs::WarnTap tap(reg, &events);
        // A key unique to this test: the rate limiter's state is
        // process-global and never resets.
        const std::string key = "telemetry_test.warn_tap";
        for (int k = 0; k < 8; ++k)
            warnRateLimited(key, "synthetic warning", /*limit=*/3);
        warn("plain warning");

        obs::MetricsSnapshot snap = reg.snapshot();
        std::uint64_t total = 0, suppressed = 0;
        for (const auto &[n, v] : snap.counters) {
            if (n == "log.warnings_total")
                total = v;
            if (n == "log.warnings_suppressed")
                suppressed = v;
        }
        EXPECT_EQ(total, 9u);       // all 8 rate-limited + 1 plain
        EXPECT_EQ(suppressed, 5u);  // the 5 past the limit of 3
        // Only non-suppressed calls become events: 3 + 1.
        EXPECT_EQ(events.eventsLogged(), 4u);
    }
    std::fclose(f);

    // The tap is gone: further warns must not touch the registry.
    warnOnce("telemetry_test.after_tap", "untapped");
    obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto &[n, v] : snap.counters) {
        if (n == "log.warnings_total") {
            EXPECT_EQ(v, 9u);
        }
    }
}

// ---------------------------------------------------------------------
// TaskGraph observability

TEST(TaskGraphObs, GenerationRecordsCountersAndGauges)
{
    obs::MetricsRegistry reg;
    workload::AsyncProfile profile =
        workload::asyncProfileByName("AsyncFanOut");
    profile.obs.metrics = &reg;
    workload::GeneratedAsyncApp app =
        workload::generateAsyncApp(profile);

    obs::MetricsSnapshot snap = reg.snapshot();
    std::uint64_t spawned = 0, settled = 0, cancelled = 0;
    for (const auto &[n, v] : snap.counters) {
        if (n == "taskgraph.tasks_spawned")
            spawned = v;
        if (n == "taskgraph.tasks_settled")
            settled = v;
        if (n == "taskgraph.tasks_cancelled")
            cancelled = v;
    }
    EXPECT_GT(spawned, 0u);
    // Every spawned task eventually settles (run() drains the graph).
    EXPECT_EQ(settled, spawned);
    EXPECT_EQ(cancelled, app.cancelledTasks);

    bool sawParked = false, sawFree = false, sawPeak = false;
    for (const auto &[n, v] : snap.gauges) {
        if (n == "taskgraph.parked") {
            sawParked = true;
            EXPECT_EQ(v, 0);  // nothing left parked after the drain
        }
        if (n == "taskgraph.executors_free") {
            sawFree = true;
            EXPECT_EQ(v, static_cast<std::int64_t>(profile.executors));
        }
        if (n == "taskgraph.ready_peak") {
            sawPeak = true;
            EXPECT_GT(v, 0);
        }
    }
    EXPECT_TRUE(sawParked);
    EXPECT_TRUE(sawFree);
    EXPECT_TRUE(sawPeak);
}

// ---------------------------------------------------------------------
// Per-phase latency attribution

TEST(PhaseTiming, HistogramsCoverTheRun)
{
    workload::AppProfile profile =
        workload::profileByName("AnyMemo", 0.005);
    workload::GeneratedApp app = workload::generateApp(profile);

    obs::MetricsRegistry reg;
    report::FastTrackChecker checker;
    core::DetectorConfig cfg;
    cfg.phaseTiming = true;
    core::AsyncClockDetector det(app.trace, checker, cfg);
    det.attachObs(obs::ObsContext{&reg});
    det.runAll();
    ASSERT_GT(det.opsProcessed(), 0u);

    // The run.info gauge marks the model.
    obs::MetricsSnapshot snap = reg.snapshot();
    std::string info = obs::seriesName("run.info", {{"model", "looper"}});
    bool sawInfo = false;
    for (const auto &[n, v] : snap.gauges) {
        if (n == info) {
            sawInfo = true;
            EXPECT_EQ(v, 1);
        }
    }
    EXPECT_TRUE(sawInfo);

    // One histogram per phase, fully labeled; decode and model_apply
    // are observed on every op.
    const char *phases[] = {"decode", "model_apply", "clock_join",
                            "race_check", "gc_sweep"};
    std::uint64_t totalNs = 0;
    for (const char *phase : phases) {
        std::string name = obs::seriesName(
            "detector.phase_ns", {{"phase", phase}, {"model", "looper"}});
        bool found = false;
        for (const obs::HistogramSnapshot &h : snap.histograms) {
            if (h.name != name)
                continue;
            found = true;
            totalNs += h.sum;
            if (std::strcmp(phase, "decode") == 0 ||
                std::strcmp(phase, "model_apply") == 0) {
                EXPECT_EQ(h.count, det.opsProcessed()) << phase;
            }
        }
        EXPECT_TRUE(found) << name;
    }

    // The five buckets partition the measured per-op wall time: their
    // totals equal the engine's aggregate exactly.
    const std::uint64_t *totals = det.phaseTotalsNs();
    std::uint64_t engineTotal = 0;
    for (std::size_t k = 0; k < core::kNumPhases; ++k)
        engineTotal += totals[k];
    EXPECT_GT(engineTotal, 0u);
    EXPECT_EQ(totalNs, engineTotal);
}

TEST(PhaseTiming, OffByDefaultAndUnregistered)
{
    workload::AppProfile profile =
        workload::profileByName("AnyMemo", 0.005);
    workload::GeneratedApp app = workload::generateApp(profile);

    obs::MetricsRegistry reg;
    report::FastTrackChecker checker;
    core::AsyncClockDetector det(app.trace, checker);
    det.attachObs(obs::ObsContext{&reg});
    det.runAll();

    obs::MetricsSnapshot snap = reg.snapshot();
    for (const obs::HistogramSnapshot &h : snap.histograms)
        EXPECT_EQ(h.name.find("detector.phase_ns"),
                  std::string::npos);
    const std::uint64_t *totals = det.phaseTotalsNs();
    for (std::size_t k = 0; k < core::kNumPhases; ++k)
        EXPECT_EQ(totals[k], 0u);
}

} // namespace
} // namespace asyncclock

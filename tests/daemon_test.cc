/**
 * @file
 * Always-on daemon tests, driven in-process through Daemon::handle()
 * with workers = 0 so every pump is deterministic: session lifecycle
 * against single-shot report byte-identity, eviction + transparent
 * resume by replay from the spool, SIGKILL-style crash recovery,
 * per-session fault isolation (a poisoned session quarantines alone),
 * admission control (backpressure, capacity, duplicate ids), the
 * ingest-gap protocol, graceful drain, and session-id validation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/engine.hh"
#include "daemon/daemon.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "trace/trace_io.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

namespace fs = std::filesystem;
using daemon::Daemon;
using daemon::DaemonConfig;
using obs::HttpRequest;
using obs::HttpResponse;

std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
looperTraceText(std::uint64_t seed, unsigned events)
{
    workload::AppProfile p;
    p.seed = seed;
    p.looperEvents = events;
    return trace::writeTraceToString(workload::generateApp(p).trace);
}

std::string
asyncTraceText(std::uint64_t seed, std::uint32_t rootTasks = 10)
{
    workload::AsyncProfile p;
    p.seed = seed;
    p.rootTasks = rootTasks;
    return trace::writeTraceToString(
        workload::generateAsyncApp(p).trace);
}

/** Does @p dir hold a `.ckpt` file? Sessions keep no state but their
 * spool, meta and report, so none may ever appear. */
bool
hasCkptFile(const std::string &dir)
{
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".ckpt")
            return true;
    return false;
}

/** The report a single-shot streaming run over @p data produces —
 * the byte-identity oracle for every daemon path. */
std::string
singleShotReport(const std::string &data)
{
    std::istringstream in(data);
    trace::StreamingTextSource src(in);
    EXPECT_TRUE(src.ok()) << src.error();
    report::FastTrackChecker checker;
    core::DetectorEngine eng(
        core::modelForDialect(src.meta().dialect()), src, checker,
        core::DetectorConfig{});
    while (eng.processNext()) {
    }
    EXPECT_TRUE(src.ok()) << src.error();
    report::RaceAnalyzer analyzer(eng.meta());
    report::ReportSummary summary =
        analyzer.analyze(checker.races(), report::FilterConfig{});
    core::appendRunNotes(summary.notes, src.recordsSkipped(),
                         &eng.counters());
    return report::renderReportText(analyzer, summary);
}

HttpRequest
req(std::string method, std::string path, std::string query = "",
    std::string body = "")
{
    HttpRequest r;
    r.method = std::move(method);
    r.path = std::move(path);
    r.query = std::move(query);
    r.body = std::move(body);
    return r;
}

std::string
header(const HttpResponse &resp, const std::string &key)
{
    for (const auto &[k, v] : resp.headers)
        if (k == key)
            return v;
    return "";
}

HttpResponse
create(Daemon &d, const std::string &id)
{
    return d.handle(req("POST", "/v1/sessions", "id=" + id));
}

HttpResponse
post(Daemon &d, const std::string &id, const std::string &bytes,
     std::uint64_t offset)
{
    return d.handle(req("POST", "/v1/sessions/" + id + "/trace",
                        "offset=" + std::to_string(offset), bytes));
}

/** Stream @p data in @p chunkBytes-sized offsets, pumping between
 * chunks like the worker pool would. */
void
feedAll(Daemon &d, const std::string &id, const std::string &data,
        std::size_t chunkBytes = 16 * 1024)
{
    for (std::size_t off = 0; off < data.size(); off += chunkBytes) {
        HttpResponse r =
            post(d, id, data.substr(off, chunkBytes), off);
        ASSERT_EQ(r.status, 200) << r.body;
        d.pumpAllForTest();
    }
}

HttpResponse
finish(Daemon &d, const std::string &id)
{
    return d.handle(
        req("POST", "/v1/sessions/" + id + "/finish"));
}

/** Poll the report, pumping between 202s. */
HttpResponse
fetchReport(Daemon &d, const std::string &id)
{
    HttpResponse r;
    for (int i = 0; i < 200; ++i) {
        r = d.handle(req("GET", "/v1/sessions/" + id + "/report"));
        if (r.status != 202)
            return r;
        d.pumpAllForTest();
    }
    return r;
}

DaemonConfig
testConfig(const std::string &stateDir)
{
    DaemonConfig cfg;
    cfg.stateDir = stateDir;
    cfg.workers = 0;  // deterministic: tests pump explicitly
    return cfg;
}

// ----- lifecycle and byte-identity ------------------------------------

TEST(Daemon, MixedSessionsMatchSingleShotByteForByte)
{
    const std::string dir = freshDir("daemon_lifecycle");
    const std::string looper = looperTraceText(11, 60);
    const std::string async = asyncTraceText(7);

    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    EXPECT_EQ(create(d, "loop").status, 201);
    EXPECT_EQ(create(d, "coro").status, 201);

    // Interleave the two sessions' ingest.
    feedAll(d, "loop", looper, 4 * 1024);
    feedAll(d, "coro", async, 4 * 1024);
    EXPECT_EQ(finish(d, "loop").status, 200);
    EXPECT_EQ(finish(d, "coro").status, 200);

    HttpResponse r1 = fetchReport(d, "loop");
    HttpResponse r2 = fetchReport(d, "coro");
    ASSERT_EQ(r1.status, 200) << r1.body;
    ASSERT_EQ(r2.status, 200) << r2.body;
    EXPECT_EQ(r1.body, singleShotReport(looper));
    EXPECT_EQ(r2.body, singleShotReport(async));
}

TEST(Daemon, InfoReportsProgress)
{
    const std::string dir = freshDir("daemon_info");
    const std::string data = looperTraceText(3, 40);
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "s").status, 201);
    feedAll(d, "s", data);
    ASSERT_EQ(finish(d, "s").status, 200);
    ASSERT_EQ(fetchReport(d, "s").status, 200);

    HttpResponse info = d.handle(req("GET", "/v1/sessions/s"));
    ASSERT_EQ(info.status, 200);
    EXPECT_NE(info.body.find("\"state\":\"finished\""),
              std::string::npos)
        << info.body;
    EXPECT_NE(info.body.find("\"spooled_bytes\":" +
                             std::to_string(data.size())),
              std::string::npos)
        << info.body;

    HttpResponse list = d.handle(req("GET", "/v1/sessions"));
    EXPECT_NE(list.body.find("\"id\":\"s\""), std::string::npos);
}

// ----- eviction + resume ----------------------------------------------

TEST(Daemon, EvictionAndResumeKeepReportIdentical)
{
    // One input per causality model, each big enough that the engine
    // goes hot well before finish (the live-edge margin is 64 KiB).
    const std::pair<const char *, std::string> inputs[] = {
        {"ev", looperTraceText(5, 4000)},
        {"eva", asyncTraceText(5, 400)},
    };
    for (const auto &[id, data] : inputs) {
        SCOPED_TRACE(id);
        ASSERT_GT(data.size(), 300u * 1024);
        const std::string dir =
            freshDir(std::string("daemon_evict_") + id);

        DaemonConfig cfg = testConfig(dir);
        cfg.memBudgetBytes = 1;  // evict anything resident
        Daemon d(cfg);
        ASSERT_TRUE(d.init().isOk());
        ASSERT_EQ(create(d, id).status, 201);

        // First half: pump until the engine is hot, then let the
        // housekeeper's memory ladder evict it.
        const std::size_t half = data.size() / 2;
        feedAll(d, id, data.substr(0, half));
        d.housekeepForTest();

        const std::string path = std::string("/v1/sessions/") + id;
        HttpResponse info = d.handle(req("GET", path));
        ASSERT_NE(info.body.find("\"state\":\"evicted\""),
                  std::string::npos)
            << "session did not evict: " << info.body;
        EXPECT_FALSE(hasCkptFile(dir));

        // Second half + finish: the session rebuilds from its spool
        // and replays transparently.
        for (std::size_t off = half; off < data.size();
             off += 16 * 1024) {
            ASSERT_EQ(post(d, id, data.substr(off, 16 * 1024), off)
                          .status,
                      200);
            d.pumpAllForTest();
        }
        ASSERT_EQ(finish(d, id).status, 200);
        HttpResponse r = fetchReport(d, id);
        ASSERT_EQ(r.status, 200) << r.body;
        EXPECT_EQ(r.body, singleShotReport(data));

        info = d.handle(req("GET", path));
        EXPECT_NE(info.body.find("\"evictions\":"), std::string::npos);
        EXPECT_EQ(info.body.find("\"evictions\":0"), std::string::npos)
            << info.body;
        EXPECT_EQ(info.body.find("\"resumes\":0"), std::string::npos)
            << info.body;
        EXPECT_FALSE(hasCkptFile(dir));
    }
}

TEST(Daemon, IdleSessionsEvict)
{
    const std::string dir = freshDir("daemon_idle");
    const std::string data = looperTraceText(5, 4000);
    DaemonConfig cfg = testConfig(dir);
    cfg.idleTimeoutMs = 1;
    Daemon d(cfg);
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "idle").status, 201);
    feedAll(d, "idle", data.substr(0, data.size() / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    d.housekeepForTest();
    HttpResponse info = d.handle(req("GET", "/v1/sessions/idle"));
    EXPECT_NE(info.body.find("\"state\":\"evicted\""),
              std::string::npos)
        << info.body;
}

// ----- crash recovery -------------------------------------------------

TEST(Daemon, CrashAndRestartRecoversByteIdenticalReport)
{
    const std::string dir = freshDir("daemon_crash");
    const std::string data = looperTraceText(9, 4000);
    const std::size_t cut = (2 * data.size()) / 3;

    {
        Daemon d(testConfig(dir));
        ASSERT_TRUE(d.init().isOk());
        ASSERT_EQ(create(d, "cr").status, 201);
        feedAll(d, "cr", data.substr(0, cut));
        d.crashStop();  // SIGKILL stand-in: no flush, no drain
    }

    Daemon d2(testConfig(dir));
    ASSERT_TRUE(d2.init().isOk());
    EXPECT_EQ(d2.sessionCount(), 1u);

    // The client re-creates, learns the id is taken, resyncs from the
    // daemon's spooled offset, and continues.
    EXPECT_EQ(create(d2, "cr").status, 409);
    HttpResponse info = d2.handle(req("GET", "/v1/sessions/cr"));
    ASSERT_NE(info.body.find("\"spooled_bytes\":" +
                             std::to_string(cut)),
              std::string::npos)
        << info.body;
    for (std::size_t off = cut; off < data.size();
         off += 16 * 1024) {
        ASSERT_EQ(post(d2, "cr", data.substr(off, 16 * 1024), off)
                      .status,
                  200);
        d2.pumpAllForTest();
    }
    ASSERT_EQ(finish(d2, "cr").status, 200);
    HttpResponse r = fetchReport(d2, "cr");
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_EQ(r.body, singleShotReport(data));
}

TEST(Daemon, RestartAfterEvictionRebuildsFromSpool)
{
    const std::string dir = freshDir("daemon_crash_evicted");
    const std::string data = looperTraceText(13, 4000);
    const std::size_t cut = data.size() / 2;

    {
        DaemonConfig cfg = testConfig(dir);
        cfg.memBudgetBytes = 1;
        Daemon d(cfg);
        ASSERT_TRUE(d.init().isOk());
        ASSERT_EQ(create(d, "ck").status, 201);
        feedAll(d, "ck", data.substr(0, cut));
        d.housekeepForTest();  // evict: the spool is all that is left
        HttpResponse info = d.handle(req("GET", "/v1/sessions/ck"));
        ASSERT_NE(info.body.find("\"state\":\"evicted\""),
                  std::string::npos)
            << info.body;
        EXPECT_FALSE(hasCkptFile(dir));
        d.crashStop();
    }

    Daemon d2(testConfig(dir));
    ASSERT_TRUE(d2.init().isOk());
    for (std::size_t off = cut; off < data.size();
         off += 16 * 1024) {
        ASSERT_EQ(post(d2, "ck", data.substr(off, 16 * 1024), off)
                      .status,
                  200);
        d2.pumpAllForTest();
    }
    ASSERT_EQ(finish(d2, "ck").status, 200);
    HttpResponse r = fetchReport(d2, "ck");
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_EQ(r.body, singleShotReport(data));
}

// ----- fault isolation ------------------------------------------------

TEST(Daemon, PoisonedSessionQuarantinesAloneAndNeighborSurvives)
{
    const std::string dir = freshDir("daemon_poison");
    const std::string good = looperTraceText(21, 60);
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "good").status, 201);
    ASSERT_EQ(create(d, "bad").status, 201);

    feedAll(d, "good", good);
    // Valid header, then structurally damaged entity table.
    ASSERT_EQ(post(d, "bad",
                   "asyncclock-trace v1\nthread 0 looper main\n"
                   "var GARBAGE not-a-number\n",
                   0)
                  .status,
              200);
    ASSERT_EQ(finish(d, "good").status, 200);
    ASSERT_EQ(finish(d, "bad").status, 200);

    HttpResponse bad = fetchReport(d, "bad");
    EXPECT_EQ(bad.status, 410);
    EXPECT_NE(bad.body.find("quarantined"), std::string::npos)
        << bad.body;

    // Further ingest into the quarantined session is refused...
    EXPECT_EQ(post(d, "bad", "more", 999).status, 410);

    // ...and the neighbor is untouched.
    HttpResponse goodR = fetchReport(d, "good");
    ASSERT_EQ(goodR.status, 200) << goodR.body;
    EXPECT_EQ(goodR.body, singleShotReport(good));
}

TEST(Daemon, MidStreamGarbageOnlyQuarantinesAtFinish)
{
    // Pre-finish damage could still be a torn record at the live
    // edge, so the verdict must wait for finish — and then be
    // deterministic.
    const std::string dir = freshDir("daemon_garbage");
    const std::string data = looperTraceText(23, 4000);
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "g").status, 201);
    const std::size_t half = data.size() / 2;
    feedAll(d, "g", data.substr(0, half));
    ASSERT_EQ(post(d, "g", "\x7f\x13garbage-not-a-trace\n", half)
                  .status,
              200);
    d.pumpAllForTest();
    HttpResponse info = d.handle(req("GET", "/v1/sessions/g"));
    EXPECT_EQ(info.body.find("\"state\":\"quarantined\""),
              std::string::npos)
        << "quarantined before finish: " << info.body;
    ASSERT_EQ(finish(d, "g").status, 200);
    HttpResponse r = fetchReport(d, "g");
    EXPECT_EQ(r.status, 410) << r.body;
}

// ----- admission control ----------------------------------------------

TEST(Daemon, DuplicateAndInvalidCreatesRefused)
{
    const std::string dir = freshDir("daemon_dup");
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    EXPECT_EQ(create(d, "x").status, 201);
    EXPECT_EQ(create(d, "x").status, 409);
    EXPECT_EQ(create(d, "").status, 400);
    EXPECT_EQ(create(d, "../evil").status, 400);
    EXPECT_EQ(create(d, ".hidden").status, 400);
    EXPECT_EQ(create(d, std::string(65, 'a')).status, 400);
}

TEST(Daemon, CapacityRefusalCarriesRetryAfter)
{
    const std::string dir = freshDir("daemon_cap");
    DaemonConfig cfg = testConfig(dir);
    cfg.maxSessions = 1;
    Daemon d(cfg);
    ASSERT_TRUE(d.init().isOk());
    EXPECT_EQ(create(d, "one").status, 201);
    HttpResponse r = create(d, "two");
    EXPECT_EQ(r.status, 429);
    EXPECT_NE(header(r, "Retry-After"), "");
}

TEST(Daemon, BackpressureReturns429UntilPumped)
{
    const std::string dir = freshDir("daemon_backpressure");
    DaemonConfig cfg = testConfig(dir);
    cfg.queueChunks = 1;
    cfg.admissionTimeoutMs = 1;
    Daemon d(cfg);
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "bp").status, 201);

    const std::string data = looperTraceText(2, 40);
    ASSERT_EQ(post(d, "bp", data.substr(0, 1024), 0).status, 200);
    HttpResponse r = post(d, "bp", data.substr(1024, 1024), 1024);
    EXPECT_EQ(r.status, 429);
    EXPECT_EQ(header(r, "Retry-After"), "1");

    d.pumpAllForTest();  // drains the queue into the spool
    EXPECT_EQ(post(d, "bp", data.substr(1024, 1024), 1024).status,
              200);
}

TEST(Daemon, IngestGapRecordedAndRetransmitAbsorbed)
{
    const std::string dir = freshDir("daemon_gap");
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "gap").status, 201);
    const std::string data = looperTraceText(4, 40);

    ASSERT_EQ(post(d, "gap", data.substr(0, 2048), 0).status, 200);
    d.pumpAllForTest();
    // A gap: bytes for offset 4096 when only 2048 are spooled.
    ASSERT_EQ(post(d, "gap", data.substr(4096, 1024), 4096).status,
              200);
    d.pumpAllForTest();
    HttpResponse info = d.handle(req("GET", "/v1/sessions/gap"));
    EXPECT_NE(info.body.find("\"ingest_error\""), std::string::npos)
        << info.body;
    EXPECT_NE(info.body.find("\"spooled_bytes\":2048"),
              std::string::npos)
        << info.body;

    // An overlapping retransmit is absorbed, and the stream recovers.
    for (std::size_t off = 1024; off < data.size(); off += 2048) {
        ASSERT_EQ(post(d, "gap", data.substr(off, 2048), off).status,
                  200);
        d.pumpAllForTest();
    }
    ASSERT_EQ(finish(d, "gap").status, 200);
    HttpResponse r = fetchReport(d, "gap");
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_EQ(r.body, singleShotReport(data));
}

// ----- drain and deletion ---------------------------------------------

TEST(Daemon, DrainFlushesFinishedAndUnfinishedSessions)
{
    const std::string dir = freshDir("daemon_drain");
    const std::string done = looperTraceText(6, 60);
    const std::string part = looperTraceText(8, 4000);

    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "done").status, 201);
    ASSERT_EQ(create(d, "part").status, 201);
    feedAll(d, "done", done);
    ASSERT_EQ(finish(d, "done").status, 200);
    feedAll(d, "part", part.substr(0, part.size() / 2));

    d.drain();

    // Finished session ran to its final report; the unfinished hot
    // one was evicted to its spool; admissions are now refused.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "done.report"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "part.spool"));
    EXPECT_FALSE(hasCkptFile(dir));
    HttpResponse info = d.handle(req("GET", "/v1/sessions/part"));
    EXPECT_NE(info.body.find("\"state\":\"evicted\""),
              std::string::npos)
        << info.body;
    EXPECT_EQ(create(d, "late").status, 503);
    EXPECT_EQ(post(d, "part", "x", 0).status, 503);

    std::ifstream in(fs::path(dir) / "done.report",
                     std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, singleShotReport(done));
}

TEST(Daemon, DeleteForgetsSessionAndRemovesFiles)
{
    const std::string dir = freshDir("daemon_delete");
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "del").status, 201);
    ASSERT_EQ(post(d, "del", "asyncclock-trace v1\n", 0).status,
              200);
    d.pumpAllForTest();
    EXPECT_EQ(d.handle(req("DELETE", "/v1/sessions/del")).status,
              200);
    EXPECT_EQ(d.handle(req("GET", "/v1/sessions/del")).status, 404);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "del.spool"));
    EXPECT_EQ(create(d, "del").status, 201);  // id reusable
}

TEST(Daemon, HealthAndMetricsEndpointsServe)
{
    const std::string dir = freshDir("daemon_health");
    Daemon d(testConfig(dir));
    ASSERT_TRUE(d.init().isOk());
    ASSERT_EQ(create(d, "m").status, 201);
    d.housekeepForTest();
    HttpResponse hz = d.handle(req("GET", "/healthz"));
    EXPECT_EQ(hz.status, 200);
    EXPECT_NE(hz.body.find("\"sessions\":1"), std::string::npos)
        << hz.body;
    HttpResponse m = d.handle(req("GET", "/metrics"));
    EXPECT_EQ(m.status, 200);
    EXPECT_NE(m.body.find("daemon_sessions"), std::string::npos)
        << m.body;
    // The predictive-tier verdict family is pre-registered at zero so
    // scrapers always see the full series set.
    for (const char *verdict : {"confirmed", "infeasible", "dropped"}) {
        EXPECT_NE(m.body.find(std::string("predicted_candidates_total"
                                          "{verdict=\"") +
                              verdict + "\"} 0"),
                  std::string::npos)
            << m.body;
    }
}

// ----- session ids ----------------------------------------------------

TEST(Daemon, ValidSessionIdRules)
{
    EXPECT_TRUE(daemon::validSessionId("a"));
    EXPECT_TRUE(daemon::validSessionId("run-2.looper_A"));
    EXPECT_FALSE(daemon::validSessionId(""));
    EXPECT_FALSE(daemon::validSessionId(".dot"));
    EXPECT_FALSE(daemon::validSessionId("a/b"));
    EXPECT_FALSE(daemon::validSessionId("a b"));
    EXPECT_FALSE(daemon::validSessionId(std::string(65, 'x')));
}

} // namespace
} // namespace asyncclock

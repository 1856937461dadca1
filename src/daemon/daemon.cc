#include "daemon/daemon.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "support/format.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace asyncclock::daemon {

using obs::HttpRequest;
using obs::HttpResponse;

namespace {

SessionConfig
makeSessionConfig(const DaemonConfig &cfg, obs::MetricsRegistry *reg)
{
    SessionConfig out;
    out.stateDir = cfg.stateDir;
    out.queueChunks = cfg.queueChunks;
    out.admissionTimeout =
        std::chrono::milliseconds(cfg.admissionTimeoutMs);
    out.detector = cfg.detector;
    out.filters = cfg.filters;
    out.events = cfg.events;
    out.metrics = reg;
    return out;
}

HttpResponse
retryLater(int status, const std::string &why,
           const char *retryAfter)
{
    HttpResponse r = HttpResponse::text(status, why);
    r.headers.push_back({"Retry-After", retryAfter});
    return r;
}

} // namespace

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      sessionCfg_(makeSessionConfig(cfg_, &reg_)),
      runq_(std::make_unique<
            support::BoundedQueue<std::shared_ptr<Session>>>(
          cfg_.maxSessions + cfg_.workers + 4)),
      pub_(reg_),
      listener_([this](const HttpRequest &req) { return handle(req); },
                cfg_.httpThreads)
{
}

Daemon::~Daemon()
{
    drain();
}

Status
Daemon::init()
{
    // Pre-register the predictive-tier counters at zero so the
    // /metrics scrape always exports the full verdict family, even
    // though daemon sessions cannot run --predict themselves yet
    // (dashboards alert on absent series; a future in-daemon predict
    // pass will increment these).
    for (const char *verdict : {"confirmed", "infeasible", "dropped"})
        reg_.counter("predicted_candidates_total",
                     {{"verdict", verdict}});
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(cfg_.stateDir, ec);
    if (ec)
        return Status::error(ErrCode::IoError,
                             "cannot create state dir " + cfg_.stateDir +
                                 ": " + ec.message());
    // Adopt whatever a previous process — graceful or SIGKILLed —
    // left behind: every <id>.spool is a session.
    for (const fs::directory_entry &entry :
         fs::directory_iterator(cfg_.stateDir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file())
            continue;
        const fs::path &p = entry.path();
        if (p.extension() != ".spool")
            continue;
        std::string id = p.stem().string();
        if (!validSessionId(id))
            continue;
        auto s = std::make_shared<Session>(id, sessionCfg_);
        if (Status st = s->recover(); !st) {
            warn(strf("daemon: cannot recover session %s: %s",
                      id.c_str(), st.toString().c_str()));
            continue;
        }
        std::lock_guard<std::mutex> lock(smu_);
        sessions_[id] = s;
        // A session whose client already finished needs no further
        // input: put it straight back to work toward its report.
        if (s->ingestFinished())
            schedule(s);
    }
    if (cfg_.events)
        cfg_.events->log(obs::EventLog::Severity::Info, "daemon.init",
                         strf("%zu session(s) recovered",
                              sessionCount()));
    return Status::ok();
}

bool
Daemon::start(std::uint16_t port)
{
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    housekeeper_ = std::thread([this] { housekeeperLoop(); });
    return listener_.start(port);
}

std::size_t
Daemon::sessionCount()
{
    std::lock_guard<std::mutex> lock(smu_);
    return sessions_.size();
}

std::shared_ptr<Session>
Daemon::findSession(const std::string &id)
{
    std::lock_guard<std::mutex> lock(smu_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

void
Daemon::schedule(const std::shared_ptr<Session> &s)
{
    if (!s->trySchedule())
        return;  // already queued or being worked
    if (cfg_.workers == 0) {
        // No worker pool (test mode): pumpAllForTest() drives every
        // session directly, so queue entries would only pile up.
        s->clearScheduled();
        return;
    }
    if (!runq_->push(s))
        s->clearScheduled();  // draining: flushed explicitly instead
}

void
Daemon::workerLoop()
{
    std::shared_ptr<Session> s;
    while (runq_->pop(s)) {
        s->clearScheduled();
        if (s->work(cfg_.opSliceOps))
            schedule(s);
        s.reset();
    }
}

void
Daemon::pumpAllForTest()
{
    for (;;) {
        std::vector<std::shared_ptr<Session>> all;
        {
            std::lock_guard<std::mutex> lock(smu_);
            for (auto &[id, s] : sessions_)
                all.push_back(s);
        }
        bool any = false;
        for (auto &s : all) {
            s->clearScheduled();
            if (s->work(cfg_.opSliceOps))
                any = true;
        }
        if (!any)
            return;
    }
}

void
Daemon::housekeeperLoop()
{
    std::unique_lock<std::mutex> lock(hkMu_);
    while (!hkStop_) {
        hkCv_.wait_for(lock, std::chrono::milliseconds(50));
        if (hkStop_)
            return;
        lock.unlock();
        housekeepOnce();
        lock.lock();
    }
}

void
Daemon::housekeepOnce()
{
    std::vector<std::shared_ptr<Session>> all;
    {
        std::lock_guard<std::mutex> lock(smu_);
        for (auto &[id, s] : sessions_)
            all.push_back(s);
    }

    const auto now = std::chrono::steady_clock::now();
    std::uint64_t counts[4] = {};
    std::uint64_t mem = 0;
    std::uint64_t totalOps = 0, totalRaces = 0;
    // (session, resident bytes) of hot sessions, for the ladder.
    std::vector<std::pair<std::shared_ptr<Session>, std::uint64_t>>
        hot;
    for (auto &s : all) {
        SessionInfo info = s->info();
        ++counts[static_cast<std::size_t>(info.state)];
        totalOps += info.opsProcessed;
        totalRaces += info.racesFound;
        std::uint64_t bytes = s->memoryBytes();
        mem += bytes;
        if (bytes > 0)
            hot.push_back({s, bytes});

        // Watchdog: one overlong work() call means this session's
        // pump is wedged (poisoned trace, pathological input). Poison
        // it; the pump quarantines at its next op boundary, isolating
        // the stall from every other session.
        if (cfg_.watchdogMs > 0 &&
            s->workingForUs() > cfg_.watchdogMs * 1000) {
            s->poison();
            reg_.counter("daemon.watchdog_fires_total").inc();
            if (cfg_.events)
                cfg_.events->log(obs::EventLog::Severity::Warn,
                                 "daemon.watchdog",
                                 s->id() + ": work slice over budget");
        }

        // Idle ladder: a client that went quiet should not pin hot
        // detector state forever.
        if (cfg_.idleTimeoutMs > 0 && bytes > 0 &&
            now - s->lastActive() >
                std::chrono::milliseconds(cfg_.idleTimeoutMs)) {
            if (s->tryEvict())
                reg_.counter("daemon.idle_evictions_total").inc();
        }
    }

    // Memory ladder: evict coldest-first until under budget. tryEvict
    // refuses scheduled/active/finished sessions, so the ladder only
    // ever takes truly idle state.
    if (cfg_.memBudgetBytes > 0 && mem > cfg_.memBudgetBytes) {
        std::sort(hot.begin(), hot.end(),
                  [](const auto &a, const auto &b) {
                      return a.first->lastActive() <
                             b.first->lastActive();
                  });
        for (auto &[s, bytes] : hot) {
            if (mem <= cfg_.memBudgetBytes)
                break;
            if (s->tryEvict())
                mem -= std::min(bytes, mem);
        }
    }

    static const char *kStates[4] = {"live", "evicted", "quarantined",
                                     "finished"};
    for (std::size_t i = 0; i < 4; ++i)
        reg_.gauge("daemon.sessions", {{"state", kStates[i]}})
            .set(static_cast<std::int64_t>(counts[i]));
    reg_.gauge("daemon.resident_bytes")
        .set(static_cast<std::int64_t>(mem));
    reg_.gauge("daemon.run_queue_depth")
        .set(static_cast<std::int64_t>(runq_->size()));

    obs::ProgressSample sample;
    sample.ops = totalOps;
    sample.races = totalRaces;
    sample.liveBytes = mem;
    sample.peakBytes = mem;
    pub_.publishIfDue(sample);
}

// ----- HTTP API ------------------------------------------------------

HttpResponse
Daemon::sessionInfoJson(Session &s)
{
    SessionInfo info = s.info();
    JsonWriter w;
    w.beginObject()
        .field("id", s.id())
        .field("state", sessionStateName(info.state))
        .field("finished", info.finished)
        .field("spooled_bytes", info.spooledBytes)
        .field("ops_processed", info.opsProcessed)
        .field("races_found", info.racesFound)
        .field("queued_chunks", info.queuedChunks)
        .field("evictions", info.evictions)
        .field("resumes", info.resumes);
    if (!info.error.empty())
        w.field("error", info.error);
    if (!info.ingestError.empty())
        w.field("ingest_error", info.ingestError);
    w.endObject();
    return HttpResponse::json(200, w.str() + "\n");
}

HttpResponse
Daemon::handleCreate(const HttpRequest &req)
{
    if (draining_.load(std::memory_order_acquire))
        return HttpResponse::text(503, "daemon is draining\n");
    std::string id = req.queryParam("id");
    if (!validSessionId(id))
        return HttpResponse::text(
            400, "missing or invalid session id "
                 "([A-Za-z0-9._-]+, max 64, no leading dot)\n");

    std::lock_guard<std::mutex> lock(smu_);
    if (sessions_.count(id)) {
        reg_.counter("daemon.admission_rejects_total",
                     {{"reason", "duplicate"}})
            .inc();
        return HttpResponse::text(
            409, "session '" + id + "' already exists\n");
    }
    if (sessions_.size() >= cfg_.maxSessions) {
        reg_.counter("daemon.admission_rejects_total",
                     {{"reason", "capacity"}})
            .inc();
        return retryLater(429, "session capacity reached\n", "5");
    }
    auto s = std::make_shared<Session>(id, sessionCfg_);
    if (Status st = s->create(); !st)
        return HttpResponse::text(500, st.toString() + "\n");
    sessions_[id] = s;
    JsonWriter w;
    w.beginObject().field("id", id).field("state", "live").endObject();
    return HttpResponse::json(201, w.str() + "\n");
}

HttpResponse
Daemon::handleSessions(const HttpRequest &req)
{
    // Split "/v1/sessions/<id>[/<action>]".
    static const std::string kPrefix = "/v1/sessions/";
    std::string rest = req.path.substr(kPrefix.size());
    std::string id = rest, action;
    if (std::size_t slash = rest.find('/');
        slash != std::string::npos) {
        id = rest.substr(0, slash);
        action = rest.substr(slash + 1);
    }
    std::shared_ptr<Session> s = findSession(id);
    if (!s)
        return HttpResponse::text(404,
                                  "no session '" + id + "'\n");

    if (action.empty()) {
        if (req.method == "GET")
            return sessionInfoJson(*s);
        if (req.method == "DELETE") {
            {
                std::lock_guard<std::mutex> lock(smu_);
                sessions_.erase(id);
            }
            s->closeIngest();
            s->removeFiles();
            return HttpResponse::json(200, "{\"deleted\":true}\n");
        }
        return HttpResponse::text(405, "method not allowed\n");
    }

    if (action == "trace") {
        if (req.method != "POST")
            return HttpResponse::text(405, "method not allowed\n");
        if (draining_.load(std::memory_order_acquire))
            return HttpResponse::text(503, "daemon is draining\n");
        if (SessionInfo si = s->info();
            si.state == SessionState::Quarantined)
            return HttpResponse::text(
                410, "session quarantined: " + si.error + "\n");
        if (s->ingestFinished())
            return HttpResponse::text(
                409, "session already finished ingest\n");
        IngestChunk chunk;
        chunk.data = req.body;
        std::string off = req.queryParam("offset");
        if (!off.empty())
            chunk.offset = std::strtoll(off.c_str(), nullptr, 10);
        switch (s->offerChunk(std::move(chunk))) {
          case support::PushResult::Pushed:
            schedule(s);
            return HttpResponse::json(200, "{\"queued\":true}\n");
          case support::PushResult::Timeout:
            // Admission control: the analysis is not keeping up with
            // this client; shed the chunk instead of buffering
            // unboundedly.
            reg_.counter("daemon.admission_rejects_total",
                         {{"reason", "backpressure"}})
                .inc();
            return retryLater(
                429, "ingest queue full; retry this chunk\n", "1");
          case support::PushResult::Closed:
            break;
        }
        if (draining_.load(std::memory_order_acquire))
            return HttpResponse::text(503, "daemon is draining\n");
        return HttpResponse::text(
            410, "session quarantined: " + s->info().error + "\n");
    }

    if (action == "finish") {
        if (req.method != "POST")
            return HttpResponse::text(405, "method not allowed\n");
        if (Status st = s->finishIngest(); !st)
            return HttpResponse::text(
                410, "session quarantined: " + st.message() + "\n");
        schedule(s);
        return HttpResponse::json(200, "{\"finished\":true}\n");
    }

    if (action == "report") {
        if (req.method != "GET")
            return HttpResponse::text(405, "method not allowed\n");
        std::string text;
        switch (s->report(text)) {
          case Session::ReportStatus::Ready:
            return HttpResponse::text(200, text);
          case Session::ReportStatus::Pending:
            schedule(s);
            return retryLater(202, "analysis in progress\n", "1");
          case Session::ReportStatus::NotFinished:
            return HttpResponse::text(
                409, "ingest not finished; POST .../finish first\n");
          case Session::ReportStatus::Quarantined:
            return HttpResponse::text(
                410, "session quarantined: " + text + "\n");
        }
    }

    return HttpResponse::text(404, "unknown session action\n");
}

HttpResponse
Daemon::handle(const HttpRequest &req)
{
    const std::string &p = req.path;
    if (p == "/healthz") {
        JsonWriter w;
        w.beginObject()
            .field("status", "ok")
            .field("sessions",
                   static_cast<std::uint64_t>(sessionCount()))
            .field("draining",
                   draining_.load(std::memory_order_acquire))
            .endObject();
        return HttpResponse::json(200, w.str() + "\n");
    }
    if (p == "/metrics" || p == "/metrics.json" || p == "/progress")
        return obs::TelemetryServer::route(pub_, req);

    if (p == "/v1/sessions") {
        if (req.method == "POST")
            return handleCreate(req);
        if (req.method == "GET") {
            JsonWriter w;
            w.beginArray();
            std::vector<std::shared_ptr<Session>> all;
            {
                std::lock_guard<std::mutex> lock(smu_);
                for (auto &[id, s] : sessions_)
                    all.push_back(s);
            }
            for (auto &s : all) {
                SessionInfo info = s->info();
                w.beginObject()
                    .field("id", s->id())
                    .field("state", sessionStateName(info.state))
                    .endObject();
            }
            w.endArray();
            return HttpResponse::json(200, w.str() + "\n");
        }
        return HttpResponse::text(405, "method not allowed\n");
    }
    if (p.rfind("/v1/sessions/", 0) == 0)
        return handleSessions(req);

    return HttpResponse::text(
        404, "unknown path; try /v1/sessions /healthz /metrics\n");
}

// ----- lifecycle -----------------------------------------------------

void
Daemon::stopThreads()
{
    runq_->close();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    {
        std::lock_guard<std::mutex> lock(hkMu_);
        hkStop_ = true;
    }
    hkCv_.notify_all();
    if (housekeeper_.joinable())
        housekeeper_.join();
}

void
Daemon::drain()
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMu_);
    if (stopped_)
        return;
    draining_.store(true, std::memory_order_release);
    if (cfg_.events)
        cfg_.events->log(obs::EventLog::Severity::Info,
                         "daemon.drain.begin",
                         strf("%zu session(s)", sessionCount()));

    std::vector<std::shared_ptr<Session>> all;
    {
        std::lock_guard<std::mutex> lock(smu_);
        for (auto &[id, s] : sessions_)
            all.push_back(s);
    }
    // Wake every admission-blocked producer immediately (the
    // BoundedQueue close-while-pushing contract) before joining the
    // workers, so no HTTP handler sits out a full admission timeout.
    for (auto &s : all)
        s->closeIngest();
    stopThreads();
    // Flush with workers gone: finished sessions run to their final
    // report, unfinished hot ones checkpoint, terminal states are
    // already durable.
    for (auto &s : all)
        s->drainFlush();

    housekeepOnce();
    listener_.stop();
    if (cfg_.events)
        cfg_.events->log(obs::EventLog::Severity::Info,
                         "daemon.drain.done", "");
    stopped_ = true;
}

void
Daemon::crashStop()
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMu_);
    if (stopped_)
        return;
    draining_.store(true, std::memory_order_release);
    listener_.stop();
    stopThreads();
    // Deliberately no flush: hot state dies here, exactly as under
    // SIGKILL. Spools, checkpoints, and meta files stay as last
    // written; recovery must rebuild from them alone.
    {
        std::lock_guard<std::mutex> lock(smu_);
        sessions_.clear();
    }
    stopped_ = true;
}

} // namespace asyncclock::daemon

/**
 * @file
 * The always-on analysis daemon (`asyncclockd`, exposed as
 * `trace_analyzer daemon` / `--daemon=PORT`).
 *
 * One process multiplexes many concurrent trace sessions, each an
 * independent streaming analysis (see daemon/session.hh), behind an
 * HTTP API served by the obs layer's HttpListener:
 *
 *   POST   /v1/sessions?id=ID             create (201; 409 duplicate,
 *                                         429 capacity, 400 bad id)
 *   POST   /v1/sessions/ID/trace[?offset=N]  ingest one chunk
 *                                         (200; 429 + Retry-After on
 *                                         backpressure, 410 poisoned)
 *   POST   /v1/sessions/ID/finish         no more bytes (200)
 *   GET    /v1/sessions/ID/report         200 report / 202 pending /
 *                                         409 unfinished / 410 + why
 *   GET    /v1/sessions/ID                info JSON
 *   DELETE /v1/sessions/ID                forget + delete files
 *   GET    /v1/sessions                   list
 *   GET    /healthz /metrics /metrics.json /progress
 *
 * Scheduling: HTTP handlers never analyze. They append chunks to the
 * session's bounded ingest queue (admission control: the queue's
 * tryPushFor timeout is the 429 boundary) and flip the session's
 * scheduled flag into a run queue; a small worker pool pops sessions
 * and pumps each for a bounded op slice, rescheduling while work
 * remains. The scheduled-flag dedupe guarantees a session is worked
 * by at most one worker at a time, so Session::work needs no
 * cross-worker coordination beyond its own mutex.
 *
 * The housekeeper thread owns the control loops the workers must not
 * block on: the LRU eviction ladder (while resident detector+checker
 * bytes exceed --mem-budget, checkpoint the coldest evictable session
 * to disk), idle-session eviction, the per-session watchdog (a work()
 * call exceeding the stall budget poisons the session; the pump
 * quarantines it at the next op boundary), gauge refresh, and
 * telemetry snapshot publishing (the registry holds only real
 * atomic metrics, so the housekeeper may snapshot it from its own
 * thread).
 *
 * Fault isolation is per session by construction: every failure mode
 * (decoder damage, protocol budget, watchdog stall, spool I/O error)
 * lands in Session::quarantineLocked, which isolates exactly one
 * session and answers its clients with 410 + the reason while every
 * other session proceeds untouched.
 *
 * Drain (SIGTERM/SIGINT): stop admitting (503), close every ingest
 * queue (waking blocked producers immediately), stop the workers,
 * then flush each session — finished ones are pumped to their final
 * report, unfinished hot ones are checkpointed — and exit 0. A
 * SIGKILLed daemon skips all of that and still loses nothing but hot
 * detector state: restart rebuilds every session from its spool (+
 * checkpoint when one was written), and reports stay byte-identical.
 */

#ifndef ASYNCCLOCK_DAEMON_DAEMON_HH
#define ASYNCCLOCK_DAEMON_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/session.hh"
#include "obs/telemetry.hh"

namespace asyncclock::daemon {

struct DaemonConfig
{
    std::string stateDir = ".";
    /** Analysis worker threads. 0 = none: tests drive the pump
     * deterministically via pumpAllForTest(). */
    unsigned workers = 2;
    unsigned httpThreads = 4;
    std::size_t maxSessions = 64;
    /** Global budget on resident detector+checker bytes across all
     * sessions; 0 = unlimited. The eviction ladder keeps the sum
     * under it. */
    std::uint64_t memBudgetBytes = 0;
    /** Evict sessions idle longer than this (0 = never). */
    std::uint64_t idleTimeoutMs = 0;
    /** A single work() call running longer than this poisons the
     * session (0 = no watchdog). */
    std::uint64_t watchdogMs = 30000;
    /** Per-session ingest queue capacity, in chunks. */
    std::size_t queueChunks = 8;
    /** How long ingest waits for queue space before 429. */
    std::uint64_t admissionTimeoutMs = 250;
    /** Ops per worker pump slice (fairness quantum). */
    std::uint64_t opSliceOps = 50000;
    core::DetectorConfig detector;
    report::FilterConfig filters;
    obs::EventLog *events = nullptr;  ///< may be null
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Create the state directory and adopt every session a previous
     * process (possibly SIGKILLed) left there. */
    Status init();

    /** Start HTTP on 127.0.0.1:@p port (0 = kernel-assigned) plus the
     * worker pool and housekeeper. False when the bind fails. */
    bool start(std::uint16_t port);

    std::uint16_t port() const { return listener_.port(); }

    /**
     * Route one request. Public so tests exercise the full API
     * in-process without sockets; the HTTP listener calls exactly
     * this.
     */
    obs::HttpResponse handle(const obs::HttpRequest &req);

    /**
     * Graceful drain: refuse new admissions, close every ingest
     * queue, stop the workers, flush every session (finished -> final
     * report, unfinished hot -> checkpoint), publish a last snapshot,
     * stop HTTP. Idempotent.
     */
    void drain();

    /** Tear down without flushing anything — the SIGKILL stand-in for
     * crash-recovery tests. Stops threads and drops hot state; spools
     * and checkpoints stay as they were. */
    void crashStop();

    std::size_t sessionCount();

    /** The daemon's metric registry (real metrics only — safe to
     * snapshot from any thread). */
    obs::MetricsRegistry &registry() { return reg_; }

    // ----- deterministic test hooks ---------------------------------
    /** Run every session's pump on the calling thread until no
     * session reports more work (workers = 0 mode). */
    void pumpAllForTest();

    /** One housekeeper pass (eviction ladder, watchdog, gauges) on
     * the calling thread. */
    void housekeepForTest() { housekeepOnce(); }

    std::shared_ptr<Session> findSession(const std::string &id);

  private:
    obs::HttpResponse handleSessions(const obs::HttpRequest &req);
    obs::HttpResponse handleCreate(const obs::HttpRequest &req);
    obs::HttpResponse sessionInfoJson(Session &s);
    void schedule(const std::shared_ptr<Session> &s);
    void workerLoop();
    void housekeeperLoop();
    void housekeepOnce();
    void stopThreads();

    DaemonConfig cfg_;
    SessionConfig sessionCfg_;

    std::mutex smu_;
    std::map<std::string, std::shared_ptr<Session>> sessions_;

    /** Sessions with pending work. Capacity maxSessions + workers so
     * a schedule() can never block: the scheduled-flag dedupe admits
     * at most one entry per session plus one per worker re-push. */
    std::unique_ptr<support::BoundedQueue<std::shared_ptr<Session>>>
        runq_;

    obs::MetricsRegistry reg_;
    obs::SnapshotPublisher pub_;
    obs::HttpListener listener_;

    std::vector<std::thread> workers_;
    std::thread housekeeper_;
    std::mutex hkMu_;
    std::condition_variable hkCv_;
    bool hkStop_ = false;

    std::atomic<bool> draining_{false};
    bool stopped_ = false;
    std::mutex lifecycleMu_;
};

} // namespace asyncclock::daemon

#endif // ASYNCCLOCK_DAEMON_DAEMON_HH

/**
 * @file
 * One trace-analysis session inside the always-on daemon.
 *
 * A session is a long-lived analysis of one trace that arrives over
 * the wire in chunks. Its durable form is a set of files under the
 * daemon's state directory:
 *
 *   <id>.spool   append-only raw trace bytes, exactly as ingested
 *   <id>.meta    key=value state record (state, finished, error)
 *   <id>.report  the final race report text (finished sessions)
 *
 * and its hot form is the familiar streaming pipeline — the spool
 * opened by trace::tryOpenTraceSource (the opener analyze uses), a
 * FastTrackChecker and a DetectorEngine — built lazily and torn down
 * freely. Resume is replay: the detector and the checker are
 * deterministic functions of the spool bytes, so a rebuilt pipeline
 * replays the spool from op 0 with a fresh checker and reaches the
 * same state. A session can therefore be evicted and resumed any
 * number of times, or the whole process can be SIGKILLed and
 * restarted, and the final report stays byte-identical to a
 * single-shot `trace_analyzer analyze` over the same bytes.
 *
 * Live-edge discipline: streaming decoders treat EOF as truncation,
 * so the pump never decodes within `margin_` bytes of the spool's
 * live end until the client calls finish. A decode run that still
 * overruns the margin (a single decoder step may consume an
 * unbounded run of declaration records) is not damage — the decoder
 * merely outran the writer — so the engine is torn down and not
 * rebuilt until the spool has grown geometrically past the overrun
 * point, keeping total replay work linear in spool bytes. Only
 * damage observed after finish, when every byte is in, quarantines
 * the session.
 *
 * Threading: offerChunk() is called by HTTP handler threads and only
 * touches the bounded ingest queue (admission control lives in its
 * tryPushFor). Everything else serializes on mu_; the daemon's
 * scheduled-flag dedupe additionally guarantees at most one worker
 * runs work() at a time.
 */

#ifndef ASYNCCLOCK_DAEMON_SESSION_HH
#define ASYNCCLOCK_DAEMON_SESSION_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/config.hh"
#include "core/engine.hh"
#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "support/bounded_queue.hh"
#include "support/status.hh"
#include "trace/trace_io.hh"

namespace asyncclock::daemon {

enum class SessionState : std::uint8_t {
    Live,         ///< engine hot in memory (or about to be)
    Evicted,      ///< cold: the spool is the whole state
    Quarantined,  ///< poisoned: isolated, serves only its error
    Finished,     ///< report written; spool + report remain
};

const char *sessionStateName(SessionState s);

/** Knobs a session inherits from the daemon. */
struct SessionConfig
{
    std::string stateDir = ".";
    /** Ingest queue capacity, in chunks (admission backpressure). */
    std::size_t queueChunks = 8;
    /** How long offerChunk() waits for queue space before 429. */
    std::chrono::milliseconds admissionTimeout{250};
    core::DetectorConfig detector;
    report::FilterConfig filters;
    obs::EventLog *events = nullptr;     ///< may be null
    obs::MetricsRegistry *metrics = nullptr;  ///< may be null
};

/** One ingested chunk. offset < 0 means "append at the current end";
 * otherwise it is the client's byte offset, used to absorb
 * retransmits after a disconnect (overlap is skipped, a gap is
 * rejected and recorded). */
struct IngestChunk
{
    std::string data;
    std::int64_t offset = -1;
};

/** Point-in-time public view (the GET /v1/sessions/<id> body). */
struct SessionInfo
{
    SessionState state = SessionState::Evicted;
    bool finished = false;
    std::uint64_t spooledBytes = 0;
    std::uint64_t opsProcessed = 0;
    std::uint64_t racesFound = 0;
    std::uint64_t queuedChunks = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resumes = 0;
    std::string error;       ///< quarantine reason ("" if healthy)
    std::string ingestError; ///< last rejected-chunk note ("")
};

class Session
{
  public:
    /** Outcome of a report() request. */
    enum class ReportStatus {
        Ready,        ///< out = the report text
        Pending,      ///< ingest finished, analysis still running
        NotFinished,  ///< client has not called finish yet
        Quarantined,  ///< out = the quarantine reason
    };

    Session(std::string id, const SessionConfig &cfg);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Create the on-disk form of a brand-new session (fresh spool +
     * meta). Fails if the spool cannot be created. */
    Status create();

    /** Adopt the on-disk form left by a previous process (after a
     * restart — including one that was SIGKILLed). The session comes
     * back cold; analysis state rebuilds from the spool on first
     * touch. */
    Status recover();

    const std::string &id() const { return id_; }

    // ----- HTTP-facing (any thread) ---------------------------------
    /** Admission-controlled ingest: wait at most the admission
     * timeout for queue space. Timeout → the daemon answers 429;
     * Closed (quarantined or draining) → 410/503. */
    support::PushResult offerChunk(IngestChunk chunk);

    /** No more bytes will arrive; analysis may run to the true end
     * of the spool. Idempotent. */
    Status finishIngest();

    bool ingestFinished() const
    {
        return finishedFlag_.load(std::memory_order_acquire);
    }

    SessionInfo info();

    /** Fetch the final report (reads <id>.report). */
    ReportStatus report(std::string &out);

    // ----- worker-facing (one worker at a time) ---------------------
    /** Drain queued chunks into the spool, then pump the engine for
     * at most @p opBudget ops. Returns true when more work remains
     * (reschedule me). */
    bool work(std::uint64_t opBudget);

    /** Scheduled-flag dedupe: true = caller must enqueue me. */
    bool trySchedule() { return !scheduled_.exchange(true); }
    void clearScheduled() { scheduled_.store(false); }
    bool isScheduled() const { return scheduled_.load(); }

    // ----- housekeeper-facing ---------------------------------------
    /** Detector + checker bytes currently resident (0 when cold). */
    std::uint64_t memoryBytes();

    std::chrono::steady_clock::time_point lastActive() const
    {
        return std::chrono::steady_clock::time_point(
            std::chrono::steady_clock::duration(
                lastActiveNs_.load(std::memory_order_relaxed)));
    }

    /** Microseconds the current work() call has been running, or 0
     * when idle (the watchdog's stall signal). */
    std::uint64_t workingForUs() const;

    /** Watchdog verdict: the pump loop checks this flag and
     * quarantines the session at the next op boundary. */
    void poison() { poisoned_.store(true, std::memory_order_release); }

    /**
     * Free the hot pipeline; the spool keeps everything needed to
     * rebuild it. Refuses (returns false) when the session is not
     * hot, is actively being worked — eviction must never disturb a
     * running pump — or is still replaying toward the op count it
     * had at its last teardown: that replay is the only progress it
     * has, and evicting it would throw the replay away. A session
     * merely waiting in the run queue IS evictable, and so is a
     * finished one still pumping toward its report: both are idle
     * between work() calls, their memory is real, and the next
     * work() call rebuilds them from the spool transparently.
     */
    bool tryEvict();

    // ----- drain / teardown -----------------------------------------
    /** Stop admitting chunks NOW: closes the ingest queue, waking
     * every producer blocked in offerChunk immediately (the
     * BoundedQueue close-while-pushing contract). */
    void closeIngest();

    /** Drain-time flush: a finished session is pumped to its report;
     * an unfinished hot one is evicted (its spool is its state);
     * cold/terminal states are already durable. Called with workers
     * stopped. */
    void drainFlush();

    /** Delete every on-disk artifact of this session. */
    Status removeFiles();

    std::string spoolPath() const;
    std::string metaPath() const;
    std::string reportPath() const;

  private:
    // All *Locked methods require mu_ held.
    void appendChunkLocked(const IngestChunk &chunk);
    bool pumpLocked(std::uint64_t opBudget);
    Status ensureHotLocked();
    void teardownEngineLocked();
    bool evictLocked();
    void finalizeLocked();
    void quarantineLocked(Status why);
    /** Live-edge overrun vs real damage: retry with a doubled margin
     * while budget remains and ingest is unfinished; else quarantine. */
    void retryOrQuarantineLocked(Status why);
    void handleEndLocked();
    std::uint64_t consumedBytesLocked();
    bool workAvailableLocked();
    void writeMetaLocked();
    void touch();
    void logEvent(obs::EventLog::Severity sev, const std::string &kind,
                  const std::string &msg, std::uint64_t op = 0);
    void bumpMetric(const char *name, std::uint64_t n = 1);

    const std::string id_;
    SessionConfig cfg_;

    support::BoundedQueue<IngestChunk> ingest_;
    std::atomic<bool> scheduled_{false};
    std::atomic<bool> poisoned_{false};
    std::atomic<bool> finishedFlag_{false};
    std::atomic<std::int64_t> lastActiveNs_{0};
    std::atomic<std::uint64_t> workStartUs_{0};

    mutable std::mutex mu_;
    SessionState state_ = SessionState::Evicted;
    bool finished_ = false;
    std::string error_;
    std::string ingestError_;
    std::uint64_t spooled_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t resumes_ = 0;
    /** Ops/races at last teardown, so info() stays meaningful cold;
     * a rebuilt engine below lastOps_ is still replaying. */
    std::uint64_t lastOps_ = 0;
    std::uint64_t lastRaces_ = 0;

    /** Live-edge margin: never decode closer than this to the spool
     * end before finish. Doubles on overrun retries. */
    std::uint64_t margin_ = kDefaultMargin;
    /** After a live-edge overrun, do not rebuild the engine until the
     * spool reaches this size (geometric in spooled_, so rebuild
     * count is O(log bytes) and replay work is O(bytes)). */
    std::uint64_t resumeAtBytes_ = 0;

    std::ofstream spoolOut_;

    // Hot pipeline (all null when cold). Teardown order matters:
    // the engine borrows the spool's source and the checker, so it
    // goes first; the spool owns its source and file.
    std::optional<trace::OpenedSource> spool_;
    std::unique_ptr<report::FastTrackChecker> checker_;
    std::unique_ptr<core::DetectorEngine> engine_;

    static constexpr std::uint64_t kDefaultMargin = 64 * 1024;
    static constexpr std::uint64_t kMaxMargin = 8 * 1024 * 1024;
};

/** Is @p id safe as a session id (and thus a filename stem)?
 * [A-Za-z0-9._-]+, no leading dot, at most 64 chars. */
bool validSessionId(const std::string &id);

} // namespace asyncclock::daemon

#endif // ASYNCCLOCK_DAEMON_SESSION_HH

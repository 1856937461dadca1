/**
 * @file
 * Structured JSONL event log: machine-readable lifecycle records.
 *
 * Long runs emit a small number of *load-bearing* events — the
 * memory-pressure ladder took a step, a daemon session was evicted
 * or resumed, a daemon watchdog fired, the protocol-violation budget
 * ran out, a corrupt record was skipped. Today those are fire-and-forget
 * stderr warnings; the EventLog turns each into one JSON object per
 * line:
 *
 *   {"seq":3,"ts_us":18231,"sev":"warn","kind":"pressure.shrink",
 *    "op":51200,"msg":"window halved to 60000 ms"}
 *
 * with a monotonic sequence number (total order even when daemon
 * worker threads log concurrently), microseconds since the log was opened,
 * the op offset the producer was at, and a severity. Records are
 * flushed per line — the log must survive the crash it is
 * describing.
 *
 * Producers reach the log through ObsContext::events (null = off,
 * the usual one-branch guard). WarnTap additionally routes the
 * warn()/warnRateLimited() firehose into counters and events so
 * rate-limited warnings can't silently vanish from a run's record.
 */

#ifndef ASYNCCLOCK_OBS_EVENT_LOG_HH
#define ASYNCCLOCK_OBS_EVENT_LOG_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace asyncclock::obs {

class MetricsRegistry;

class EventLog
{
  public:
    enum class Severity : std::uint8_t { Info, Warn, Error };

    /** Open @p path for writing (truncates). Null on failure. */
    static std::unique_ptr<EventLog> open(const std::string &path);

    /** Log to @p out; the log never closes it (test/stderr use). */
    explicit EventLog(std::FILE *out);
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /**
     * Append one record. @p kind is a dotted lowercase taxonomy tag
     * ("pressure.shrink", "daemon.watchdog", ...); @p op is the
     * producer's op offset (0 when not meaningful). Thread-safe;
     * flushes the line before returning.
     */
    void log(Severity sev, const std::string &kind,
             const std::string &msg, std::uint64_t op = 0);

    std::uint64_t eventsLogged() const;

  private:
    EventLog(std::FILE *out, bool owns);

    mutable std::mutex mu_;
    std::FILE *out_;
    bool owns_;
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/**
 * RAII tap on the warn()/warnRateLimited() stream (support/logging).
 * While alive, every warn-family call bumps `log.warnings_total` on
 * @p reg (and `log.warnings_suppressed` for calls the rate limiter
 * swallowed), and non-suppressed calls append a "log.<key>" event to
 * @p events when present. One tap at a time per process (the
 * listener slot is global); construction replaces any previous
 * listener, destruction clears it.
 */
class WarnTap
{
  public:
    WarnTap(MetricsRegistry &reg, EventLog *events);
    ~WarnTap();

    WarnTap(const WarnTap &) = delete;
    WarnTap &operator=(const WarnTap &) = delete;
};

} // namespace asyncclock::obs

#endif // ASYNCCLOCK_OBS_EVENT_LOG_HH

/**
 * @file
 * Span/phase tracing in Chrome trace-event format.
 *
 * A Tracer collects completed spans ("X" phase events) on named
 * tracks — the detector/main thread, plus any timeline a producer
 * registers (the async model's tasks) — and serializes them as a
 * Chrome trace-event JSON object loadable in Perfetto or
 * chrome://tracing. Timestamps are microseconds since the tracer's
 * construction, taken from the steady clock.
 *
 * Overhead discipline: producers hold a `Tracer *` that is null when
 * tracing is off, so every instrumentation site costs one predictable
 * branch when disabled and two clock reads plus one mutex-guarded
 * push_back per *span* (not per operation) when enabled. Spans are
 * emitted at coarse granularity — per GC sweep, per block of pumped
 * ops — never per trace operation.
 */

#ifndef ASYNCCLOCK_OBS_TRACE_EVENTS_HH
#define ASYNCCLOCK_OBS_TRACE_EVENTS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace asyncclock::obs {

/** The detector/main thread's pre-registered track. */
constexpr int kMainTrack = 0;

class Tracer
{
  public:
    /** One trace event: a completed span ("X") or track-name
     * metadata ("M"). */
    struct Event
    {
        std::string name;
        char ph = 'X';
        std::uint64_t ts = 0;   ///< start, us since tracer creation
        std::uint64_t dur = 0;  ///< span length, us ("X" only)
        int tid = 0;
        std::string args;  ///< pre-rendered JSON object, or empty
    };

    /** Track 0 ("main") is pre-registered. */
    Tracer();

    /** Add a named track; returns its tid. Thread-safe. */
    int registerTrack(const std::string &name);

    /** Microseconds since tracer construction (steady clock). */
    std::uint64_t nowUs() const;

    /** Record a completed span on @p tid. @p args, when non-empty,
     * must be a rendered JSON object (e.g. "{\"ops\":512}"). */
    void span(int tid, std::string name, std::uint64_t startUs,
              std::uint64_t endUs, std::string args = "");

    /** The full trace as a Chrome trace-event JSON object. */
    std::string toJson() const;

    /** Write toJson() to @p path; fatal() on I/O failure. */
    void writeFile(const std::string &path) const;

    /** Copy of the recorded events (tests, post-processing). */
    std::vector<Event> events() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Event> events_;
    int nextTid_ = 0;
};

/**
 * RAII span: times its scope and records it on destruction. A null
 * tracer makes construction and destruction near-free, which is what
 * keeps always-compiled instrumentation sites cheap when tracing is
 * off.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, int tid, const char *name)
        : tracer_(tracer), tid_(tid), name_(name),
          start_(tracer ? tracer->nowUs() : 0)
    {
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->span(tid_, name_, start_, tracer_->nowUs());
    }

  private:
    Tracer *tracer_;
    int tid_;
    const char *name_;
    std::uint64_t start_;
};

} // namespace asyncclock::obs

#endif // ASYNCCLOCK_OBS_TRACE_EVENTS_HH

/**
 * @file
 * The observability context handed through the pipeline.
 *
 * One run owns at most one MetricsRegistry and one Tracer; producers
 * (the detector, the verifier, the CLI harness) receive both
 * as nullable pointers bundled in an ObsContext. Null members mean
 * "off": every instrumentation site guards on the pointer, so a
 * default-constructed context is the compile-time-cheap null sink —
 * no clock reads, no atomics, one predictable branch.
 */

#ifndef ASYNCCLOCK_OBS_OBS_HH
#define ASYNCCLOCK_OBS_OBS_HH

#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/trace_events.hh"

namespace asyncclock::obs {

struct ObsContext
{
    MetricsRegistry *metrics = nullptr;
    Tracer *tracer = nullptr;
    /** Structured lifecycle event log (event_log.hh), or null. */
    EventLog *events = nullptr;

    explicit operator bool() const
    {
        return metrics || tracer || events;
    }
};

} // namespace asyncclock::obs

#endif // ASYNCCLOCK_OBS_OBS_HH

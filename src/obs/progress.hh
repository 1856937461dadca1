/**
 * @file
 * Live progress heartbeat for long analysis runs.
 *
 * A multi-million-op run should not be a black box between launch and
 * final report: the ProgressMeter prints a periodic one-line
 * heartbeat — ops/sec since the last beat, live/peak metadata bytes,
 * races found so far — every N processed ops.
 * Off by default (everyOps == 0 never fires); the due()/report()
 * split keeps the caller's loop cost to one integer compare per op
 * and lets the caller gather the (possibly expensive) sample only
 * when a beat is actually due.
 */

#ifndef ASYNCCLOCK_OBS_PROGRESS_HH
#define ASYNCCLOCK_OBS_PROGRESS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace asyncclock::obs {

/** What one heartbeat line reports; the caller fills it on demand. */
struct ProgressSample
{
    std::uint64_t ops = 0;
    std::uint64_t liveBytes = 0;
    std::uint64_t peakBytes = 0;
    std::uint64_t races = 0;
};

class ProgressMeter
{
  public:
    /** Heartbeat every @p everyOps processed ops; 0 disables. */
    explicit ProgressMeter(std::uint64_t everyOps,
                           std::FILE *out = stderr);

    bool enabled() const { return everyOps_ > 0; }

    /** True when @p opsDone crossed the next heartbeat boundary. */
    bool
    due(std::uint64_t opsDone) const
    {
        return everyOps_ > 0 && opsDone >= next_;
    }

    /** Print one heartbeat line and schedule the next. */
    void report(const ProgressSample &sample);

    /** The heartbeat line for @p sample (report() minus the I/O;
     * deterministic given a fixed interval clock is not, so tests use
     * this for the layout only). */
    std::string format(const ProgressSample &sample,
                       double opsPerSec) const;

  private:
    std::uint64_t everyOps_;
    std::uint64_t next_;
    std::FILE *out_;
    std::chrono::steady_clock::time_point lastTime_;
    std::uint64_t lastOps_ = 0;
};

} // namespace asyncclock::obs

#endif // ASYNCCLOCK_OBS_PROGRESS_HH

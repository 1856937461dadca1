/**
 * @file
 * One measured iteration of a workload, driven through the library's
 * public API.
 *
 * runEngine analyses one encoded trace the way
 * `trace_analyzer analyze --streaming` does: a streaming binary
 * source over the bytes, a FastTrackChecker, a DetectorEngine, memory
 * sampled every 1024 ops, then RaceAnalyzer + appendRunNotes +
 * renderReportText. runDaemon feeds several traces to an in-process
 * daemon::Daemon with no worker threads, round-robin in kDaemonChunks
 * chunks per trace, pumping and housekeeping after every round, and
 * fetches each session's report.
 *
 * With a SpanLog the iteration is traced: the layer decorators and
 * per-call timers are on and every layer call is recorded as a span.
 * Without one, nothing but the iteration's wall time is timed.
 */

#ifndef ASYNCCLOCK_PERFBENCH_RUNS_HH
#define ASYNCCLOCK_PERFBENCH_RUNS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/spans.hh"
#include "harness/workloads.hh"

namespace asyncclock::perfbench {

/** Ops per memory sample (the trace_analyzer cadence), which is also
 * the block of ops one traced "process" span covers. */
constexpr std::uint64_t kSampleEvery = 1024;

/** The daemon_evict settings. Each trace is sent in the same number
 * of equal chunks whatever its size, so the rounds, and with them the
 * evictions and replays, do not jump with the seed. */
constexpr std::uint64_t kDaemonBudgetBytes = 8ull << 20;
constexpr std::size_t kDaemonChunks = 12;

/** What one iteration produced. */
struct Iteration
{
    /** Non-empty when a status check failed (source, engine, daemon
     * response); the reports are then incomplete. */
    std::string failure;
    /** Rendered report text, one per input trace. */
    std::vector<std::string> reports;
    /** Harmful race groups in each report. Engine runs only. */
    std::vector<std::uint64_t> harmful;
    /** "wall_s" plus the per-layer values this iteration measured,
     * keyed by their BENCHMARK.json names. Traced-only entries (layer
     * times, "bench.closure") are absent from untraced iterations. */
    std::map<std::string, double> metrics;
};

Iteration runEngine(const TraceInput &in, SpanLog *spans);

/** @p stateDir is created and removed by the call. */
Iteration runDaemon(const std::vector<TraceInput> &ins,
                    const std::string &stateDir, SpanLog *spans);

/** FNV-1a 64-bit hash (the report digests). */
std::uint64_t fnv1a(const std::string &data);

} // namespace asyncclock::perfbench

#endif // ASYNCCLOCK_PERFBENCH_RUNS_HH

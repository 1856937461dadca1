/**
 * @file
 * The benchmark's workloads and their seeded inputs.
 *
 *  - looper_k9mail: K9Mail at scale 0.3 (~99k ops), looper model. The
 *    clock-join and GC layers do most of the work.
 *  - async_fanout: AsyncFanOut at 3,600 root tasks (~82k ops), async
 *    model. Model updates are almost all of the work; clock joins and
 *    GC are near zero.
 *  - daemon_evict: six daemon sessions alternating K9Mail at scale 0.1
 *    and AsyncFanOut at 600 root tasks, under an 8 MB resident budget,
 *    so sessions are checkpointed and resumed.
 *
 * Inputs are a function of the seed alone. Each trace gets its own
 * block of generator seeds; planInputs() takes the first seed of the
 * block whose planted harmful races are all detectable (see
 * harmfulSpanMs), so every report of every bench seed must contain
 * every planted harmful race. At kDefaultSeed the looper_k9mail and
 * async_fanout traces are the ones `trace_analyzer gen K9Mail ... 0.3`
 * and `gen AsyncFanOut ... 150` write.
 */

#ifndef ASYNCCLOCK_PERFBENCH_WORKLOADS_HH
#define ASYNCCLOCK_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace asyncclock::perfbench {

constexpr std::uint64_t kDefaultSeed = 1;

enum class Workload { LooperK9mail, AsyncFanout, DaemonEvict };

/** "looper_k9mail" | "async_fanout" | "daemon_evict". */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** What to generate for one trace. */
struct InputSpec
{
    std::string id;             ///< label; the daemon session id
    bool looper = true;         ///< K9Mail, else AsyncFanOut
    double scale = 0;           ///< K9Mail scale
    std::uint32_t rootTasks = 0;  ///< AsyncFanOut roots
    std::uint64_t seedShift = 0;  ///< added to the profile's own seed
};

/** One generated trace, binary-encoded, plus its planted truth. */
struct TraceInput
{
    std::string id;
    std::string bytes;    ///< ACTB encoding
    std::uint64_t ops = 0;
    unsigned harmfulPlanted = 0;
};

/** The traces of @p w for @p seed, generator seeds resolved. */
std::vector<InputSpec> planInputs(Workload w, std::uint64_t seed);

/** Generate and encode @p specs (the timed set-up). */
std::vector<TraceInput> makeInputs(const std::vector<InputSpec> &specs);

/**
 * Largest virtual-time distance between two accesses to one variable
 * the generator labelled harmful. A looper-model pair further apart
 * than the detector's 2-minute time window is, by design, not
 * reported.
 */
std::uint64_t harmfulSpanMs(const trace::Trace &t);

} // namespace asyncclock::perfbench

#endif // ASYNCCLOCK_PERFBENCH_WORKLOADS_HH

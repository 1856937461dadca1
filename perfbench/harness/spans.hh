/**
 * @file
 * In-memory span log for the traced benchmark runs.
 *
 * Each span has a name, a parent (-1 for a root), a start time and a
 * duration; an aggregate span stands for several calls of one layer
 * inside its parent (e.g. every decode call in a block of ops) and
 * records how many. A span's self time is its duration minus the
 * durations of its children. Spans stay in memory while the run is
 * measured and are written out once it ends.
 */

#ifndef ASYNCCLOCK_PERFBENCH_SPANS_HH
#define ASYNCCLOCK_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace asyncclock::perfbench {

struct Span
{
    const char *name = "";
    std::int32_t parent = -1;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint64_t calls = 1;
};

class SpanLog
{
  public:
    /** Record a span; returns its id (for use as a parent). */
    std::int32_t add(const char *name, std::int32_t parent,
                     std::uint64_t startNs, std::uint64_t durNs,
                     std::uint64_t calls = 1);

    /** Set the duration of an already recorded span. */
    void setDuration(std::int32_t id, std::uint64_t durNs);

    /** Self time in seconds summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Append every span as one JSON object per line, tagged with
     * @p iteration. */
    void writeJsonl(std::ostream &out, unsigned iteration) const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

} // namespace asyncclock::perfbench

#endif // ASYNCCLOCK_PERFBENCH_SPANS_HH

/**
 * @file
 * Bench-side layer decorators: forwarding implementations of the
 * library's public layer interfaces that time every call into the
 * wrapped object and change nothing else.
 *
 *  - TimedSource wraps a trace::TraceSource and times next() (decode).
 *  - TimedChecker wraps a report::AccessChecker and times onAccess()
 *    (race checks).
 *
 * The engine sees the decorator in place of the real object, so the
 * timings come from outside the program: no library code is changed
 * or configured to produce them.
 */

#ifndef ASYNCCLOCK_PERFBENCH_DECORATORS_HH
#define ASYNCCLOCK_PERFBENCH_DECORATORS_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "report/checker.hh"
#include "trace/source.hh"

namespace asyncclock::perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Forwarding TraceSource that accumulates the time spent in next(). */
class TimedSource : public trace::TraceSource
{
  public:
    /** @p inner must outlive the decorator. */
    explicit TimedSource(trace::TraceSource &inner) : inner_(inner) {}

    const trace::TraceMeta &meta() const override { return inner_.meta(); }

    bool
    next(trace::Operation &op) override
    {
        std::uint64_t t0 = nowNs();
        bool got = inner_.next(op);
        ns_ += nowNs() - t0;
        ++calls_;
        return got;
    }

    bool ok() const override { return inner_.ok(); }
    const std::string &error() const override { return inner_.error(); }
    Status status() const override { return inner_.status(); }
    std::uint64_t
    recordsSkipped() const override
    {
        return inner_.recordsSkipped();
    }
    std::uint64_t
    containerBytes() const override
    {
        return inner_.containerBytes();
    }

    std::uint64_t ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    trace::TraceSource &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

/** Forwarding AccessChecker that accumulates the time spent in
 * onAccess(). */
class TimedChecker : public report::AccessChecker
{
  public:
    /** @p inner must outlive the decorator. */
    explicit TimedChecker(report::AccessChecker &inner) : inner_(inner) {}

    void
    onAccess(trace::VarId var, const report::Access &access,
             const clock::VectorClock &vc) override
    {
        std::uint64_t t0 = nowNs();
        inner_.onAccess(var, access, vc);
        ns_ += nowNs() - t0;
        ++calls_;
    }

    const std::vector<report::RaceReport> &
    races() const override
    {
        return inner_.races();
    }
    std::uint64_t racesFound() const override { return inner_.racesFound(); }
    std::uint64_t byteSize() const override { return inner_.byteSize(); }

    std::uint64_t ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    report::AccessChecker &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

} // namespace asyncclock::perfbench

#endif // ASYNCCLOCK_PERFBENCH_DECORATORS_HH

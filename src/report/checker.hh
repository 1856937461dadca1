/**
 * @file
 * Access checkers: the per-variable race-checking layer shared by the
 * AsyncClock detector and the EventRacer-style baseline.
 *
 * A detector resolves each task's logical time (a vector clock over
 * chains) and hands every read/write to an AccessChecker as an
 * (epoch, clock) pair. Two checkers are provided:
 *
 *  - ExactChecker keeps the full access history per variable and
 *    reports *every* unordered conflicting pair. Memory-hungry; used
 *    by the tests to compare detectors against the gold oracle
 *    pair-for-pair.
 *  - FastTrackChecker (fasttrack.hh) implements the FastTrack [10]
 *    epoch state machine the paper uses in production (section 3.4).
 */

#ifndef ASYNCCLOCK_REPORT_CHECKER_HH
#define ASYNCCLOCK_REPORT_CHECKER_HH

#include <cstdint>
#include <vector>

#include "clock/vector_clock.hh"
#include "trace/trace.hh"

namespace asyncclock::report {

/** One memory access as seen by a checker. */
struct Access
{
    trace::OpId op = trace::kInvalidId;
    clock::Epoch epoch{};       ///< (chain, tick) of the access
    trace::SiteId site = trace::kInvalidId;
    trace::Task task{};
    bool isWrite = false;
};

/** A reported race: two unordered conflicting accesses; `prev` comes
 * first in the analyzed trace. */
struct RaceReport
{
    trace::VarId var = trace::kInvalidId;
    trace::OpId prevOp = trace::kInvalidId;
    trace::OpId curOp = trace::kInvalidId;
    trace::SiteId prevSite = trace::kInvalidId;
    trace::SiteId curSite = trace::kInvalidId;
    trace::Task prevTask{};
    trace::Task curTask{};
    bool prevWrite = false;
    bool curWrite = false;

    bool
    operator<(const RaceReport &other) const
    {
        return prevOp != other.prevOp ? prevOp < other.prevOp
                                      : curOp < other.curOp;
    }
    bool operator==(const RaceReport &other) const = default;
};

/** Interface the detectors drive. */
class AccessChecker
{
  public:
    virtual ~AccessChecker() = default;

    /**
     * Record an access to @p var and report any races against prior
     * accesses. @p vc is the logical time of the accessing task; a
     * prior access with epoch e is ordered before this one iff
     * vc.knows(e).
     */
    virtual void onAccess(trace::VarId var, const Access &access,
                          const clock::VectorClock &vc) = 0;

    /** Races found so far. */
    virtual const std::vector<RaceReport> &races() const = 0;

    /**
     * Count of races found so far, polled mid-run by heartbeats and
     * gauges. A checker that wraps another forwards it to the one it
     * wraps.
     */
    virtual std::uint64_t racesFound() const
    {
        return races().size();
    }

    /** Metadata bytes held (for MemStats polling). */
    virtual std::uint64_t byteSize() const = 0;
};

/**
 * Exhaustive checker: every unordered conflicting pair is reported,
 * exactly mirroring gold::Closure::races(). Test/oracle use only.
 */
class ExactChecker : public AccessChecker
{
  public:
    void
    onAccess(trace::VarId var, const Access &access,
             const clock::VectorClock &vc) override
    {
        if (history_.size() <= var)
            history_.resize(var + 1);
        for (const Access &prev : history_[var]) {
            if ((prev.isWrite || access.isWrite) &&
                !vc.knows(prev.epoch)) {
                races_.push_back({var, prev.op, access.op, prev.site,
                                  access.site, prev.task, access.task,
                                  prev.isWrite, access.isWrite});
            }
        }
        history_[var].push_back(access);
    }

    const std::vector<RaceReport> &races() const override
    {
        return races_;
    }

    std::uint64_t
    byteSize() const override
    {
        std::uint64_t total = 0;
        for (const auto &h : history_)
            total += h.capacity() * sizeof(Access);
        return total;
    }

  private:
    std::vector<std::vector<Access>> history_;
    std::vector<RaceReport> races_;
};

} // namespace asyncclock::report

#endif // ASYNCCLOCK_REPORT_CHECKER_HH

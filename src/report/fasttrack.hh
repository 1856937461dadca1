/**
 * @file
 * FastTrack [10] per-variable race checking.
 *
 * The paper's detector "uses the FASTTRACK algorithm to optimize
 * metadata stored for data variables and find races between their
 * accesses" (section 3.4). Most variables are only ever accessed in
 * totally ordered epochs, so the state per variable is two epochs; a
 * read VC is materialized only for read-shared variables.
 *
 * FastTrack reports at most one race per racy access (it keeps only
 * the last write / the read frontier), so its race *set* is a subset
 * of ExactChecker's; tests cross-check the two (every FastTrack race
 * is exact-confirmed, and FastTrack flags a race on a variable iff
 * the exact set has one... the first racy access is always caught).
 */

#ifndef ASYNCCLOCK_REPORT_FASTTRACK_HH
#define ASYNCCLOCK_REPORT_FASTTRACK_HH

#include <vector>

#include "report/checker.hh"

namespace asyncclock::report {

class FastTrackChecker : public AccessChecker
{
  public:
    void onAccess(trace::VarId var, const Access &access,
                  const clock::VectorClock &vc) override;

    const std::vector<RaceReport> &races() const override
    {
        return races_;
    }

    /** O(1): the var table plus a running total of the read clocks. */
    std::uint64_t byteSize() const override;

    /** The same number walked over every read clock: the oracle
     * byteSize() is tested against. */
    std::uint64_t walkByteSize() const;

  private:
    /** FastTrack variable state: last-write epoch plus either a
     * last-read epoch (common case) or a read VC (read-shared). */
    struct VarState
    {
        clock::Epoch write{};
        clock::Epoch read{};
        bool shared = false;
        clock::VectorClock readVC;
        /** Provenance of the stored epochs, for race reports. */
        Access lastWrite{};
        Access lastRead{};
    };

    void report(trace::VarId var, const Access &prev,
                const Access &cur);
    /** Raise @p st's read clock, booking its growth in readBytes_. */
    void raiseRead(VarState &st, const clock::Epoch &e);

    std::vector<VarState> vars_;
    std::vector<RaceReport> races_;
    /** Sum of readVC.byteSize() over vars_. Read clocks only grow, by
     * raiseRead (clear() keeps capacity). */
    std::uint64_t readBytes_ = 0;
};

} // namespace asyncclock::report

#endif // ASYNCCLOCK_REPORT_FASTTRACK_HH

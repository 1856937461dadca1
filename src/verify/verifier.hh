/**
 * @file
 * RaceVerifier: the closed loop from detector output back through
 * replay (DESIGN.md section 11).
 *
 * Input: a materialized trace plus triaged candidate classes
 * (report/triage.hh). For each class, the verifier replays the
 * representative pair under the flipped order and assigns the verdict
 * to the class. Candidates that cannot be validated against the
 * replay substrate — op id out of range, op fields disagreeing with
 * the trace (e.g. candidates that came from a fault-injected stream
 * while verification replays the clean file) — stay Unverified
 * instead of poisoning the run.
 *
 * Cost: one gold::Closure fixpoint over the trace (quadratic — this
 * is deliberate: the closure is the executable specification of the
 * causality model, so INFEASIBLE can never disagree with it), plus
 * O(ops) per verified class. VerifyConfig::maxOps bounds the closure;
 * above it every class is left Unverified with a note.
 */

#ifndef ASYNCCLOCK_VERIFY_VERIFIER_HH
#define ASYNCCLOCK_VERIFY_VERIFIER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "report/triage.hh"
#include "trace/trace.hh"

namespace asyncclock::verify {

struct VerifyConfig
{
    /** Verify at most this many classes (0 = all); classes beyond
     * the cap stay Unverified. Representatives are processed in
     * triage-key order, so the cap is deterministic. */
    std::uint32_t maxClasses = 0;
    /** Refuse to build the closure above this many ops (the closure
     * is quadratic); 0 = no cap. */
    std::uint32_t maxOps = 50000;
    /** Metrics + spans (both optional). */
    obs::ObsContext obs{};
};

/** Aggregate outcome of one verification run. */
struct VerifySummary
{
    std::uint64_t replays = 0;      ///< flip experiments executed
    std::uint64_t confirmed = 0;
    std::uint64_t benign = 0;
    std::uint64_t infeasible = 0;
    std::uint64_t unverified = 0;
    /** Non-empty when verification was skipped or degraded. */
    std::vector<std::string> notes;
    /** Wall time of the whole pass (reported separately from the
     * verdict text so reports stay byte-identical across runs). */
    double wallSec = 0;
};

/**
 * Verify every class of @p triage against @p tr, write verdicts and
 * details into the classes, rank them (report::rankTriage), and
 * return the tally.
 */
VerifySummary verifyTriage(report::TriageReport &triage,
                           const trace::Trace &tr,
                           const VerifyConfig &cfg = {});

/**
 * Verify nothing: leave every class of @p triage Unverified with
 * @p detail, rank them, and return a tally carrying @p note (why no
 * class could be replayed).
 */
VerifySummary leaveUnverified(report::TriageReport &triage,
                              const std::string &detail,
                              std::string note);

} // namespace asyncclock::verify

#endif // ASYNCCLOCK_VERIFY_VERIFIER_HH

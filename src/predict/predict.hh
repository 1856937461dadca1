/**
 * @file
 * runPrediction: the predictive race tier's soundness funnel
 * (DESIGN.md section 16).
 *
 * Pipeline: the ShbEngine enumerates weak-unordered conflicting pairs
 * into a bounded CandidateWindow; candidates the HB detector already
 * reported are set aside as *observed*; the rest are triaged into
 * classes (the same (var, site-pair) equivalence the verifier uses)
 * and every class representative is replay-verified before anything
 * reaches the report:
 *
 *  - *hidden* candidates (ordered under full HB, so invisible to the
 *    detector) replay against the weakened closure — the very
 *    ordering that says a different schedule could flip them. A
 *    queue-discipline pre-check rejects flips FIFO provably forbids
 *    (same looper queue, weak-ordered sends, Table-1-ordered
 *    priorities) as Infeasible without replaying, because the
 *    trace-level interpreter does not enforce dequeue order and would
 *    otherwise execute an impossible schedule.
 *  - *shadowed* candidates (unordered under full HB but missing from
 *    the detector's list — epoch-shadowing misses of the FastTrack
 *    state machine) replay against the full closure, exactly like
 *    --verify does for detected races.
 *
 * Only Confirmed classes count as predicted races; everything else is
 * reported with its verdict (zero unsound reports, by construction).
 *
 * Recall is scored against the weakened gold closure's race set — the
 * oracle of what *any* schedule of this trace could expose: observed
 * recall counts the detector's hits alone, combined recall adds
 * replay-confirmed predictions. Combined >= observed always; strictly
 * greater whenever prediction confirmed a pair the detector missed.
 */

#ifndef ASYNCCLOCK_PREDICT_PREDICT_HH
#define ASYNCCLOCK_PREDICT_PREDICT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "predict/candidates.hh"
#include "report/triage.hh"
#include "trace/trace.hh"

namespace asyncclock::predict {

struct PredictConfig
{
    /** Candidate bounds (--predict-window /
     * --predict-max-candidates). */
    CandidateConfig bounds{};
    /** Verify at most this many predicted classes (--predict=N,
     * 0 = all); classes beyond the cap stay Unverified. */
    std::uint32_t maxClasses = 0;
    /** Refuse to build the (quadratic) closures above this many ops;
     * candidates are still enumerated but stay Unverified and recall
     * is not scored. Shares --verify-max-ops. */
    std::uint32_t maxOps = 50000;
    /** Metrics + spans (both optional). */
    obs::ObsContext obs{};
};

/** Aggregate outcome of one predictive pass. */
struct PredictSummary
{
    std::uint64_t candidates = 0;   ///< weak-unordered pairs proposed
    std::uint64_t observed = 0;     ///< already in the detector's list
    std::uint64_t hidden = 0;       ///< classes ordered under full HB
    std::uint64_t shadowed = 0;     ///< classes the detector missed
    std::uint64_t windowDrops = 0;
    std::uint64_t capDrops = 0;
    std::uint64_t malformedDropped = 0;
    std::uint64_t replays = 0;
    std::uint64_t confirmed = 0;
    std::uint64_t benign = 0;
    std::uint64_t infeasible = 0;
    std::uint64_t unverified = 0;

    /** Oracle race pairs of the weakened closure (the denominator). */
    std::uint64_t weakRaces = 0;
    std::uint64_t observedHits = 0;  ///< detected ∩ oracle
    std::uint64_t combinedHits = 0;  ///< + confirmed predicted pairs
    bool recallScored = false;
    double observedRecall = 0;
    double combinedRecall = 0;

    /** Non-empty when the pass was skipped or degraded. */
    std::vector<std::string> notes;
    /** Wall time (kept out of the verdict text so reports stay
     * byte-identical across runs). */
    double wallSec = 0;

    /** "predict: N candidate(s) ..." one-liner (deterministic). */
    std::string summary() const;
    /** "predict recall: ..." one-liner; empty when !recallScored. */
    std::string recallLine() const;
};

/** Predicted classes (ranked, with verdicts) plus the tally. */
struct PredictResult
{
    report::TriageReport triage;
    PredictSummary summary;
};

/**
 * Run the predictive tier over the materialized trace @p tr.
 * @p detected is the HB detector's race list for the same trace (used
 * to subtract observed pairs and to score observed recall).
 */
PredictResult runPrediction(const trace::Trace &tr,
                            const std::vector<report::RaceReport> &detected,
                            const PredictConfig &cfg = {});

} // namespace asyncclock::predict

#endif // ASYNCCLOCK_PREDICT_PREDICT_HH

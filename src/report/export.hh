/**
 * @file
 * Machine-readable export of analysis results.
 *
 * The paper's tool reports race groups for human triage; a downstream
 * CI integration wants the same data structured. This module renders
 * a ReportSummary (race groups with sites, variables, verdicts) and
 * trace statistics as JSON.
 */

#ifndef ASYNCCLOCK_REPORT_EXPORT_HH
#define ASYNCCLOCK_REPORT_EXPORT_HH

#include <string>

#include "report/races.hh"
#include "report/triage.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace asyncclock::report {

/** Render a full analysis report as a JSON document; @p meta names
 * the sites and variables. */
std::string toJson(const ReportSummary &summary,
                   const trace::TraceMeta &meta);

/** As above, plus a "verification" section carrying the triage
 * classes and their replay verdicts. */
std::string toJson(const ReportSummary &summary,
                   const TriageReport &triage,
                   const trace::TraceMeta &meta);

/**
 * Data for the "prediction" section. The predictive tier lives above
 * this library (src/predict/ links ac_report), so the analyzer copies
 * its counters into this layering-neutral struct before export.
 */
struct PredictionExport
{
    /** Triage classes of predicted candidates with replay verdicts. */
    const TriageReport *triage = nullptr;

    std::uint64_t candidates = 0;  ///< weak-order candidate pairs
    std::uint64_t observed = 0;    ///< already found by the detector
    std::uint64_t hidden = 0;      ///< HB-ordered, weak-unordered
    std::uint64_t shadowed = 0;    ///< HB-unordered, undetected
    std::uint64_t windowDrops = 0;
    std::uint64_t capDrops = 0;
    std::uint64_t malformedDropped = 0;

    bool recallScored = false;
    std::uint64_t weakRaces = 0;
    std::uint64_t observedHits = 0;
    std::uint64_t combinedHits = 0;
    double observedRecall = 0.0;
    double combinedRecall = 0.0;
};

/** As the verification overload, plus a "prediction" section. */
std::string toJson(const ReportSummary &summary,
                   const TriageReport &triage,
                   const PredictionExport &prediction,
                   const trace::TraceMeta &meta);

/** Render trace statistics as a JSON object. */
std::string toJson(const trace::TraceStats &stats);

} // namespace asyncclock::report

#endif // ASYNCCLOCK_REPORT_EXPORT_HH

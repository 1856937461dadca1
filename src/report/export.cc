#include "report/export.hh"

#include "support/json.hh"

namespace asyncclock::report {

namespace {

/** Body shared by both report overloads: fields of the open summary
 * object (caller owns beginObject/endObject). */
void
writeSummary(JsonWriter &w, const ReportSummary &summary,
             const trace::TraceMeta &meta)
{
    w.field("allGroups", summary.allGroups);
    w.field("filteredGroups", summary.filteredGroups);
    w.field("harmful", summary.harmful);
    w.field("harmlessTypeI", summary.typeI);
    w.field("harmlessTypeII", summary.typeII);
    w.field("harmlessOther", summary.otherHarmless);
    w.key("groups").beginArray();
    for (const RaceGroup &g : summary.reported) {
        w.beginObject();
        w.field("verdict", verdictName(g.verdict));
        w.field("races", static_cast<std::uint64_t>(g.raceCount));
        w.field("siteA", meta.site(g.siteA).name);
        w.field("siteB", meta.site(g.siteB).name);
        w.field("variable", meta.var(g.sample.var).name);
        w.field("firstAccessWrite", g.sample.prevWrite);
        w.field("secondAccessWrite", g.sample.curWrite);
        w.field("firstOp",
                static_cast<std::uint64_t>(g.sample.prevOp));
        w.field("secondOp",
                static_cast<std::uint64_t>(g.sample.curOp));
        w.endObject();
    }
    w.endArray();
}

/** Verdict tallies + per-class verdict array of the open object
 * (caller owns beginObject/endObject). Shared by the "verification"
 * and "prediction" sections. */
void
writeTriage(JsonWriter &w, const TriageReport &triage,
            const trace::TraceMeta &meta)
{
    w.field("classes",
            static_cast<std::uint64_t>(triage.classes.size()));
    w.field("confirmed", triage.confirmed);
    w.field("benign", triage.benign);
    w.field("infeasible", triage.infeasible);
    w.field("unverified", triage.unverified);
    auto siteName = [&](trace::SiteId id) -> std::string {
        return id < meta.sites().size() ? meta.site(id).name
                                      : "<unknown-site>";
    };
    w.key("verdicts").beginArray();
    for (const TriageClass &cls : triage.classes) {
        w.beginObject();
        w.field("verdict", replayVerdictName(cls.verdict));
        w.field("variable", cls.var < meta.vars().size()
                                ? meta.var(cls.var).name
                                : "<unknown-var>");
        w.field("firstSite", siteName(cls.firstSite));
        w.field("secondSite", siteName(cls.secondSite));
        w.field("races", static_cast<std::uint64_t>(cls.raceCount));
        w.field("firstOp", static_cast<std::uint64_t>(
                               cls.representative.prevOp));
        w.field("secondOp", static_cast<std::uint64_t>(
                                cls.representative.curOp));
        w.field("detail", cls.detail);
        w.endObject();
    }
    w.endArray();
}

} // namespace

std::string
toJson(const ReportSummary &summary, const trace::TraceMeta &meta)
{
    JsonWriter w;
    w.beginObject();
    writeSummary(w, summary, meta);
    w.endObject();
    return w.str();
}

std::string
toJson(const ReportSummary &summary, const TriageReport &triage,
       const trace::TraceMeta &meta)
{
    JsonWriter w;
    w.beginObject();
    writeSummary(w, summary, meta);
    w.key("verification").beginObject();
    writeTriage(w, triage, meta);
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
toJson(const ReportSummary &summary, const TriageReport &triage,
       const PredictionExport &prediction, const trace::TraceMeta &meta)
{
    JsonWriter w;
    w.beginObject();
    writeSummary(w, summary, meta);
    w.key("verification").beginObject();
    writeTriage(w, triage, meta);
    w.endObject();
    w.key("prediction").beginObject();
    w.field("candidates", prediction.candidates);
    w.field("observed", prediction.observed);
    w.field("hidden", prediction.hidden);
    w.field("shadowed", prediction.shadowed);
    w.field("windowDrops", prediction.windowDrops);
    w.field("capDrops", prediction.capDrops);
    w.field("malformedDropped", prediction.malformedDropped);
    if (prediction.triage)
        writeTriage(w, *prediction.triage, meta);
    if (prediction.recallScored) {
        w.key("recall").beginObject();
        w.field("weakRaces", prediction.weakRaces);
        w.field("observedHits", prediction.observedHits);
        w.field("combinedHits", prediction.combinedHits);
        w.field("observedRecall", prediction.observedRecall);
        w.field("combinedRecall", prediction.combinedRecall);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
toJson(const trace::TraceStats &stats)
{
    JsonWriter w;
    w.beginObject();
    w.field("ops", stats.ops);
    w.field("syncOps", stats.syncOps);
    w.field("memOps", stats.memOps);
    w.field("workerThreads", stats.workerThreads);
    w.field("looperThreads", stats.looperThreads);
    w.field("binderThreads", stats.binderThreads);
    w.field("looperEvents", stats.looperEvents);
    w.field("binderEvents", stats.binderEvents);
    w.field("removedEvents", stats.removedEvents);
    w.field("spanMs", stats.spanMs);
    w.endObject();
    return w.str();
}

} // namespace asyncclock::report

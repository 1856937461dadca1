#include "report/races.hh"

#include <algorithm>
#include <map>

#include "support/format.hh"

namespace asyncclock::report {

using trace::kInvalidId;
using trace::SeedLabel;
using trace::SiteId;

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Harmful: return "harmful";
      case Verdict::HarmlessTypeI: return "harmless(type-I)";
      case Verdict::HarmlessTypeII: return "harmless(type-II)";
      case Verdict::HarmlessOther: return "harmless(other)";
    }
    return "?";
}

bool
RaceAnalyzer::userInduced(SiteId site) const
{
    if (site == kInvalidId)
        return false;
    return meta_.site(site).frame != trace::Frame::Framework;
}

bool
RaceAnalyzer::commutative(SiteId a, SiteId b) const
{
    if (a == kInvalidId || b == kInvalidId)
        return false;
    std::uint32_t ga = meta_.site(a).commGroup;
    std::uint32_t gb = meta_.site(b).commGroup;
    return ga != kInvalidId && ga == gb;
}

Verdict
RaceAnalyzer::classify(const RaceGroup &group) const
{
    switch (meta_.var(group.sample.var).seedLabel) {
      case SeedLabel::Harmful:
        return Verdict::Harmful;
      case SeedLabel::HarmlessTypeI:
        return Verdict::HarmlessTypeI;
      case SeedLabel::HarmlessTypeII:
        return Verdict::HarmlessTypeII;
      case SeedLabel::HarmlessCommutative:
      case SeedLabel::HarmlessOther:
      case SeedLabel::None:
        return Verdict::HarmlessOther;
    }
    return Verdict::HarmlessOther;
}

ReportSummary
RaceAnalyzer::analyze(const std::vector<RaceReport> &races,
                      FilterConfig cfg) const
{
    // Group user-induced races by unordered site pair.
    std::map<std::pair<SiteId, SiteId>, RaceGroup> groups;
    for (const RaceReport &race : races) {
        if (cfg.userInducedOnly && (!userInduced(race.prevSite) ||
                                    !userInduced(race.curSite))) {
            continue;
        }
        SiteId a = std::min(race.prevSite, race.curSite);
        SiteId b = std::max(race.prevSite, race.curSite);
        RaceGroup &g = groups[{a, b}];
        if (g.raceCount == 0) {
            g.siteA = a;
            g.siteB = b;
            g.sample = race;
        } else if (race < g.sample) {
            // Smallest (prevOp, curOp) pair represents the group, so
            // the choice does not depend on checker emission order.
            g.sample = race;
        }
        ++g.raceCount;
    }

    ReportSummary out;
    out.allGroups = groups.size();
    for (auto &[key, group] : groups) {
        if (cfg.commutativityFilter &&
            commutative(group.siteA, group.siteB)) {
            ++out.filteredGroups;
            continue;
        }
        group.verdict = classify(group);
        switch (group.verdict) {
          case Verdict::Harmful: ++out.harmful; break;
          case Verdict::HarmlessTypeI: ++out.typeI; break;
          case Verdict::HarmlessTypeII: ++out.typeII; break;
          case Verdict::HarmlessOther: ++out.otherHarmless; break;
        }
        out.reported.push_back(group);
    }
    // Total deterministic export order: by variable, then by the
    // representative pair's op ids (site-pair map order would leak
    // site numbering, which differs between generator revisions).
    std::stable_sort(out.reported.begin(), out.reported.end(),
                     [](const RaceGroup &x, const RaceGroup &y) {
                         if (x.sample.var != y.sample.var)
                             return x.sample.var < y.sample.var;
                         return x.sample < y.sample;
                     });
    return out;
}

std::string
RaceAnalyzer::describe(const RaceGroup &group) const
{
    const auto &sa = meta_.site(group.siteA);
    const auto &sb = meta_.site(group.siteB);
    const auto &var = meta_.var(group.sample.var);
    return strf("%s: %u race(s) between %s and %s on '%s' (%s %s)",
                verdictName(group.verdict), group.raceCount,
                sa.name.c_str(), sb.name.c_str(), var.name.c_str(),
                group.sample.prevWrite ? "write" : "read",
                group.sample.curWrite ? "vs write" : "vs read");
}

std::string
ReportSummary::summary() const
{
    std::string text =
        strf("groups=%llu filtered=%llu harmful=%llu "
             "harmless(I/II/other)=%llu/%llu/%llu",
             (unsigned long long)allGroups,
             (unsigned long long)filteredGroups,
             (unsigned long long)harmful,
             (unsigned long long)typeI,
             (unsigned long long)typeII,
             (unsigned long long)otherHarmless);
    for (const std::string &note : notes)
        text += "\n  note: " + note;
    return text;
}

std::string
renderReportText(const RaceAnalyzer &analyzer,
                 const ReportSummary &summary)
{
    std::string text = summary.summary() + "\n";
    for (const RaceGroup &group : summary.reported)
        text += "  " + analyzer.describe(group) + "\n";
    return text;
}

} // namespace asyncclock::report

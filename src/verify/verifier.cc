#include "verify/verifier.hh"

#include <chrono>

#include "gold/closure.hh"
#include "support/format.hh"
#include "verify/replay.hh"

namespace asyncclock::verify {

using report::ReplayVerdict;
using report::TriageClass;
using trace::kInvalidId;
using trace::Operation;
using trace::OpId;
using trace::OpKind;

namespace {

/**
 * A candidate may have been produced against a different view of the
 * run than the trace we replay (e.g. detected on a fault-injected
 * stream, verified against the clean file). Before trusting its op
 * ids we check that every field the candidate asserts about its two
 * ops actually holds in the replay substrate.
 */
bool
matchesSubstrate(const trace::Trace &tr, const report::RaceReport &r)
{
    if (r.prevOp >= tr.numOps() || r.curOp >= tr.numOps() ||
        r.prevOp >= r.curOp) {
        return false;
    }
    const Operation &prev = tr.op(r.prevOp);
    const Operation &cur = tr.op(r.curOp);
    auto accessOk = [&](const Operation &op, trace::SiteId site,
                        trace::Task task, bool isWrite) {
        return op.kind == (isWrite ? OpKind::Write : OpKind::Read) &&
               op.target == r.var && op.site == site && op.task == task;
    };
    return accessOk(prev, r.prevSite, r.prevTask, r.prevWrite) &&
           accessOk(cur, r.curSite, r.curTask, r.curWrite);
}

void
tally(VerifySummary &sum, ReplayVerdict verdict)
{
    switch (verdict) {
      case ReplayVerdict::Confirmed:  ++sum.confirmed; break;
      case ReplayVerdict::Benign:     ++sum.benign; break;
      case ReplayVerdict::Infeasible: ++sum.infeasible; break;
      case ReplayVerdict::Unverified: ++sum.unverified; break;
    }
}

} // namespace

VerifySummary
leaveUnverified(report::TriageReport &triage, const std::string &detail,
                std::string note)
{
    VerifySummary sum;
    for (TriageClass &cls : triage.classes) {
        cls.verdict = ReplayVerdict::Unverified;
        cls.detail = detail;
        ++sum.unverified;
    }
    sum.notes.push_back(std::move(note));
    report::rankTriage(triage);
    triage.recount();
    return sum;
}

VerifySummary
verifyTriage(report::TriageReport &triage, const trace::Trace &tr,
             const VerifyConfig &cfg)
{
    const auto wallStart = std::chrono::steady_clock::now();
    VerifySummary sum;
    obs::Tracer *tracer = cfg.obs.tracer;
    obs::MetricsRegistry *metrics = cfg.obs.metrics;

    auto finish = [&]() -> VerifySummary & {
        report::rankTriage(triage);
        triage.recount();
        sum.wallSec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart)
                .count();
        if (metrics) {
            metrics->gauge("verify.elapsed_us")
                .set(static_cast<std::int64_t>(sum.wallSec * 1e6));
        }
        return sum;
    };

    if (cfg.maxOps != 0 && tr.numOps() > cfg.maxOps) {
        sum = leaveUnverified(
            triage, "trace above --verify-max-ops cap",
            strf("trace has %u ops, above the verification cap of %u "
                 "(the closure is quadratic); all classes left "
                 "UNVERIFIED",
                 tr.numOps(), cfg.maxOps));
        return finish();
    }

    gold::Closure hb = [&] {
        obs::ScopedSpan span(tracer, obs::kMainTrack,
                             "verify.closure");
        return gold::Closure(tr);
    }();
    ReplayController controller(tr, hb);

    std::uint32_t budget = cfg.maxClasses;
    for (TriageClass &cls : triage.classes) {
        if (cfg.maxClasses != 0 && budget == 0) {
            cls.verdict = ReplayVerdict::Unverified;
            cls.detail = "class budget exhausted (--verify=N)";
            tally(sum, cls.verdict);
            continue;
        }
        if (!matchesSubstrate(tr, cls.representative)) {
            cls.verdict = ReplayVerdict::Unverified;
            cls.detail = "candidate does not match the replay "
                         "substrate (stale or foreign op ids)";
            tally(sum, cls.verdict);
            continue;
        }
        if (cfg.maxClasses != 0)
            --budget;

        const auto t0 = std::chrono::steady_clock::now();
        FlipOutcome out;
        {
            obs::ScopedSpan span(tracer, obs::kMainTrack,
                                 "verify.replay");
            out = controller.verifyPair(cls.representative.prevOp,
                                        cls.representative.curOp);
        }
        ++sum.replays;
        cls.verdict = out.verdict;
        cls.detail = std::move(out.detail);
        tally(sum, cls.verdict);
        if (metrics) {
            const auto us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            metrics
                ->histogram("verify.replay_us",
                            {100, 1000, 10000, 100000, 1000000})
                .observe(static_cast<std::uint64_t>(us));
        }
    }

    if (metrics) {
        metrics->counter("verify.replays").inc(sum.replays);
        metrics->counter("verify.verdict.confirmed").inc(sum.confirmed);
        metrics->counter("verify.verdict.benign").inc(sum.benign);
        metrics->counter("verify.verdict.infeasible")
            .inc(sum.infeasible);
        metrics->counter("verify.verdict.unverified")
            .inc(sum.unverified);
    }
    return finish();
}

} // namespace asyncclock::verify

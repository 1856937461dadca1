#include "core/engine.hh"

#include <algorithm>
#include <limits>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::core {

using trace::OpId;
using trace::Operation;

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::Decode: return "decode";
    case Phase::ModelApply: return "model_apply";
    case Phase::ClockJoin: return "clock_join";
    case Phase::RaceCheck: return "race_check";
    case Phase::GcSweep: return "gc_sweep";
    }
    return "unknown";
}

DetectorEngine::DetectorEngine(ModelKind model, trace::TraceSource &src,
                               report::AccessChecker &checker,
                               DetectorConfig cfg)
    : source_(&src), checker_(checker), cfg_(cfg)
{
    gcIntervalEff_ = (cfg_.memBudgetBytes > 0 && cfg_.gcIntervalOps > 512)
                         ? 512
                         : cfg_.gcIntervalOps;
    ledger_ = timing_ = cfg_.phaseTiming;
    model_ = makeModel(model, *this);
    model_->syncEntities();
}

DetectorEngine::DetectorEngine(ModelKind model, const trace::Trace &tr,
                               report::AccessChecker &checker,
                               DetectorConfig cfg)
    : DetectorEngine(model, *new trace::MaterializedSource(tr), checker,
                     cfg)
{
    owned_.reset(source_);
}

DetectorEngine::~DetectorEngine() = default;

bool
DetectorEngine::processNext()
{
    // The one pump. With the ledger on it stamps the steady clock
    // before the pull, after the pull and after the op; every other
    // run pays one predicted branch per stamp.
    if (!runStatus_.isOk()) [[unlikely]]
        return flushPumpSpan();
    SteadyClock::time_point t0, t1;
    if (ledger_) [[unlikely]]
        t0 = SteadyClock::now();
    Operation op;
    if (!source_->next(op))
        return flushPumpSpan();
    if (ledger_) [[unlikely]]
        t1 = SteadyClock::now();
    model_->syncEntities();
    processOp(op, static_cast<OpId>(cursor_));
    ++cursor_;
    if (ledger_) [[unlikely]]
        bookOp(t0, t1, SteadyClock::now());
    return true;
}

void
DetectorEngine::bookOp(SteadyClock::time_point t0,
                       SteadyClock::time_point t1,
                       SteadyClock::time_point t2)
{
    auto nsBetween = [](SteadyClock::time_point a,
                        SteadyClock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
    };
    // Decode is the pull; the PhaseScope sites booked the nested
    // phases while the op resolved, and ModelApply is the rest of the
    // resolve time, so the five buckets sum to the op's wall time.
    std::uint64_t *ph = opPhaseNs_;
    auto at = [ph](Phase p) -> std::uint64_t & {
        return ph[static_cast<std::size_t>(p)];
    };
    std::uint64_t resolveNs = nsBetween(t1, t2);
    std::uint64_t nested =
        at(Phase::ClockJoin) + at(Phase::RaceCheck) + at(Phase::GcSweep);
    at(Phase::Decode) = nsBetween(t0, t1);
    at(Phase::ModelApply) = resolveNs > nested ? resolveNs - nested : 0;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        totalPhaseNs_[i] += ph[i];
        // Decode and ModelApply happen every op; the nested phases
        // are recorded only when they ran, so their histogram counts
        // mean "ops where the phase fired".
        bool everyOp = i <= static_cast<std::size_t>(Phase::ModelApply);
        if (phaseHist_[i] && (everyOp || ph[i] > 0))
            phaseHist_[i]->observe(ph[i]);
    }
    if (obs_.tracer) {
        if (pumpOps_ == 0)
            pumpStart_ = t0;
        pumpEnd_ = t2;
        pumpDecodeNs_ += at(Phase::Decode);
        pumpResolveNs_ += at(Phase::ModelApply) + nested;
        if (++pumpOps_ >= kPumpSpanOps)
            flushPumpSpan();
    }
    std::fill(ph, ph + kNumPhases, 0);
}

bool
DetectorEngine::flushPumpSpan()
{
    if (pumpOps_ == 0)
        return false;
    obs_.tracer->span(
        obs::kMainTrack, "pump", obs_.tracer->usAt(pumpStart_),
        obs_.tracer->usAt(pumpEnd_),
        strf("{\"ops\":%llu,\"decode_us\":%llu,\"resolve_us\":%llu}",
             static_cast<unsigned long long>(pumpOps_),
             static_cast<unsigned long long>(pumpDecodeNs_ / 1000),
             static_cast<unsigned long long>(pumpResolveNs_ / 1000)));
    pumpOps_ = 0;
    pumpDecodeNs_ = 0;
    pumpResolveNs_ = 0;
    return false;
}

void
DetectorEngine::processOp(const Operation &op, OpId id)
{
    if (const char *why = model_->admitOp(op)) [[unlikely]] {
        dropInvalidOp(why);
        return;
    }
    model_->applyOp(op, id);

    if (cfg_.windowMs > 0)
        model_->ageWindow(op.vtime);
    if (++opsSinceGc_ >= gcIntervalEff_) {
        opsSinceGc_ = 0;
        PhaseScope timed(*this, Phase::GcSweep);
        {
            obs::ScopedSpan span(obs_.tracer, obs::kMainTrack,
                                 "gc_sweep");
            model_->gcSweep();
        }
        // Memory-pressure check rides the GC cadence. modelBytes()
        // reads running totals and would be cheap per op, but checking
        // at other ops would move the ladder's decisions, and with
        // them the reports of budgeted runs.
        if (cfg_.memBudgetBytes > 0)
            relieveMemoryPressure(op.vtime);
    }
    model_->syncDerivedCounters();
}

void
DetectorEngine::dropInvalidOp(const char *why)
{
    ++counters_.invalidOpsDropped;
    warnRateLimited(
        "detector.invalid_op",
        strf("dropping protocol-invalid op at index %llu: %s",
             static_cast<unsigned long long>(cursor_), why));
    if (counters_.invalidOpsDropped > cfg_.maxInvalidOps) {
        failRun(Status::error(
            ErrCode::BudgetExceeded,
            strf("invalid-op budget exhausted after %llu dropped "
                 "operations; last: %s",
                 static_cast<unsigned long long>(
                     counters_.invalidOpsDropped),
                 why),
            cursor_));
    }
}

void
DetectorEngine::noteAnomaly(const char *what)
{
    ++counters_.causalAnomalies;
    warnRateLimited("detector.causal_anomaly",
                    strf("tolerating causality anomaly: %s", what));
    // Anomalies are downstream echoes of dropped/reordered ops;
    // charge them to the same budget so a thoroughly scrambled trace
    // fails fast instead of producing a confident garbage report.
    if (counters_.causalAnomalies + counters_.invalidOpsDropped >
            cfg_.maxInvalidOps &&
        runStatus_.isOk()) {
        failRun(Status::error(
            ErrCode::BudgetExceeded,
            strf("anomaly budget exhausted (%llu anomalies, %llu "
                 "dropped ops); last: %s",
                 static_cast<unsigned long long>(
                     counters_.causalAnomalies),
                 static_cast<unsigned long long>(
                     counters_.invalidOpsDropped),
                 what),
            cursor_));
    }
}

void
DetectorEngine::failRun(Status st)
{
    if (obs_.events && runStatus_.isOk() && !st.isOk())
        obs_.events->log(obs::EventLog::Severity::Error,
                         "protocol.budget_exhausted", st.message(),
                         cursor_);
    runStatus_ = std::move(st);
}

void
DetectorEngine::relieveMemoryPressure(std::uint64_t now)
{
    // Checker bytes are deliberately excluded (see the config doc):
    // no rung can shrink checker state.
    auto overBudget = [this] {
        return model_->modelBytes() > cfg_.memBudgetBytes;
    };
    if (!overBudget())
        return;

    // Rung 1: the model's aggressive sweep — reclaim everything
    // reclaimable without any recall impact.
    model_->aggressiveSweep();
    ++counters_.pressureGcSweeps;
    logRung(obs::EventLog::Severity::Info, "pressure.sweep",
            strf("aggressive sweep; %llu bytes live",
                 static_cast<unsigned long long>(model_->modelBytes())));
    if (!overBudget())
        return;

    // Rung 2: halve the time window (down to the floor) and age the
    // excess out immediately. Equivalent to having configured the
    // smaller window: recall degrades only for races separated by
    // more than the new window.
    while (cfg_.windowMs > cfg_.minWindowMs) {
        cfg_.windowMs = std::max(cfg_.windowMs / 2, cfg_.minWindowMs);
        model_->ageWindow(now);
        model_->gcSweep();
        ++counters_.pressureWindowShrinks;
        logRung(obs::EventLog::Severity::Warn, "pressure.shrink",
                strf("window halved to %llu ms",
                     static_cast<unsigned long long>(cfg_.windowMs)));
        if (!overBudget())
            return;
    }

    // Rung 3: age every ended event or settled task into the window
    // clock, whatever its age — the window collapses to "currently
    // live entities only" for this moment. New metadata keeps
    // accruing afterwards, so the ladder may fire again at the next
    // GC check.
    if (cfg_.windowMs > 0 &&
        model_->ageWindow(std::numeric_limits<std::uint64_t>::max())) {
        model_->gcSweep();
        ++counters_.pressureInvalidations;
        logRung(obs::EventLog::Severity::Warn, "pressure.invalidate",
                "every ended event or task invalidated into the window "
                "clock");
    }
}

void
DetectorEngine::logRung(obs::EventLog::Severity sev, const char *kind,
                        const std::string &msg)
{
    if (obs_.events)
        obs_.events->log(sev, kind, msg, cursor_);
}

std::uint64_t
DetectorEngine::metadataBytes() const
{
    return model_->modelBytes() + checker_.byteSize();
}

void
DetectorEngine::sampleMemory(MemStats &stats) const
{
    MemCatBytes bytes = model_->memoryBytes();
    bytes[MemCat::VarState] = checker_.byteSize();
    stats.sampleAll(bytes);
}

void
DetectorEngine::attachObs(const obs::ObsContext &ctx)
{
    obs_ = ctx;
    ledger_ = timing_ || obs_.tracer;
    if (!obs_.metrics)
        return;
    obs::MetricsRegistry &reg = *obs_.metrics;
    const DetectorCounters *c = &counters_;
    reg.counterFn("detector.ops_processed",
                  [this] { return cursor_; });
    reg.counterFn("detector.events_seen",
                  [c] { return c->eventsSeen; });
    reg.counterFn("detector.reclaimed_refcount",
                  [c] { return c->reclaimedRefcount; });
    reg.counterFn("detector.reclaimed_multipath",
                  [c] { return c->reclaimedMultiPath; });
    reg.counterFn("detector.invalidated_by_window",
                  [c] { return c->invalidatedByWindow; });
    reg.counterFn("detector.chains_created",
                  [c] { return c->chainsCreated; });
    reg.counterFn("detector.chains_reused",
                  [c] { return c->chainsReused; });
    reg.counterFn("detector.gc_sweeps", [c] { return c->gcSweeps; });
    reg.counterFn("detector.walk_steps",
                  [c] { return c->walkSteps; });
    reg.counterFn("detector.walk_early_stops",
                  [c] { return c->walkEarlyStops; });
    reg.counterFn("detector.clock_ticks",
                  [c] { return c->clockTicks; });
    reg.counterFn("detector.clock_joins",
                  [c] { return c->clockJoins; });
    reg.counterFn("detector.invalid_ops_dropped",
                  [c] { return c->invalidOpsDropped; });
    reg.counterFn("detector.causal_anomalies",
                  [c] { return c->causalAnomalies; });
    reg.counterFn("detector.pressure_gc_sweeps",
                  [c] { return c->pressureGcSweeps; });
    reg.counterFn("detector.pressure_window_shrinks",
                  [c] { return c->pressureWindowShrinks; });
    reg.counterFn("detector.pressure_invalidations",
                  [c] { return c->pressureInvalidations; });
    for (unsigned lvl = 0; lvl < 4; ++lvl) {
        reg.counterFn(strf("detector.fifo_level_%u", lvl),
                      [c, lvl] { return c->fifoLevel[lvl]; });
    }
    reg.gaugeFn("detector.events_live", [c] {
        return static_cast<std::int64_t>(c->eventsLive);
    });
    reg.gaugeFn("detector.events_live_peak", [c] {
        return static_cast<std::int64_t>(c->eventsLivePeak);
    });
    reg.gaugeFn("detector.chains", [this] {
        return static_cast<std::int64_t>(model_->numChains());
    });
    // Run identity as a labeled constant-1 gauge (the Prometheus
    // "info" idiom): lets dashboards join per-run series on the model
    // without parsing names.
    reg.gauge("run.info", {{"model", modelName(model_->kind())}}).set(1);
    if (cfg_.phaseTiming) {
        // Per-op ns: sub-µs decode/check up to ms-scale GC sweeps.
        const std::vector<std::uint64_t> bounds = {
            100,     250,     500,      1000,    2500,
            5000,    10000,   25000,    50000,   100000,
            250000,  1000000, 10000000,
        };
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            phaseHist_[i] = &reg.histogram(
                "detector.phase_ns",
                {{"phase", phaseName(static_cast<Phase>(i))},
                 {"model", modelName(model_->kind())}},
                bounds);
        }
    }
    model_->registerModelMetrics(reg);
}

void
appendRunNotes(std::vector<std::string> &notes,
               std::uint64_t recordsSkipped,
               const DetectorCounters *counters)
{
    if (recordsSkipped > 0)
        notes.push_back(
            strf("%llu corrupt record(s) skipped during decode",
                 (unsigned long long)recordsSkipped));
    if (!counters)
        return;
    const DetectorCounters &dc = *counters;
    if (dc.invalidOpsDropped > 0 || dc.causalAnomalies > 0)
        notes.push_back(strf(
            "%llu protocol-invalid op(s) dropped, %llu causal "
            "anomal(ies) tolerated",
            (unsigned long long)dc.invalidOpsDropped,
            (unsigned long long)dc.causalAnomalies));
    if (dc.pressureGcSweeps > 0 || dc.pressureWindowShrinks > 0 ||
        dc.pressureInvalidations > 0)
        notes.push_back(strf(
            "memory-pressure ladder fired: %llu aggressive "
            "sweep(s), %llu window shrink(s), %llu "
            "invalidation(s); recall may be reduced",
            (unsigned long long)dc.pressureGcSweeps,
            (unsigned long long)dc.pressureWindowShrinks,
            (unsigned long long)dc.pressureInvalidations));
}

} // namespace asyncclock::core

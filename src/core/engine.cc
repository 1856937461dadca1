#include "core/engine.hh"

#include "support/format.hh"

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
    timing_ = cfg_.phaseTiming;
    model_ = makeModel(model, *this);
    model_->syncEntities();
}

DetectorEngine::DetectorEngine(ModelKind model, const trace::Trace &tr,
                               report::AccessChecker &checker,
                               DetectorConfig cfg)
    : owned_(std::make_unique<trace::MaterializedSource>(tr)),
      source_(owned_.get()), checker_(checker), cfg_(cfg)
{
    gcIntervalEff_ = (cfg_.memBudgetBytes > 0 && cfg_.gcIntervalOps > 512)
                         ? 512
                         : cfg_.gcIntervalOps;
    timing_ = cfg_.phaseTiming;
    model_ = makeModel(model, *this);
    model_->syncEntities();
}

DetectorEngine::~DetectorEngine() = default;

void
DetectorEngine::flushPumpSpan()
{
    if (pumpOps_ == 0)
        return;
    obs_.tracer->span(
        obs::kMainTrack, "pump", pumpStartUs_, obs_.tracer->nowUs(),
        strf("{\"ops\":%llu,\"decode_us\":%llu,\"resolve_us\":%llu}",
             static_cast<unsigned long long>(pumpOps_),
             static_cast<unsigned long long>(pumpDecodeUs_),
             static_cast<unsigned long long>(pumpResolveUs_)));
    pumpOps_ = 0;
    pumpDecodeUs_ = 0;
    pumpResolveUs_ = 0;
}

bool
DetectorEngine::processNext()
{
    if (!runStatus_.isOk()) [[unlikely]]
        return false;
    if (timing_) [[unlikely]]
        return processNextTimed();
    if (obs_.tracer) [[unlikely]]
        return processNextTraced();
    Operation op;
    if (!source_->next(op))
        return false;
    model_->syncEntities();
    processOp(op, static_cast<OpId>(cursor_));
    ++cursor_;
    return true;
}

bool
DetectorEngine::processNextTraced()
{
    // Traced pump: split the per-op cost into decode (pulling from
    // the source) and resolve (the causality machinery), aggregated
    // into one span per kPumpSpanOps block.
    if (!runStatus_.isOk()) [[unlikely]]
        return false;
    Operation op;
    std::uint64_t t0 = obs_.tracer->nowUs();
    if (pumpOps_ == 0)
        pumpStartUs_ = t0;
    bool got = source_->next(op);
    std::uint64_t t1 = obs_.tracer->nowUs();
    pumpDecodeUs_ += t1 - t0;
    if (!got) {
        flushPumpSpan();
        return false;
    }
    model_->syncEntities();
    processOp(op, static_cast<OpId>(cursor_));
    ++cursor_;
    pumpResolveUs_ += obs_.tracer->nowUs() - t1;
    if (++pumpOps_ >= kPumpSpanOps)
        flushPumpSpan();
    return true;
}

bool
DetectorEngine::processNextTimed()
{
    // Timed pump: Decode is measured here, ClockJoin/RaceCheck by
    // PhaseScope sites inside the model, GcSweep by processOp, and
    // ModelApply is the residual — so the buckets sum to the
    // measured per-op wall time.
    using SteadyClock = std::chrono::steady_clock;
    auto nsBetween = [](SteadyClock::time_point a,
                        SteadyClock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
    };
    Operation op;
    auto t0 = SteadyClock::now();
    bool got = source_->next(op);
    auto t1 = SteadyClock::now();
    if (!got)
        return false;
    for (std::size_t i = 0; i < kNumPhases; ++i)
        opPhaseNs_[i] = 0;
    opPhaseNs_[static_cast<std::size_t>(Phase::Decode)] =
        nsBetween(t0, t1);
    model_->syncEntities();
    processOp(op, static_cast<OpId>(cursor_));
    ++cursor_;
    auto t2 = SteadyClock::now();
    std::uint64_t resolveNs = nsBetween(t1, t2);
    std::uint64_t nested =
        opPhaseNs_[static_cast<std::size_t>(Phase::ClockJoin)] +
        opPhaseNs_[static_cast<std::size_t>(Phase::RaceCheck)] +
        opPhaseNs_[static_cast<std::size_t>(Phase::GcSweep)];
    opPhaseNs_[static_cast<std::size_t>(Phase::ModelApply)] =
        resolveNs > nested ? resolveNs - nested : 0;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        totalPhaseNs_[i] += opPhaseNs_[i];
        // Decode and ModelApply happen every op; the nested phases
        // are recorded only when they ran, so their histogram counts
        // mean "ops where the phase fired".
        bool everyOp = i <= static_cast<std::size_t>(Phase::ModelApply);
        if (phaseHist_[i] && (everyOp || opPhaseNs_[i] > 0))
            phaseHist_[i]->observe(opPhaseNs_[i]);
    }
    return true;
}

void
DetectorEngine::processOp(const Operation &op, OpId id)
{
    if (!model_->admitOp(op)) [[unlikely]]
        return;
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
            model_->relieveMemoryPressure(op.vtime);
    }
    model_->syncDerivedCounters();
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

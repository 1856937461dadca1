/**
 * @file
 * The model-agnostic detection engine.
 *
 * DetectorEngine is the mechanism half of the model/mechanism split
 * (see core/model.hh): it owns the trace source, the access checker
 * reference, the run configuration and status, the op cursor, the
 * shared DetectorCounters, the invalid-op budget, the GC cadence and
 * memory-pressure ladder, and the observability plumbing (the phase
 * ledger behind pump spans, phase histograms and totals, and the
 * detector.* metrics). All happens-before semantics live in the
 * plugged-in CausalityModel.
 *
 * AsyncClockDetector (core/detector.hh) is the backwards-compatible
 * facade: a DetectorEngine constructed with ModelKind::Looper.
 */

#ifndef ASYNCCLOCK_CORE_ENGINE_HH
#define ASYNCCLOCK_CORE_ENGINE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/model.hh"
#include "obs/obs.hh"
#include "report/checker.hh"
#include "report/detector.hh"
#include "support/status.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace asyncclock::core {

/**
 * Latency-attribution phases (the engine's phase ledger). Each
 * processed op's wall time is carved into these buckets: Decode is
 * the source pull, GcSweep, ClockJoin and RaceCheck are PhaseScope
 * sites in the engine and the models (active with
 * DetectorConfig::phaseTiming), and ModelApply is the residual (total
 * resolve time minus the nested phases), so the five buckets sum to
 * the measured per-op wall time.
 */
enum class Phase : std::uint8_t {
    Decode = 0,   ///< pulling + decoding the next op from the source
    ModelApply,   ///< model state updates (residual, see above)
    ClockJoin,    ///< vector-clock resolution and joins
    RaceCheck,    ///< access-checker queries
    GcSweep,      ///< GC sweeps and memory-pressure relief
};
constexpr std::size_t kNumPhases = 5;

/** Lower-case phase label ("decode", "model_apply", ...). */
const char *phaseName(Phase p);

/**
 * Append the standard completeness caveats to a report's notes:
 * corrupt records skipped during decode, protocol-invalid ops
 * dropped / causal anomalies tolerated, and degradation-ladder rungs
 * fired. @p counters may be null (non-AsyncClock detectors have no
 * counters; only the skip note applies). Shared by trace_analyzer and
 * the daemon so both render byte-identical degraded-run reports.
 */
void appendRunNotes(std::vector<std::string> &notes,
                    std::uint64_t recordsSkipped,
                    const DetectorCounters *counters);

class DetectorEngine : public report::Detector
{
  public:
    /** Stream operations from @p src under causality model @p model.
     * @p src and @p checker must outlive the engine. */
    DetectorEngine(ModelKind model, trace::TraceSource &src,
                   report::AccessChecker &checker,
                   DetectorConfig cfg = {});

    /** Convenience over a materialized trace (owns a
     * MaterializedSource internally). @p tr and @p checker must
     * outlive the engine. */
    DetectorEngine(ModelKind model, const trace::Trace &tr,
                   report::AccessChecker &checker,
                   DetectorConfig cfg = {});
    ~DetectorEngine() override;

    bool processNext() override;
    std::uint64_t opsProcessed() const override { return cursor_; }
    std::uint64_t metadataBytes() const override;
    void sampleMemory(MemStats &stats) const override;

    /**
     * Attach an observability context. With metrics: every
     * DetectorCounters field plus ops/chain gauges become callback
     * metrics (the hot path keeps bumping the plain struct; the
     * registry reads it at snapshot time, so the registry must not be
     * snapshotted after this engine dies), and the model registers
     * its model.* metrics. With a tracer: "pump" spans on the main
     * track covering blocks of processed ops (with decode/resolve
     * cost split in args, from the phase ledger) and a span per GC
     * sweep. Call before the first processNext().
     */
    void attachObs(const obs::ObsContext &ctx);

    /**
     * Structured health of the run. Ok while healthy; BudgetExceeded
     * once more than maxInvalidOps protocol-invalid operations and
     * causal anomalies were charged (processNext() then returns
     * false). A non-ok status means the race report is best-effort,
     * not authoritative.
     */
    const Status &runStatus() const { return runStatus_; }

    const DetectorCounters &counters() const { return counters_; }
    /** Number of chains ever created (clock dimension). */
    std::uint32_t numChains() const { return model_->numChains(); }

    /** The causality model this engine hosts. */
    const CausalityModel &model() const { return *model_; }

    // ----- services for the plugged-in model ------------------------
    /** Entity tables seen so far by the source. */
    const trace::TraceMeta &meta() const { return source_->meta(); }
    report::AccessChecker &checker() { return checker_; }
    /** The run's configuration; the pressure ladder shrinks its
     * windowMs. */
    const DetectorConfig &cfg() const { return cfg_; }
    DetectorCounters &countersMut() { return counters_; }
    /** Count a tolerated causality-invariant violation; charges the
     * invalid-op budget, so it may fail the run. */
    void noteAnomaly(const char *what);
    /** Attached tracer, or null (for model-specific spans). */
    obs::Tracer *tracer() const { return obs_.tracer; }

    // ----- per-phase latency attribution ----------------------------
    /** True when cfg().phaseTiming is set; PhaseScope sites check
     * this one bool, so disabled runs pay a single predicted branch
     * per site. */
    bool phaseTimingOn() const { return timing_; }
    /** Attribute @p ns to @p p within the current op (PhaseScope). */
    void
    addPhaseNs(Phase p, std::uint64_t ns)
    {
        opPhaseNs_[static_cast<std::size_t>(p)] += ns;
    }
    /** Cumulative ns attributed per phase (index by Phase), for
     * end-of-run reporting. All zero unless the ledger runs (with
     * phaseTiming or a tracer); the nested phases need phaseTiming. */
    const std::uint64_t *phaseTotalsNs() const { return totalPhaseNs_; }

  private:
    using SteadyClock = std::chrono::steady_clock;

    void processOp(const trace::Operation &op, trace::OpId id);
    /** Drop a protocol-invalid op (admitOp said @p why); fails the
     * run once the invalid-op budget is spent. */
    void dropInvalidOp(const char *why);
    /** Fail the run with a structured status (budget exhaustion);
     * logged to the attached event log, if any. */
    void failRun(Status st);
    /** The degradation ladder while model bytes exceed
     * memBudgetBytes: the model's aggressive sweep, then window
     * halvings, then aging every ended entity into the window. */
    void relieveMemoryPressure(std::uint64_t now);
    /** Log one ladder rung to the attached event log, if any. */
    void logRung(obs::EventLog::Severity sev, const char *kind,
                 const std::string &msg);

    // ----- the phase ledger (on with phaseTiming or a tracer) -------
    /** Book one processed op pulled in [t0, t1] and resolved in
     * [t1, t2] into the per-phase totals and histograms and the
     * pending pump span. */
    void bookOp(SteadyClock::time_point t0, SteadyClock::time_point t1,
                SteadyClock::time_point t2);
    /** Emit the pending pump span, if any ops are pending. Returns
     * false, for processNext()'s false returns. */
    bool flushPumpSpan();

    std::unique_ptr<trace::TraceSource> owned_;
    trace::TraceSource *source_;
    report::AccessChecker &checker_;
    DetectorConfig cfg_;
    std::uint64_t cursor_ = 0;

    DetectorCounters counters_;
    std::uint64_t opsSinceGc_ = 0;
    /** Effective sweep cadence: gcIntervalOps, tightened to ≤512 when
     * a memory budget is set (computed once — hot-path constant). */
    std::uint64_t gcIntervalEff_ = 0;
    Status runStatus_ = Status::ok();

    /** The model; declared after every service it borrows so it is
     * destroyed first. */
    std::unique_ptr<CausalityModel> model_;

    obs::ObsContext obs_{};
    /** Ops per "pump" span when tracing: coarse enough that a
     * million-op run yields a loadable trace, fine enough to see
     * throughput phases. */
    static constexpr std::uint64_t kPumpSpanOps = 8192;
    std::uint64_t pumpOps_ = 0;
    SteadyClock::time_point pumpStart_{};
    SteadyClock::time_point pumpEnd_{};
    std::uint64_t pumpDecodeNs_ = 0;
    std::uint64_t pumpResolveNs_ = 0;

    // ----- the phase ledger -----------------------------------------
    /** The pump stamps each op: phaseTiming or a tracer is on. */
    bool ledger_ = false;
    /** PhaseScope sites time the nested phases: phaseTiming is on. */
    bool timing_ = false;
    /** ns attributed per phase within the op in flight. */
    std::uint64_t opPhaseNs_[kNumPhases] = {};
    /** Cumulative ns per phase across the run. */
    std::uint64_t totalPhaseNs_[kNumPhases] = {};
    /** detector.phase_ns{phase,model} histograms, or null
     * when metrics are not attached. */
    obs::Histogram *phaseHist_[kNumPhases] = {};
};

/**
 * RAII timer attributing the enclosed scope's wall time to one
 * phase. A no-op (one predicted branch, no clock reads) unless the
 * engine's phaseTiming config is on — cheap enough for model hot
 * paths like the per-access checker call.
 */
class PhaseScope
{
  public:
    PhaseScope(DetectorEngine &engine, Phase p)
        : engine_(engine), phase_(p), on_(engine.phaseTimingOn())
    {
        if (on_) [[unlikely]]
            start_ = std::chrono::steady_clock::now();
    }

    ~PhaseScope()
    {
        if (on_) [[unlikely]] {
            auto ns = std::chrono::duration_cast<
                          std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
            engine_.addPhaseNs(phase_,
                               static_cast<std::uint64_t>(ns));
        }
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    DetectorEngine &engine_;
    Phase phase_;
    bool on_;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_ENGINE_HH

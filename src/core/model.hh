/**
 * @file
 * The causality-model seam: what varies between event-loop dialects.
 *
 * The detection *mechanism* — pulling operations from a TraceSource,
 * admission budgeting, GC/memory-pressure cadence, race emission
 * through an AccessChecker, observability — is the same whatever
 * concurrency model produced the trace. What varies is the *model*:
 * which operations exist, which happens-before edges they induce, and
 * what per-entity metadata must be kept to resolve them. This
 * interface captures exactly that variable part, so the engine
 * (core/engine.hh) can host either
 *
 *  - LooperModel (core/looper_model.hh): the paper's extended Android
 *    model — message queues, Table 1 priorities, chains, AsyncClocks,
 *    async-before lists; or
 *  - AsyncTaskModel (core/async_model.hh): structured-concurrency
 *    async/await task graphs — spawn/await/cancel edges and
 *    scope-close joins over the async trace dialect.
 *
 * A model is a per-run object owned by its engine; it reaches shared
 * services (checker, config, counters, trace metadata) back through
 * the engine reference handed to makeModel().
 */

#ifndef ASYNCCLOCK_CORE_MODEL_HH
#define ASYNCCLOCK_CORE_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hh"
#include "support/stats.hh"
#include "trace/trace.hh"

namespace asyncclock::core {

class DetectorEngine;

/** The causality models an engine can host. */
enum class ModelKind : std::uint8_t {
    Looper,  ///< extended Android looper/binder model (paper)
    Async,   ///< structured-concurrency async/await task graphs
};

/** Human-readable model name ("looper" / "async"). */
const char *modelName(ModelKind kind);

/** Parse a model name; false (out untouched) if unknown. */
bool parseModelName(const std::string &name, ModelKind &out);

/** The model a trace dialect calls for (Looper dialect -> Looper
 * model, Async dialect -> Async model). */
ModelKind modelForDialect(trace::Dialect d);

/**
 * Which happens-before edges a model treats as *schedule-dependent* —
 * orderings the observed execution forced but a different feasible
 * schedule could flip. The predictive tier (src/predict/) builds its
 * weakened ordering by dropping exactly these from the model's rule
 * set; everything else is programmatic (fork/join, post -> begin,
 * structured await/scope) and holds in every execution.
 */
struct WeakOrderingSpec
{
    /** Drop the queue-derived rules (PRIORITY/FIFO, ATFRONT, ATOMIC,
     * binder): which event dequeues first depends on the schedule of
     * the racing sends. */
    bool dropQueueOrderEdges = false;
    /** Drop signal -> wait edges beyond the first (releasing) signal
     * per handle: latch semantics only require *some* prior signal,
     * so later signals are schedule-dependent predecessors. */
    bool dropNonReleasingSignalEdges = false;

    /** True when the weakened ordering differs from the model's full
     * happens-before (i.e. prediction can surface candidates). */
    bool
    weakerThanStrong() const
    {
        return dropQueueOrderEdges || dropNonReleasingSignalEdges;
    }
};

/** The weakened-ordering spec for @p kind. The looper model drops
 * queue-order and non-releasing signal edges; the async model's edges
 * are all programmatic, so its weak ordering equals its strong one
 * (prediction still runs, but can only surface detector misses, not
 * schedule-hidden pairs). */
WeakOrderingSpec weakOrderingFor(ModelKind kind);

/**
 * One causality model plugged into a DetectorEngine.
 *
 * Call protocol (driven by the engine, in this order per operation):
 * syncEntities() after each source pull (entity tables may grow
 * mid-stream), admitOp() as the protocol gate (a non-null reason
 * drops the op; the engine counts it against its invalid-op budget),
 * applyOp() for the happens-before work and access emission, then
 * ageWindow() and gcSweep() on the engine's cadence, and
 * syncDerivedCounters() to publish model-derived counter values.
 * Over a memory budget the engine climbs its degradation ladder with
 * the same hooks: aggressiveSweep(), then window halvings with
 * ageWindow() and gcSweep(), then ageWindow() with an unbounded now.
 * With the window off (always, for the async model) the engine makes
 * no ageWindow() call and the ladder stops after its first rung.
 * Tolerated causality anomalies are reported back through
 * DetectorEngine::noteAnomaly(), which charges the same budget.
 */
class CausalityModel
{
  public:
    virtual ~CausalityModel() = default;

    virtual ModelKind kind() const = 0;

    /** Grow per-entity state to match the source's meta(). */
    virtual void syncEntities() = 0;

    /** Null if @p op is admissible under the model's entity life
     * cycles, and then commits its phase transition. Otherwise why
     * it is not (a static string); the engine drops the op. */
    virtual const char *admitOp(const trace::Operation &op) = 0;

    /** Apply one admitted operation: maintain clocks and metadata,
     * emit Read/Write accesses into the engine's checker. */
    virtual void applyOp(const trace::Operation &op,
                         trace::OpId id) = 0;

    /** Age out metadata that ended more than the configured time
     * window before @p now. True if anything left the aging queue.
     * A model without a time window keeps this default. */
    virtual bool ageWindow(std::uint64_t /*now*/) { return false; }

    /** Periodic garbage-collection sweep. */
    virtual void gcSweep() = 0;

    /** First rung of the memory-pressure ladder: reclaim everything
     * reclaimable without recall impact. Defaults to gcSweep(). */
    virtual void aggressiveSweep() { gcSweep(); }

    /** Publish counters derived from model-internal state (live
     * metadata gauges etc.) into the engine's DetectorCounters. */
    virtual void syncDerivedCounters() = 0;

    /** Number of chains ever created (clock dimension). */
    virtual std::uint32_t numChains() const = 0;

    /** Live model-metadata bytes per category, excluding the checker
     * (VarState stays 0). Read from running totals, so the cost is the
     * number of owners that changed since the previous read, not the
     * amount of live metadata. */
    virtual MemCatBytes memoryBytes() const = 0;

    /** The same numbers computed by walking every owner's byteSize():
     * the oracle memoryBytes() is tested against. */
    virtual MemCatBytes walkMemoryBytes() const = 0;

    /** Live model-metadata bytes, excluding the checker: the pressure
     * ladder keys off this, and no rung can shrink checker state (see
     * DetectorConfig::memBudgetBytes). */
    std::uint64_t modelBytes() const { return memoryBytes().total(); }

    /** Register model-specific ("model.*") metrics. Called once from
     * DetectorEngine::attachObs when a registry is present. */
    virtual void registerModelMetrics(obs::MetricsRegistry &reg) = 0;
};

/** Construct the model implementation for @p kind, bound to
 * @p engine (which must outlive it). */
std::unique_ptr<CausalityModel> makeModel(ModelKind kind,
                                          DetectorEngine &engine);

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_MODEL_HH

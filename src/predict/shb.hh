/**
 * @file
 * ShbEngine: the weakened-ordering vector-clock pass of the
 * predictive tier (DESIGN.md section 16).
 *
 * The HB detector orders accesses by *every* rule the causality model
 * defines — including rules whose edges the observed schedule merely
 * happened to force (which event dequeued first, which signal
 * happened to release a latch). The predictive tier maintains a
 * second, weaker ordering that keeps only the *programmatic* edges —
 * those that hold in every execution of the program — and drops the
 * schedule-dependent ones named by the model's
 * core::WeakOrderingSpec:
 *
 *  - queue-order edges (PRIORITY/FIFO, ATFRONT, ATOMIC, binder
 *    begin-order): which racing send reaches the queue first is a
 *    property of the schedule, not the program;
 *  - non-releasing signal -> wait edges: a latch wait is ordered
 *    after *some* prior signal; any signal beyond the first could
 *    have been the releasing one under a different interleaving.
 *
 * Pairs unordered under the weak relation but ordered under full HB
 * are exactly the schedule-hidden candidates prediction proposes
 * (predict/candidates.hh) and replay then filters for soundness
 * (predict/predict.hh).
 *
 * The engine reuses the clock substrate — each task carries one
 * clock::VectorClock — and the report::AccessChecker sink interface,
 * so the same ExactChecker the oracle tests use can consume the weak
 * ordering (cross-validating the engine against gold::Closure with
 * the weakened GoldConfig).
 *
 * By design the engine is the linear-time mirror of the weakened
 * gold closure: for a well-formed trace, an ExactChecker driven by
 * run() reports exactly Closure(tr, weakened-config).races().
 * Malformed operations (entity ids outside the trace's tables —
 * decode-damaged streams in the fault-injection corpus) are skipped
 * and counted, never applied.
 */

#ifndef ASYNCCLOCK_PREDICT_SHB_HH
#define ASYNCCLOCK_PREDICT_SHB_HH

#include <cstdint>
#include <vector>

#include "clock/vector_clock.hh"
#include "core/model.hh"
#include "gold/closure.hh"
#include "report/checker.hh"
#include "trace/trace.hh"

namespace asyncclock::predict {

struct ShbConfig
{
    /** Which schedule-dependent edge families to drop. Default: the
     * spec of the model the trace's dialect calls for
     * (core::weakOrderingFor); pass explicitly for ablation. */
    core::WeakOrderingSpec spec{};
};

/**
 * One pass of weakened-ordering vector clocks over a materialized
 * trace. Construction binds the entity tables; run() (or repeated
 * step()) feeds every Read/Write to the sink with the access's weak
 * logical time, exactly as the detectors feed their checkers.
 */
class ShbEngine
{
  public:
    explicit ShbEngine(const trace::Trace &tr, ShbConfig cfg);

    /** Engine with the dialect's default weak-ordering spec. */
    explicit ShbEngine(const trace::Trace &tr);

    /** Apply one operation (@p id is its position in the trace).
     * Reads/writes reach @p sink; malformed ops are counted and
     * skipped. Ops must be stepped in trace order. */
    void step(const trace::Operation &op, trace::OpId id,
              report::AccessChecker &sink);

    /** step() every op of the bound trace. */
    void run(report::AccessChecker &sink);

    /** Ops skipped because they referenced entities outside the
     * trace's tables (fault-injected streams). */
    std::uint64_t malformedDropped() const { return malformed_; }

    /** Number of chains (= tasks) the pass created. */
    std::uint32_t numChains() const { return nextChain_; }

    /** Live clock bytes (diagnostics). */
    std::uint64_t byteSize() const;

  private:
    struct TaskState
    {
        clock::VectorClock clock;
        clock::ChainId chain = trace::kInvalidId;
        clock::Tick tick = 0;
        bool seen = false;
    };

    /** A recorded source-side clock for one deferred edge. */
    struct Snapshot
    {
        clock::VectorClock clock;
        bool set = false;
    };

    TaskState &stateFor(trace::Task task);
    bool validOp(const trace::Operation &op) const;

    const trace::Trace &tr_;
    ShbConfig cfg_;
    std::uint32_t nextChain_ = 0;
    std::uint64_t malformed_ = 0;

    std::vector<TaskState> threadState_;
    std::vector<TaskState> eventState_;

    /** fork op clock, keyed by forked thread (edge FORK). */
    std::vector<Snapshot> forkSnap_;
    /** thread-begin clock, keyed by thread (edge LOOPBEGIN). */
    std::vector<Snapshot> threadBeginSnap_;
    /** releasing signal clock (or all-signal accumulator when
     * extras are kept), keyed by handle (edge SIGNAL). */
    std::vector<Snapshot> signalSnap_;
    /** send/spawn clock, keyed by event (edge SEND / SPAWN). */
    std::vector<Snapshot> sendSnap_;
    /** settle clock (end or cancel), keyed by event (edge AWAIT). */
    std::vector<Snapshot> settleSnap_;
    /** accumulated event-end clocks, keyed by looper thread (edge
     * LOOPEND). */
    std::vector<Snapshot> looperEndAcc_;
    /** accumulated member settle clocks, keyed by scope handle (edge
     * SCOPE). */
    std::vector<Snapshot> scopeAcc_;
};

/** The weakened GoldConfig @p spec calls for — the oracle
 * counterpart of ShbEngine, used for replay feasibility and recall
 * scoring. */
gold::GoldConfig weakGoldConfig(const core::WeakOrderingSpec &spec);

} // namespace asyncclock::predict

#endif // ASYNCCLOCK_PREDICT_SHB_HH

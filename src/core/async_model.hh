/**
 * @file
 * The async/await task-graph causality model.
 *
 * Happens-before rules for structured-concurrency task graphs (the
 * async trace dialect, trace/trace.hh):
 *
 *  - SPAWN:  spawn(P, C) hb start(C) — a task starts causally after
 *    the spawning operation (the spawner's clock is snapshotted at the
 *    spawn and becomes the child's initial clock).
 *  - AWAIT:  finish(C) hb await(S, C) — awaiting a settled task joins
 *    its settle-time clock into the awaiter.
 *  - CANCEL: a cancelled task never runs; its settle time is the
 *    cancelling operation itself, so `await` of a cancelled task joins
 *    the canceller's clock (cancellation is a synchronization edge).
 *  - SCOPE:  every member task settles before its scope closes;
 *    close(h) joins the accumulated settle clocks of all members
 *    (structured concurrency's implicit join).
 *
 * Plus the thread-model edges shared with the looper dialect
 * (fork/join, signal/wait). There are no queues, no dispatch order,
 * and no Table 1 priorities: sibling tasks are unordered unless an
 * await/scope edge intervenes, which is exactly where the seeded
 * races of the async workload live.
 *
 * There is no time window: the paper's window (section 4.1) stands in
 * for old events of a looper queue, and a task graph has no queues.
 * Each task keeps its settle clock for later awaits (scope closes
 * read the scope's join of them), and its chain is recycled once a
 * successor's start clock covers the chain's last settle. Of the
 * engine's memory-pressure ladder only the first rung, gcSweep(),
 * applies.
 */

#ifndef ASYNCCLOCK_CORE_ASYNC_MODEL_HH
#define ASYNCCLOCK_CORE_ASYNC_MODEL_HH

#include <cstdint>
#include <vector>

#include "core/engine.hh"
#include "core/model.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace asyncclock::core {

class AsyncTaskModel : public CausalityModel
{
  public:
    explicit AsyncTaskModel(DetectorEngine &engine);

    ModelKind kind() const override { return ModelKind::Async; }
    void syncEntities() override;
    const char *admitOp(const trace::Operation &op) override;
    void applyOp(const trace::Operation &op, trace::OpId id) override;
    void gcSweep() override;
    void syncDerivedCounters() override;
    std::uint32_t numChains() const override
    {
        return static_cast<std::uint32_t>(chains_.size());
    }
    MemCatBytes memoryBytes() const override;
    MemCatBytes walkMemoryBytes() const override;
    void registerModelMetrics(obs::MetricsRegistry &reg) override;

  private:
    using VectorClock = clock::VectorClock;
    using ChainId = clock::ChainId;
    using Epoch = clock::Epoch;

    /** One task/thread chain: a tick counter and a vector clock.
     * Task chains are recycled once their last task's settle time is
     * known to a successor (lastEnd). */
    struct Chain
    {
        clock::Tick tick = 0;
        VectorClock vc;
        Epoch lastEnd{};
    };

    enum class ThreadPhase : std::uint8_t { Unstarted, Running, Ended };
    enum class TaskPhase : std::uint8_t {
        Unspawned,
        Pending,   ///< spawned, not yet started
        Running,
        Settled,   ///< finished or cancelled
    };

    const trace::TraceMeta &meta() const { return engine_.meta(); }

    ChainId newChain();
    ChainId chainOf(trace::Task task) const;
    Epoch tickChain(ChainId c);
    /** Join @p vc into @p c's clock (counted). */
    void joinInto(ChainId c, const VectorClock &vc);
    /** Book the change of @p vc, measured @p before bytes before the
     * change, under @p cat. Every clock is re-booked where it changes:
     * byteSize() of a clock costs O(1). */
    void
    rebook(MemCat cat, std::uint64_t before, const VectorClock &vc)
    {
        booked_.rebook(cat, before, vc.byteSize());
    }

    void onTaskStart(const trace::Operation &op);
    void onTaskFinish(const trace::Operation &op);
    /** Settle bookkeeping shared by finish and cancel: record the
     * settle clock and close the scope slot. */
    void settleTask(trace::EventId task, trace::HandleId scope,
                    const VectorClock &vc, Epoch settleEpoch);

    DetectorEngine &engine_;
    /** Engine-owned services (see looper_model.hh). */
    report::AccessChecker &checker_;
    DetectorCounters &counters_;

    std::vector<Chain> chains_;
    std::vector<ChainId> threadChain_;  ///< per thread
    std::vector<ChainId> taskChain_;    ///< per task (filled at start)
    /** Chains whose last task settled, available for reuse by a task
     * whose start clock covers lastEnd. */
    std::vector<ChainId> freeChains_;

    // Per-task clocks. spawnVC is live Pending->start; settleVC is
    // live from the settle on (awaits read it).
    std::vector<VectorClock> spawnVC_;
    std::vector<VectorClock> settleVC_;
    std::vector<Epoch> settleEpoch_;
    std::vector<std::uint64_t> startVtime_;  ///< for task spans
    /** Scope each task was spawned into (recorded at the spawn op, so
     * streaming sources need no entity-table support). */
    std::vector<trace::HandleId> taskScope_;

    // Thread-model edges (same semantics as the looper dialect).
    std::vector<VectorClock> forkVC_;       ///< per thread
    std::vector<std::uint8_t> forkValid_;
    std::vector<VectorClock> threadEndVC_;  ///< per thread
    std::vector<VectorClock> handleVC_;     ///< per handle (signal)

    // Scopes (indexed by handle id).
    std::vector<VectorClock> scopeJoin_;    ///< settled members' join
    std::vector<std::uint32_t> scopeOpen_;  ///< unsettled member count

    /** Running byte totals of everything memoryBytes() reports:
     * per-task clocks as EventMeta, all other clocks as VectorClock,
     * the chain records as Other. A clock's clear() keeps its
     * capacity, so it needs no re-booking. */
    MemCatBytes booked_;

    std::vector<std::uint8_t> threadPhase_;
    std::vector<std::uint8_t> taskPhase_;

    // model.* metrics (registered in registerModelMetrics).
    std::uint64_t tasksSpawned_ = 0;
    std::uint64_t tasksAwaited_ = 0;
    std::uint64_t tasksCancelled_ = 0;
    std::uint64_t scopesClosed_ = 0;
    std::uint64_t tasksLive_ = 0;  ///< spawned, not yet settled
    std::uint64_t tasksLivePeak_ = 0;

    /** Tracer track for per-task spans; registered on first use. */
    int taskTrack_ = -1;
};

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_ASYNC_MODEL_HH

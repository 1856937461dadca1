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
 * Scalability mirrors the looper model in miniature: settled tasks
 * older than the time window fold into a single window clock (version
 * epoch on a marker chain, so repeat joins are skipped), their chains
 * are recycled, and the memory-pressure ladder reuses the engine's
 * GC cadence.
 */

#ifndef ASYNCCLOCK_CORE_ASYNC_MODEL_HH
#define ASYNCCLOCK_CORE_ASYNC_MODEL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/config.hh"
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
    bool admitOp(const trace::Operation &op) override;
    void applyOp(const trace::Operation &op, trace::OpId id) override;
    void ageWindow(std::uint64_t now) override;
    void gcSweep() override;
    void relieveMemoryPressure(std::uint64_t now) override;
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

    /** The window clock all aged settle times fold into. One per run
     * (tasks have no queues); versioned on a marker chain so a clock
     * that already saw the current version skips the join. */
    struct WindowClock
    {
        VectorClock vc;
        ChainId marker = trace::kInvalidId;
        clock::Tick version = 0;
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
    /** Join the window clock into @p vc if it does not already carry
     * the current window version. */
    void joinWindowFloor(VectorClock &vc);
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
     * settle clock, close the scope slot, queue for window aging. */
    void settleTask(trace::EventId task, trace::HandleId scope,
                    const VectorClock &vc, Epoch settleEpoch,
                    std::uint64_t vtime);
    /** Fold the oldest settled task into the window clock. */
    void ageOneSettled();
    void drainSettledWindow();

    DetectorEngine &engine_;
    /** Engine-owned services (see looper_model.hh). */
    report::AccessChecker &checker_;
    DetectorConfig &cfg_;
    DetectorCounters &counters_;

    std::vector<Chain> chains_;
    std::vector<ChainId> threadChain_;  ///< per thread
    std::vector<ChainId> taskChain_;    ///< per task (filled at start)
    /** Chains whose last task settled, available for reuse by a task
     * whose start clock covers lastEnd. */
    std::vector<ChainId> freeChains_;

    // Per-task clocks. spawnVC is live Pending->start; settleVC is
    // live Settled->aged (awaits and scope closes read it).
    std::vector<VectorClock> spawnVC_;
    std::vector<VectorClock> settleVC_;
    std::vector<Epoch> settleEpoch_;
    std::vector<std::uint8_t> aged_;  ///< settle folded into window
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

    WindowClock window_;
    /** Settled tasks in settle order, for window aging. */
    std::deque<std::pair<std::uint64_t, trace::EventId>> settled_;

    /** Running byte totals of everything memoryBytes() reports except
     * settled_ (sized on read): per-task clocks as EventMeta, all
     * other clocks as VectorClock, the chain records as Other. A
     * clock's clear() keeps its capacity, so it needs no re-booking. */
    MemCatBytes booked_;

    std::vector<std::uint8_t> threadPhase_;
    std::vector<std::uint8_t> taskPhase_;

    // model.* metrics (registered in registerModelMetrics).
    std::uint64_t tasksSpawned_ = 0;
    std::uint64_t tasksAwaited_ = 0;
    std::uint64_t tasksCancelled_ = 0;
    std::uint64_t scopesClosed_ = 0;
    std::uint64_t windowFolds_ = 0;
    std::uint64_t tasksLive_ = 0;  ///< spawned, not yet settled
    std::uint64_t tasksLivePeak_ = 0;

    /** Tracer track for per-task spans; registered on first use. */
    int taskTrack_ = -1;
};

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_ASYNC_MODEL_HH

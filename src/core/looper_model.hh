/**
 * @file
 * The looper causality model (paper sections 3-5), plugged into the
 * model-agnostic DetectorEngine.
 *
 * Single-pass, non-graph-based happens-before inference for the
 * extended Android causality model. Per chain it maintains a vector
 * clock, one AsyncClock per queue (latest causally-preceding send per
 * chain), generalized AsyncClocks for Rule ATOMIC, and async-before
 * send lists for the non-total Table 1 priority function. An event's
 * logical time is resolved at its begin by joining the end times of
 * the predecessors named by the AsyncClock at its send (section 3.2),
 * walking the async-before lists with the paper's early-stopping
 * rules for tagged events (section 5.3).
 *
 * Scalability (section 4): event metadata is reference-counted and
 * reclaimed when heirless; multi-path reduction fires at event end;
 * the time-window approximation ages out old events into a per-queue
 * time-window clock (TC), invalidates their metadata, and retires
 * idle chains for reuse; periodic GC sweeps drop dead AsyncClock
 * entries and trims the lists. Sparse representations throughout.
 *
 * Deviations from the paper, made for soundness under the *extended*
 * model and documented in DESIGN.md:
 *  - the begin-time AC reduction ("remove all causal predecessors of
 *    E from AC_q") only drops an entry when the async-before walk
 *    verified that everything at or below it is causally inherited —
 *    unconditional dropping is only sound for the base FIFO model;
 *  - async-before list records hold counted references; records
 *    dominated within their priority class (same kind+flag, equal
 *    time constraint — every plain FIFO post) are dropped eagerly,
 *    which is what keeps FIFO events reclaimable by refcount.
 */

#ifndef ASYNCCLOCK_CORE_LOOPER_MODEL_HH
#define ASYNCCLOCK_CORE_LOOPER_MODEL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/meta.hh"
#include "core/model.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace asyncclock::core {

class LooperModel : public CausalityModel
{
  public:
    explicit LooperModel(DetectorEngine &engine);
    ~LooperModel() override;

    ModelKind kind() const override { return ModelKind::Looper; }
    void syncEntities() override;
    const char *admitOp(const trace::Operation &op) override;
    void applyOp(const trace::Operation &op, trace::OpId id) override;
    bool ageWindow(std::uint64_t now) override;
    void gcSweep() override;
    /** Rung 1: compact every async-before list (tombstones out,
     * capacity returned) and run a full sweep. */
    void aggressiveSweep() override;
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

    /** One record of an async-before list: an event sent from this
     * chain to this queue. */
    struct SendRec
    {
        EventRef ev;
        clock::Tick sendTick = 0;
        trace::SendAttrs attrs{};
        bool dead = false;  ///< dominance-dropped; skip and GC
        /** Early-stopping case 2 (section 5.3): every earlier record
         * of the same class has time <= ours, so once we match a
         * target, everything deeper in our class is covered. */
        bool prefixMax = false;
    };

    /** Async-before list: sends from one chain to one queue, in send
     * order (sorted by sendTick). */
    struct SendList
    {
        std::vector<SendRec> recs;
        std::uint32_t deadCount = 0;
        /** Live records per priority class (drives the "fully
         * covered" determination of the begin-time AC reduction and
         * the per-class walk skip). */
        std::uint32_t liveCount[trace::kNumPriorityClasses] = {};
        /** Index+1 of the newest live rec per priority class, and its
         * time constraint; drives dominance-dropping. */
        std::uint32_t lastIdx[trace::kNumPriorityClasses] = {};
        /** Largest time constraint seen per class (prefixMax). */
        std::uint64_t maxTime[trace::kNumPriorityClasses] = {};

        std::uint64_t
        byteSize() const
        {
            return sizeof(SendList) +
                   recs.capacity() * sizeof(SendRec);
        }
    };

    struct ChainState
    {
        clock::Tick tick = 0;
        VectorClock vc;
        ACSet acs;
        AtomicSet atomic;
        FlatMap<SendList> sendLists;  ///< queue -> list
        EventRef lastEvent;
        bool lastEnded = true;
        bool isBinder = false;
        bool retired = false;
        /** 0 = thread chain, 1..3 = FIFO chain level, 255 = greedy. */
        std::uint8_t level = 255;
        /** FIFO chain decomposition: queue -> child FIFO chain for
         * plain-FIFO events sent from this chain. */
        FlatMap<clock::ChainId> fifoChild;
        /** Back-reference for retirement cleanup: the (parent chain,
         * queue) this FIFO chain serves. */
        clock::ChainId fifoParent = trace::kInvalidId;
        trace::QueueId fifoQueue = trace::kInvalidId;

        /** Walked bytes: the clock as VectorClock, AsyncClock and
         * atomic sets as AsyncClock, async-before lists as
         * AsyncBefore, the rest as Other. */
        MemCatBytes bytes() const;
    };

    /** Snapshot passed across fork/signal edges. */
    struct Snapshot
    {
        VectorClock vc;
        ACSet acs;
        AtomicSet atomic;

        /** Walked bytes, booked like a chain's. */
        MemCatBytes
        bytes() const
        {
            MemCatBytes b;
            b[MemCat::VectorClock] = vc.byteSize();
            b[MemCat::AsyncClock] =
                acSetBytes(acs) + atomicSetBytes(atomic);
            return b;
        }
    };

    /** Time-window clock: causal successor of every aged-out event
     * of a queue, inherited by every new event on it (section 4.1).
     * Stamped with a version epoch on a dedicated marker chain so a
     * begin whose clock already (transitively) includes the current
     * version skips the O(|TC|) join — after the first inheritor,
     * FIFO successors carry it for free. */
    struct WindowClock : Snapshot
    {
        ChainId marker = trace::kInvalidId;
        clock::Tick version = 0;
    };

    /** Entity tables seen so far by the engine's source. */
    const trace::TraceMeta &meta() const { return engine_.meta(); }

    // ----- robustness -----------------------------------------------
    /** Entity life cycles enforced by the admission gate. Decode-level
     * skip-and-count can hand the detector protocol-invalid sequences
     * (an EventBegin whose Send was skipped); the gate drops them at
     * the door — with a budget — so the resolution machinery only ever
     * sees ops consistent with its invariants. */
    enum class ThreadPhase : std::uint8_t { Unstarted, Running, Ended };
    enum class EventPhase : std::uint8_t { Unsent, Pending, Running, Done };

    // ----- op handlers ----------------------------------------------
    void onThreadBegin(const trace::Operation &op);
    void onThreadEnd(const trace::Operation &op);
    void onSend(const trace::Operation &op);
    void onRemove(const trace::Operation &op);
    void onEventBegin(const trace::Operation &op, trace::OpId id);
    void onEventEnd(const trace::Operation &op);

    // ----- resolution helpers ---------------------------------------
    /** Scratch result of one begin resolution. */
    struct Resolution
    {
        VectorClock vc;
        ACSet acs;
        AtomicSet atomic;
        /** Walk starts: the AsyncClock at send(E) for E's own queue,
         * snapshotted before any non-send-ordered state is merged.
         * The entry's event is processed directly (its async-before
         * record may have been dominance-dropped); records strictly
         * below its tick are walked. */
        std::vector<std::pair<clock::ChainId, ACEntry>> starts;
        /** Immediate predecessor events (greedy chain candidates). */
        std::vector<EventRef> preds;
        /** Per chain: walk reached the bottom with everything
         * inherited (enables the begin-time AC reduction). */
        FlatMap<std::uint8_t> fullyCovered;
        FlatMap<clock::Tick> walkedTick;
    };

    /** Inherit a predecessor's end state into @p r, re-materializing
     * the predecessor's own slot in its queue's AsyncClock (stripped
     * from its end snapshot to avoid a self-reference cycle). */
    void inheritEnd(Resolution &r, const EventRef &pred);
    /** Walk async-before lists for a looper-queue event. */
    void priorityResolve(EventMeta *m, Resolution &r);
    /** Inherit begin states of binder predecessors. */
    void binderResolve(EventMeta *m, Resolution &r);
    /** Sent-at-front fixpoint step; true if anything was joined. */
    bool atFrontFold(EventMeta *m, Resolution &r);
    /** ATOMIC fold for an op of an event on @p looper; true if
     * anything was joined. Clears folded entries. */
    bool atomicFold(trace::ThreadId looper, const EventMeta *self,
                    VectorClock &vc, ACSet &acs, AtomicSet &atomic);
    /** Lazily resolve a removed event's logical time (section 5.3). */
    void resolveRemoved(EventMeta *m);

    ChainId newChain();
    ChainId chooseChain(EventMeta *m, const Resolution &r);
    /** The chain executing @p task right now. */
    ChainId chainOf(trace::Task task) const;

    Epoch tickChain(ChainId c);
    void joinIntoChain(ChainId c, const Snapshot &snap);
    /** Fold ATOMIC entries if @p task is an event on a looper. */
    void maybeAtomicFold(trace::Task task);

    // ----- scalability ----------------------------------------------
    /** Drop heirless refcount-1 predecessors from @p m's end clock
     * (multi-path reduction, section 4.1). When @p deferred is given,
     * the dropped references are moved there instead of destroyed
     * inline — required while walking the meta registry, where an
     * inline destruction cascade could free the meta under iteration
     * (metadata reference cycles are legal). */
    void multiPathReduce(EventMeta *m,
                         std::vector<EventRef> *deferred = nullptr);
    /** Fold the oldest ended event into its queue's window clock. */
    void ageOneEnded();
    void retireChain(ChainId c);
    /** Begin-time dominance drop of the record adjacent below event
     * @p m's own async-before record (see definition for the safety
     * argument). */
    void dominanceDrop(EventMeta *m);

    // ----- running byte totals --------------------------------------
    /** Mark chain @p c as changed since the last byte read. */
    void touchChain(ChainId c);
    /** Re-measure the chains touched since the last read and book
     * the differences; every byte read starts here. */
    void settleChains() const;

    DetectorEngine &engine_;
    /** Engine-owned services, bound once (the moved resolution code
     * reads these under their pre-split member names). */
    report::AccessChecker &checker_;
    const DetectorConfig &cfg_;
    DetectorCounters &counters_;

    std::vector<ChainState> chains_;
    std::vector<ChainId> threadChain_;       ///< per thread
    std::vector<ChainId> eventChain_;        ///< per event (resolved)
    std::vector<Snapshot> forkSnap_;         ///< pending fork state
    std::vector<bool> forkSnapValid_;
    std::vector<Snapshot> threadEndState_;   ///< per ended thread
    std::vector<Epoch> threadEndEpoch_;
    std::vector<Snapshot> handleState_;      ///< per handle
    std::vector<Snapshot> looperBegin_;      ///< per looper thread
    /** Epoch of each looper's ThreadBegin: lets event begins skip the
     * LOOPBEGIN join when already inherited transitively. */
    std::vector<Epoch> looperBeginEpoch_;
    std::vector<VectorClock> looperEndAccum_;

    /** Active metadata handles: send->begin (pending) and
     * begin->end (running). Dropped at end so reference counting can
     * reclaim heirless events. */
    std::vector<FlatMap<EventRef>> pending_;  ///< per queue
    FlatMap<EventRef> running_;               ///< event id -> ref

    std::vector<WindowClock> windowClock_;    ///< per queue
    /** Ended events in end-time order, for aging. Weak so reference
     * counting can still reclaim heirless events inside the window. */
    std::deque<std::pair<std::uint64_t, WeakPtr<EventMeta>>>
        endedQueue_;

    /** Retired chains available for reuse, per queue (the new event
     * joined that queue's window clock, which orders it after the
     * retired chain's last event). */
    std::vector<std::vector<ChainId>> freeByQueue_;
    std::vector<ChainId> binderChains_;

    /** With reclaimHeirless off ("no reclaiming" in Fig 9a), every
     * event's metadata is pinned for the whole analysis. */
    std::vector<EventRef> pinned_;

    MetaRegistry registry_;

    /** Booked bytes of everything memoryBytes() reports except the
     * metas (registry_.bytes) and endedQueue_ (sized on read). Chains
     * change on almost every op, so a change only marks the chain and
     * the next read re-measures it; snapshots, window clocks,
     * looperEndAccum_, pending_ and running_ change at a few sites,
     * which re-book them on the spot. Mutable: reads settle it. */
    mutable MemCatBytes booked_;
    struct ChainBooking
    {
        MemCatBytes bytes;   ///< as last booked
        bool dirty = false;  ///< changed since; listed in dirtyChains_
    };
    mutable std::vector<ChainBooking> chainBooked_;  ///< per chain
    mutable std::vector<ChainId> dirtyChains_;

    std::vector<std::uint8_t> threadPhase_;   ///< per thread
    std::vector<std::uint8_t> eventPhase_;    ///< per event
};

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_LOOPER_MODEL_HH

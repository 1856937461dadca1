/**
 * @file
 * The ASYNCCLOCK primitive (paper section 3) and per-event metadata.
 *
 * An AsyncClock for a queue q is a sparse vector over chains: entry i
 * names the event posted to q by the *latest* causally preceding send
 * operation in chain i. Because both sends of any two entries for the
 * same chain lie on that chain, the join needs only an integer
 * comparison of their send ticks (section 3.3).
 *
 * Events are referenced from AsyncClocks (and the async-before lists,
 * pending queues, sent-at-front lists, ...) through InvPtr: when the
 * last reference drops, the metadata is reclaimed (reference-counting
 * heirless detection, section 4.1); when the time window ages an
 * event out, invalidate() frees it eagerly and surviving references
 * observe null.
 */

#ifndef ASYNCCLOCK_CORE_META_HH
#define ASYNCCLOCK_CORE_META_HH

#include <cstdint>
#include <vector>

#include "clock/vector_clock.hh"
#include "support/flat_map.hh"
#include "support/inv_ptr.hh"
#include "support/logging.hh"
#include "trace/trace.hh"

namespace asyncclock::core {

struct EventMeta;
using EventRef = InvPtr<EventMeta>;

/** One AsyncClock slot: the latest event sent to the clock's queue
 * from one chain, stamped with the send's tick on that chain. */
struct ACEntry
{
    EventRef ev;
    clock::Tick sendTick = 0;
};

/**
 * The AsyncClock primitive: chain -> ACEntry, with the paper's join
 * (pointwise "latest send wins") and identity reduction.
 */
class AsyncClock
{
  public:
    bool empty() const { return map_.empty(); }
    std::uint32_t size() const { return map_.size(); }

    const ACEntry *find(clock::ChainId chain) const
    {
        return map_.find(chain);
    }

    /** Install (chain -> ev@tick) if newer than the current entry. */
    void
    update(clock::ChainId chain, const EventRef &ev,
           clock::Tick sendTick)
    {
        ACEntry &slot = map_[chain];
        if (slot.sendTick < sendTick || !slot.ev.hasRef()) {
            slot.ev = ev;
            slot.sendTick = sendTick;
        }
    }

    /** The paper's join: per chain, keep the later send. */
    void
    joinWith(const AsyncClock &other)
    {
        other.map_.forEach(
            [this](clock::ChainId c, const ACEntry &e) {
                update(c, e.ev, e.sendTick);
            });
    }

    /** I_AC(E): collapse to a single entry (section 3.3 "Event
     * Creation" reduction after a send). */
    void
    reduceToIdentity(clock::ChainId chain, const EventRef &ev,
                     clock::Tick sendTick)
    {
        map_.clear();
        ACEntry &slot = map_[chain];
        slot.ev = ev;
        slot.sendTick = sendTick;
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        map_.forEach(fn);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        map_.forEach(fn);
    }

    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        map_.eraseIf(pred);
    }

    void clear() { map_.clear(); }

    std::uint64_t byteSize() const { return map_.byteSize(); }

  private:
    FlatMap<ACEntry> map_;
};

/** Per-queue AsyncClocks (sparse: only queues ever sent to). */
using ACSet = FlatMap<AsyncClock>;

/** Generalized AsyncClock entry for Rule ATOMIC: the latest begin of
 * an event on some looper, per chain (section 5.2/5.3). */
struct AtomicEntry
{
    EventRef ev;
    clock::Tick beginTick = 0;
};

/** chain -> AtomicEntry, for one looper. */
using AtomicClock = FlatMap<AtomicEntry>;
/** looper thread id -> AtomicClock. */
using AtomicSet = FlatMap<AtomicClock>;

/** Join an ACSet (per-queue AsyncClocks) pointwise. */
inline void
joinACSet(ACSet &dst, const ACSet &src)
{
    src.forEach([&dst](std::uint32_t q, const AsyncClock &ac) {
        dst[q].joinWith(ac);
    });
}

/** Join an AtomicSet pointwise (later begin per chain wins). */
inline void
joinAtomicSet(AtomicSet &dst, const AtomicSet &src)
{
    src.forEach([&dst](std::uint32_t looper, const AtomicClock &ac) {
        AtomicClock &d = dst[looper];
        ac.forEach([&d](clock::ChainId c, const AtomicEntry &e) {
            AtomicEntry &slot = d[c];
            if (slot.beginTick < e.beginTick || !slot.ev.hasRef()) {
                slot.ev = e.ev;
                slot.beginTick = e.beginTick;
            }
        });
    });
}

/** Byte footprint of an ACSet. */
inline std::uint64_t
acSetBytes(const ACSet &acs)
{
    std::uint64_t total = acs.byteSize();
    acs.forEach([&total](std::uint32_t, const AsyncClock &ac) {
        total += ac.byteSize();
    });
    return total;
}

inline std::uint64_t
atomicSetBytes(const AtomicSet &ats)
{
    std::uint64_t total = ats.byteSize();
    ats.forEach([&total](std::uint32_t, const AtomicClock &ac) {
        total += ac.byteSize();
    });
    return total;
}

/** Intrusive registry of live metas, with their running byte total,
 * plus the shared drain queue that turns chained metadata destruction
 * into a loop — a causal chain thousands of events long must not
 * unwind as destructor recursion (stack overflow). */
struct MetaRegistry
{
    EventMeta *head = nullptr;
    std::uint64_t live = 0;
    std::uint64_t livePeak = 0;
    std::uint64_t destroyed = 0;
    /** Sum of the live metas' booked bytes (EventMeta::rebook). */
    std::uint64_t bytes = 0;
    bool draining = false;
    std::vector<EventRef> drainQueue;
};

/** Move every counted reference out of @p acs into @p out. */
inline void
drainACSet(ACSet &acs, std::vector<EventRef> &out)
{
    acs.forEach([&out](std::uint32_t, AsyncClock &ac) {
        ac.forEach([&out](clock::ChainId, ACEntry &entry) {
            if (entry.ev.hasRef())
                out.push_back(std::move(entry.ev));
        });
        ac.clear();
    });
}

inline void
drainAtomicSet(AtomicSet &ats, std::vector<EventRef> &out)
{
    ats.forEach([&out](std::uint32_t, AtomicClock &ac) {
        ac.forEach([&out](clock::ChainId, AtomicEntry &entry) {
            if (entry.ev.hasRef())
                out.push_back(std::move(entry.ev));
        });
        ac.clear();
    });
}

/**
 * Per-event analysis metadata. Lifecycle:
 *  - created at send with the sender's clock/AsyncClock snapshots;
 *  - at begin, sendACs are consumed (moved into the chain state) and
 *    the begin epoch is minted; sendVC survives until end (multi-path
 *    reduction needs the send-before-send test);
 *  - at end, the end clock/ACs are snapshotted — this is what future
 *    immediate successors inherit;
 *  - destroyed by the last reference drop (heirless) or invalidate()
 *    (time window).
 */
struct EventMeta
{
    trace::EventId id = trace::kInvalidId;
    trace::QueueId queue = trace::kInvalidId;
    trace::SendAttrs attrs{};

    // --- send-time state -------------------------------------------
    clock::Epoch sendEpoch{};       ///< (sender chain, send tick)
    clock::VectorClock sendVC;
    ACSet sendACs;
    AtomicSet sendAtomic;

    // --- resolved state ---------------------------------------------
    bool begun = false;
    bool ended = false;
    bool removed = false;
    bool resolvedRemoved = false;   ///< lazy removed-event resolution
    clock::Epoch beginEpoch{};
    clock::Epoch endEpoch{};
    /** byteSize() as last booked into registry->bytes (see rebook()).
     * 32 bits fill the alignment gap before endVC, so the field adds
     * nothing to sizeof(EventMeta), which byteSize() itself counts. */
    std::uint32_t bookedBytes = 0;
    clock::VectorClock endVC;       ///< also holds a removed event's
                                    ///< resolved clock
    ACSet endACs;
    AtomicSet endAtomic;
    /** Begin-time clock/ACs, kept only for binder events (their
     * successors inherit begins, not ends). */
    clock::VectorClock beginVC;
    ACSet beginACs;
    AtomicSet beginAtomic;

    std::uint64_t endVtime = 0;     ///< for time-window aging

    /** AtFront events executed while this event was queued, already
     * filtered by premise send(this) hb send(front). */
    std::vector<EventRef> sentAtFront;

    // --- intrusive registry ----------------------------------------
    MetaRegistry *registry = nullptr;
    EventMeta *prev = nullptr;
    EventMeta *next = nullptr;

    explicit EventMeta(MetaRegistry &reg) : registry(&reg)
    {
        next = reg.head;
        if (next)
            next->prev = this;
        reg.head = this;
        ++reg.live;
        if (reg.live > reg.livePeak)
            reg.livePeak = reg.live;
        rebook();
    }

    EventMeta(const EventMeta &) = delete;
    EventMeta &operator=(const EventMeta &) = delete;

    ~EventMeta()
    {
        if (prev)
            prev->next = next;
        else
            registry->head = next;
        if (next)
            next->prev = prev;
        --registry->live;
        ++registry->destroyed;
        registry->bytes -= bookedBytes;

        // Hand outgoing references to the registry's drain queue and,
        // if no drain is already running above us on the stack, run
        // it: destruction of long causal chains becomes a loop
        // instead of recursion.
        MetaRegistry &reg = *registry;
        drainACSet(sendACs, reg.drainQueue);
        drainACSet(endACs, reg.drainQueue);
        drainACSet(beginACs, reg.drainQueue);
        drainAtomicSet(sendAtomic, reg.drainQueue);
        drainAtomicSet(endAtomic, reg.drainQueue);
        drainAtomicSet(beginAtomic, reg.drainQueue);
        for (EventRef &ref : sentAtFront)
            reg.drainQueue.push_back(std::move(ref));
        sentAtFront.clear();
        if (!reg.draining) {
            reg.draining = true;
            while (!reg.drainQueue.empty()) {
                EventRef ref = std::move(reg.drainQueue.back());
                reg.drainQueue.pop_back();
                ref.reset();
            }
            reg.draining = false;
        }
    }

    /** Heap and inline bytes, walked over every clock and list. */
    std::uint64_t
    byteSize() const
    {
        return sizeof(EventMeta) + sendVC.byteSize() +
               acSetBytes(sendACs) + atomicSetBytes(sendAtomic) +
               endVC.byteSize() + acSetBytes(endACs) +
               atomicSetBytes(endAtomic) + beginVC.byteSize() +
               acSetBytes(beginACs) + atomicSetBytes(beginAtomic) +
               sentAtFront.capacity() * sizeof(EventRef);
    }

    /**
     * Re-measure after a change and book the difference into
     * registry->bytes. The model calls this wherever a meta changes
     * size: at send, begin and end, when its sent-at-front list grows
     * and when a removed event is resolved. Nothing else changes an
     * ended meta's size: GC cleanses and multi-path reduction erase
     * entries in place, keeping every table's capacity.
     */
    void
    rebook()
    {
        std::uint64_t now = byteSize();
        acAssert(now <= UINT32_MAX, "EventMeta over 4 GiB");
        registry->bytes = registry->bytes - bookedBytes + now;
        bookedBytes = static_cast<std::uint32_t>(now);
    }
};

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_META_HH

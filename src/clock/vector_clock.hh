/**
 * @file
 * Sparse vector clocks over chains.
 *
 * A chain (section 2.4) is either a worker thread or a chain of
 * causally ordered events produced by chain decomposition; chains play
 * the role threads play in conventional vector clocks. Because a long
 * execution can create thousands of chains while any single operation
 * has causal history in only a few, the clock is stored sparsely
 * (section 4.2 "Sparse Vectors", following accordion clocks [7]):
 * absent entries mean timestamp 0.
 *
 * The map chain -> tick is a canonical-layout SoA hash table
 * (clock/soa_table.hh), so joins and comparisons between clocks that
 * hold the same chain set run as one pass over the tick lanes.
 */

#ifndef ASYNCCLOCK_VECTOR_CLOCK_HH
#define ASYNCCLOCK_VECTOR_CLOCK_HH

#include <cstdint>
#include <string>

#include "clock/policy.hh"
#include "clock/soa_table.hh"

namespace asyncclock::clock {

class VectorClock
{
  public:
    VectorClock() = default;

    /** Timestamp known for @p chain (0 if none). */
    Tick
    get(ChainId chain) const
    {
        return map_.get(chain);
    }

    /** Raise the entry for @p chain to at least @p tick. */
    void
    raise(ChainId chain, Tick tick)
    {
        if (tick == 0)
            return;
        map_.raiseTo(chain, tick);
    }

    /** Does this clock know epoch @p e (i.e. op(e) happens-before the
     * point this clock describes)? */
    bool
    knows(const Epoch &e) const
    {
        return e.tick == 0 || get(e.chain) >= e.tick;
    }

    /** Pointwise maximum with @p other. */
    void
    joinWith(const VectorClock &other)
    {
        ClockStats &st = clockStats();
        st.joins.fetch_add(1, std::memory_order_relaxed);
        st.noteJoinSize(other.map_.size());
        if (other.map_.empty() || &other == this) {
            st.joinFastPaths.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        map_.joinFrom(other.map_);
        st.joinEntriesVisited.fetch_add(other.map_.size(),
                                        std::memory_order_relaxed);
    }

    /** True if this clock is pointwise <= @p other. */
    bool
    leq(const VectorClock &other) const
    {
        return map_.leqAll(other.map_);
    }

    bool
    operator==(const VectorClock &other) const
    {
        return map_.equals(other.map_);
    }

    /** True when joins and comparisons with @p other take the
     * lane-wise path (both clocks hold the same chain set). */
    bool
    sameLayoutAs(const VectorClock &other) const
    {
        return map_.sameLayout(other.map_);
    }

    /** Number of nonzero entries. */
    std::uint32_t size() const { return map_.size(); }

    /** Drop all entries. */
    void clear() { map_.clear(); }

    /** Remove entries for which @p pred(chain, tick) holds (used when
     * retiring chains under the time window). */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        map_.eraseIf(pred);
    }

    /** Iterate (chain, tick) entries (order unspecified). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        map_.forEach(fn);
    }

    /** Heap bytes, for metadata accounting. */
    std::uint64_t byteSize() const { return map_.byteSize(); }

    /** Debug rendering, e.g. "{0:3, 2:7}" (canonically sorted). */
    std::string toString() const;

  private:
    SoaTable map_;
};

} // namespace asyncclock::clock

#endif // ASYNCCLOCK_VECTOR_CLOCK_HH

/**
 * @file
 * Dense vector clock — the ablation baseline for section 4.2's
 * "Sparse Vectors" claim.
 *
 * A conventional vector clock indexed by chain id. Works fine while
 * chains number in the dozens (conventional multithreaded programs);
 * in an event-driven execution the chain count is unbounded, so the
 * dense form wastes O(#chains) space per clock and O(#chains) time
 * per join regardless of how few entries are nonzero. The paper's
 * answer is the sparse representation (clock/vector_clock.hh,
 * following accordion clocks [7]).
 *
 * Interface-compatible with clock::VectorClock for the operations the
 * detectors use, so it can also be dropped into experiments.
 *
 * Lives in tests/ (not src/clock/) because nothing in the library
 * proper uses it: it exists only as the reference the equivalence
 * tests check the sparse clock against.
 */

#ifndef ASYNCCLOCK_TESTS_DENSE_CLOCK_HH
#define ASYNCCLOCK_TESTS_DENSE_CLOCK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "clock/vector_clock.hh"

namespace asyncclock::clock {

class DenseClock
{
  public:
    DenseClock() = default;

    Tick
    get(ChainId chain) const
    {
        return chain < ticks_.size() ? ticks_[chain] : 0;
    }

    void
    raise(ChainId chain, Tick tick)
    {
        if (tick == 0)
            return;
        if (ticks_.size() <= chain)
            ticks_.resize(chain + 1, 0);
        if (ticks_[chain] < tick)
            ticks_[chain] = tick;
    }

    bool
    knows(const Epoch &e) const
    {
        return e.tick == 0 || get(e.chain) >= e.tick;
    }

    void
    joinWith(const DenseClock &other)
    {
        if (ticks_.size() < other.ticks_.size())
            ticks_.resize(other.ticks_.size(), 0);
        for (std::size_t i = 0; i < other.ticks_.size(); ++i)
            ticks_[i] = std::max(ticks_[i], other.ticks_[i]);
    }

    bool
    leq(const DenseClock &other) const
    {
        for (std::size_t i = 0; i < ticks_.size(); ++i) {
            if (ticks_[i] > other.get(static_cast<ChainId>(i)))
                return false;
        }
        return true;
    }

    std::uint32_t
    size() const
    {
        std::uint32_t n = 0;
        for (Tick t : ticks_)
            n += t != 0;
        return n;
    }

    /** Zero the entries for which @p pred(chain, tick) holds. */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        for (std::size_t i = 0; i < ticks_.size(); ++i) {
            if (ticks_[i] != 0 && pred(static_cast<ChainId>(i), ticks_[i]))
                ticks_[i] = 0;
        }
    }

    std::uint64_t
    byteSize() const
    {
        return ticks_.capacity() * sizeof(Tick);
    }

    /** Convert to the sparse representation (for tests). */
    VectorClock
    toSparse() const
    {
        VectorClock vc;
        for (std::size_t i = 0; i < ticks_.size(); ++i)
            vc.raise(static_cast<ChainId>(i), ticks_[i]);
        return vc;
    }

  private:
    std::vector<Tick> ticks_;
};

} // namespace asyncclock::clock

#endif // ASYNCCLOCK_TESTS_DENSE_CLOCK_HH

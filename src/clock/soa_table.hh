/**
 * @file
 * SoaTable: canonical-layout SoA hash table for sparse clocks.
 *
 * The sparse clock is a map chain -> tick. The original FlatMap
 * interleaves keys and values (AoS) and places entries by plain linear
 * probing, so the physical layout depends on insertion order and
 * joins must go entry-by-entry. This table changes both properties so
 * the hot loops (joinWith, leq) can run lane-wise:
 *
 *   - SoA lanes: keys and ticks live in two parallel uint32 arrays,
 *     so a join is a pointwise max over the tick array and leq is a
 *     pointwise compare — plain loops the compiler vectorises.
 *   - Canonical layout via Robin Hood hashing with a total-order tie
 *     break (probe distance, then key): the layout is a pure function
 *     of (key set, capacity), independent of insertion order.
 *     Rebuilding deletion and deterministic growth preserve it, so two
 *     clocks that passed through the same entries end up with
 *     byte-identical key lanes — and the join/leq fast path is then a
 *     single memcmp plus one pass over the tick lanes, no per-entry
 *     probing at all.
 *
 * Empty slots hold tick 0 — the identity of both max and <= — so the
 * lane loops can run over the full capacity without masking.
 * Observable behavior (find/insert-max/eraseIf/iteration set) matches
 * FlatMap exactly; only iteration *order* differs, which no clock
 * consumer observes (all serialization sorts canonically).
 */

#ifndef ASYNCCLOCK_SOA_TABLE_HH
#define ASYNCCLOCK_SOA_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace asyncclock::clock {

class SoaTable
{
  public:
    static constexpr std::uint32_t emptyKey = 0xFFFFFFFFu;

    SoaTable() = default;

    bool empty() const { return size_ == 0; }
    std::uint32_t size() const { return size_; }

    std::uint64_t
    byteSize() const
    {
        return (keys_.capacity() + ticks_.capacity()) *
               sizeof(std::uint32_t);
    }

    /** Value for @p key; 0 if absent. */
    std::uint32_t
    get(std::uint32_t key) const
    {
        if (keys_.empty())
            return 0;
        std::uint32_t i = probeStart(key);
        while (keys_[i] != emptyKey) {
            if (keys_[i] == key)
                return ticks_[i];
            i = (i + 1) & mask_;
        }
        return 0;
    }

    /** Insert-or-max: entry for @p key becomes max(current, @p val).
     * @p val must be nonzero (0 means "absent" in clock semantics). */
    void
    raiseTo(std::uint32_t key, std::uint32_t val)
    {
        acAssert(key != emptyKey, "SoaTable key reserved");
        if (!keys_.empty()) {
            std::uint32_t i = probeStart(key);
            while (keys_[i] != emptyKey) {
                if (keys_[i] == key) {
                    if (ticks_[i] < val)
                        ticks_[i] = val;
                    return;
                }
                i = (i + 1) & mask_;
            }
        }
        if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3)
            grow();
        insertFresh(key, val);
        ++size_;
    }

    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), emptyKey);
        std::fill(ticks_.begin(), ticks_.end(), 0u);
        size_ = 0;
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != emptyKey)
                fn(keys_[i],
                   static_cast<const std::uint32_t &>(ticks_[i]));
        }
    }

    template <typename Fn>
    bool
    forEachWhile(Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != emptyKey &&
                !fn(keys_[i],
                    static_cast<const std::uint32_t &>(ticks_[i])))
                return false;
        }
        return true;
    }

    /** Erase entries where @p pred(key, tick) holds; @p pred runs
     * exactly once per entry. Nothing matching leaves storage
     * untouched; otherwise the table is rebuilt into the same capacity,
     * and canonical insertion makes the result layout-identical to
     * building from the surviving set. */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        // The predicate sees a copy of the tick, never the lane.
        auto drops = [&pred](std::uint32_t key, std::uint32_t tick) {
            return pred(key, tick);
        };
        const std::size_t n = keys_.size();
        std::size_t first = 0;
        while (first < n && (keys_[first] == emptyKey ||
                             !drops(keys_[first], ticks_[first]))) {
            ++first;
        }
        if (first == n)
            return;
        std::vector<std::uint32_t> oldKeys = std::move(keys_);
        std::vector<std::uint32_t> oldTicks = std::move(ticks_);
        keys_.assign(n, emptyKey);
        ticks_.assign(n, 0u);
        size_ = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (oldKeys[i] == emptyKey || i == first ||
                (i > first && drops(oldKeys[i], oldTicks[i]))) {
                continue;
            }
            insertFresh(oldKeys[i], oldTicks[i]);
            ++size_;
        }
    }

    /** Key lane storage and its capacity, so tests can check that a
     * no-op eraseIf leaves storage untouched. */
    const std::uint32_t *data() const { return keys_.data(); }
    std::size_t capacity() const { return keys_.capacity(); }

    /** True when both tables have byte-identical key lanes — the
     * precondition for the lane-wise join/leq loops. */
    bool
    sameLayout(const SoaTable &other) const
    {
        return keys_.size() == other.keys_.size() && !keys_.empty() &&
               !std::memcmp(keys_.data(), other.keys_.data(),
                            keys_.size() * sizeof(std::uint32_t));
    }

    /**
     * Pointwise max with @p other. Same-layout pairs take one pass
     * over the tick lanes; otherwise every occupied slot of @p other
     * is inserted individually.
     */
    void
    joinFrom(const SoaTable &other)
    {
        if (other.size_ == 0)
            return;
        if (sameLayout(other)) {
            std::uint32_t *dst = ticks_.data();
            const std::uint32_t *src = other.ticks_.data();
            for (std::size_t i = 0, n = ticks_.size(); i < n; ++i)
                dst[i] = std::max(dst[i], src[i]);
            return;
        }
        for (std::size_t i = 0; i < other.keys_.size(); ++i) {
            if (other.keys_[i] != emptyKey)
                raiseTo(other.keys_[i], other.ticks_[i]);
        }
    }

    /** forall entries (k, t) here: t <= other.get(k). */
    bool
    leqAll(const SoaTable &other) const
    {
        if (size_ == 0)
            return true;
        if (sameLayout(other)) {
            const std::uint32_t *a = ticks_.data();
            const std::uint32_t *b = other.ticks_.data();
            std::uint32_t above = 0;
            for (std::size_t i = 0, n = ticks_.size(); i < n; ++i)
                above |= a[i] > b[i];
            return above == 0;
        }
        return forEachWhile(
            [&](std::uint32_t k, const std::uint32_t &t) {
                return t <= other.get(k);
            });
    }

    /** Content equality (same entry set and ticks). */
    bool
    equals(const SoaTable &other) const
    {
        if (size_ != other.size_)
            return false;
        if (sameLayout(other))
            return !std::memcmp(ticks_.data(), other.ticks_.data(),
                                ticks_.size() *
                                    sizeof(std::uint32_t));
        return forEachWhile(
            [&](std::uint32_t k, const std::uint32_t &t) {
                return other.get(k) == t;
            });
    }

  private:
    std::uint32_t
    probeStart(std::uint32_t key) const
    {
        std::uint64_t h = static_cast<std::uint64_t>(key) *
                          0x9e3779b97f4a7c15ULL;
        return static_cast<std::uint32_t>(h >> 32) & mask_;
    }

    /** Probe distance of the entry at slot @p i with key @p key. */
    std::uint32_t
    dist(std::uint32_t i, std::uint32_t key) const
    {
        return (i - probeStart(key)) & mask_;
    }

    /**
     * Robin Hood insertion of a key not present. Displaces richer
     * entries; ties on probe distance break by key order, giving a
     * layout that is a pure function of (key set, capacity).
     */
    void
    insertFresh(std::uint32_t key, std::uint32_t val)
    {
        std::uint32_t ck = key;
        std::uint32_t cv = val;
        std::uint32_t i = probeStart(ck);
        std::uint32_t d = 0;
        while (keys_[i] != emptyKey) {
            std::uint32_t ed = dist(i, keys_[i]);
            if (ed < d || (ed == d && keys_[i] > ck)) {
                std::swap(ck, keys_[i]);
                std::swap(cv, ticks_[i]);
                d = ed;
            }
            i = (i + 1) & mask_;
            ++d;
        }
        keys_[i] = ck;
        ticks_[i] = cv;
    }

    void
    grow()
    {
        std::vector<std::uint32_t> oldKeys = std::move(keys_);
        std::vector<std::uint32_t> oldTicks = std::move(ticks_);
        std::size_t cap = oldKeys.empty() ? 8 : oldKeys.size() * 2;
        keys_.assign(cap, emptyKey);
        ticks_.assign(cap, 0u);
        mask_ = static_cast<std::uint32_t>(cap - 1);
        for (std::uint32_t i = 0; i < oldKeys.size(); ++i) {
            if (oldKeys[i] != emptyKey)
                insertFresh(oldKeys[i], oldTicks[i]);
        }
    }

    std::vector<std::uint32_t> keys_;
    std::vector<std::uint32_t> ticks_;
    std::uint32_t mask_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace asyncclock::clock

#endif // ASYNCCLOCK_SOA_TABLE_HH

/**
 * @file
 * FlatMap: open-addressing hash map from uint32 keys to small values.
 *
 * Sparse vector clocks and AsyncClocks (section 4.2 "Sparse Vectors",
 * following accordion clocks [7]) are hash tables from chain ids to
 * timestamps/event references. std::unordered_map's node allocations
 * would dominate both time and the metadata byte accounting, so this
 * is a compact linear-probing table with backshift deletion (no
 * tombstones) and a byteSize() hook for MemStats.
 */

#ifndef ASYNCCLOCK_SUPPORT_FLAT_MAP_HH
#define ASYNCCLOCK_SUPPORT_FLAT_MAP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace asyncclock {

/**
 * Open-addressing map keyed by uint32. Key 0xFFFFFFFF is reserved as
 * the empty marker; chain ids never reach it in practice.
 */
template <typename V>
class FlatMap
{
  public:
    static constexpr std::uint32_t emptyKey = 0xFFFFFFFFu;

    struct Slot
    {
        std::uint32_t key = emptyKey;
        V value{};
    };

    FlatMap() = default;

    bool empty() const { return size_ == 0; }
    std::uint32_t size() const { return size_; }

    /** Bytes of heap storage, for MemStats accounting. */
    std::uint64_t
    byteSize() const
    {
        return slots_.capacity() * sizeof(Slot);
    }

    /** Find a value; nullptr if absent. */
    const V *
    find(std::uint32_t key) const
    {
        if (slots_.empty())
            return nullptr;
        std::uint32_t i = probeStart(key);
        while (slots_[i].key != emptyKey) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    V *
    find(std::uint32_t key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    /** Insert or fetch; returns a reference to the mapped value. */
    V &
    operator[](std::uint32_t key)
    {
        acAssert(key != emptyKey, "FlatMap key reserved");
        if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::uint32_t i = probeStart(key);
        while (slots_[i].key != emptyKey) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        ++size_;
        return slots_[i].value;
    }

    /** Remove a key if present; returns true if removed. */
    bool
    erase(std::uint32_t key)
    {
        if (slots_.empty())
            return false;
        std::uint32_t i = probeStart(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == emptyKey)
                return false;
            i = (i + 1) & mask_;
        }
        // Backshift deletion keeps probe sequences intact without
        // tombstones.
        std::uint32_t hole = i;
        std::uint32_t j = (i + 1) & mask_;
        while (slots_[j].key != emptyKey) {
            std::uint32_t home = probeStart(slots_[j].key);
            // Move j back into the hole if its probe path crosses it.
            bool wraps = hole <= j ? (home <= hole || home > j)
                                   : (home <= hole && home > j);
            if (wraps) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
            j = (j + 1) & mask_;
        }
        slots_[hole].key = emptyKey;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    void
    clear()
    {
        for (auto &s : slots_) {
            s.key = emptyKey;
            s.value = V{};
        }
        size_ = 0;
    }

    /** Iterate occupied slots. @p fn receives (key, value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &s : slots_) {
            if (s.key != emptyKey)
                fn(s.key, s.value);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &s : slots_) {
            if (s.key != emptyKey)
                fn(s.key, s.value);
        }
    }

    /**
     * Iterate occupied slots until @p fn returns false. @p fn
     * receives (key, const value&) and returns bool ("keep going").
     * Returns true if the walk completed, false if @p fn stopped it —
     * the early-exit primitive behind short-circuiting clock
     * comparisons (leq/==).
     */
    template <typename Fn>
    bool
    forEachWhile(Fn &&fn) const
    {
        for (const auto &s : slots_) {
            if (s.key != emptyKey && !fn(s.key, s.value))
                return false;
        }
        return true;
    }

    /**
     * Erase every entry for which @p pred(key, value) returns true;
     * @p pred runs exactly once per entry. A scan finds the first
     * match; when there is none, storage is left untouched (GC sweeps
     * mostly find nothing to drop). Otherwise the table is rebuilt at
     * the same size: backshift deletion during iteration would revisit
     * moved slots.
     */
    template <typename Pred>
    void
    eraseIf(Pred &&pred)
    {
        const std::size_t n = slots_.size();
        std::size_t first = 0;
        while (first < n && (slots_[first].key == emptyKey ||
                             !pred(slots_[first].key,
                                   slots_[first].value))) {
            ++first;
        }
        if (first == n)
            return;
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(n, Slot{});
        size_ = 0;
        for (std::size_t i = 0; i < n; ++i) {
            Slot &s = old[i];
            if (s.key == emptyKey || i == first ||
                (i > first && pred(s.key, s.value))) {
                continue;
            }
            insertFresh(s.key, std::move(s.value));
        }
    }

    /** Slot storage and its capacity, so tests can check that a
     * no-op eraseIf leaves storage untouched. */
    const Slot *data() const { return slots_.data(); }
    std::size_t capacity() const { return slots_.capacity(); }

  private:
    std::uint32_t
    probeStart(std::uint32_t key) const
    {
        // Fibonacci hashing spreads consecutive chain ids.
        std::uint64_t h = static_cast<std::uint64_t>(key) *
                          0x9e3779b97f4a7c15ULL;
        return static_cast<std::uint32_t>(h >> 32) & mask_;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        std::size_t cap = old.empty() ? 8 : old.size() * 2;
        slots_.assign(cap, Slot{});
        mask_ = static_cast<std::uint32_t>(cap - 1);
        size_ = 0;
        for (auto &s : old) {
            if (s.key != emptyKey)
                insertFresh(s.key, std::move(s.value));
        }
    }

    void
    insertFresh(std::uint32_t key, V &&value)
    {
        std::uint32_t i = probeStart(key);
        while (slots_[i].key != emptyKey)
            i = (i + 1) & mask_;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
    }

    std::vector<Slot> slots_;
    std::uint32_t mask_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace asyncclock

#endif // ASYNCCLOCK_SUPPORT_FLAT_MAP_HH

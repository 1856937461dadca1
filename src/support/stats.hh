/**
 * @file
 * Deterministic metadata byte accounting.
 *
 * The paper's scalability claims (Fig 9a, Fig 10, Table 2 "Mem") are
 * about how much *analysis metadata* — vector clocks, AsyncClocks,
 * event metadata, happens-before graph nodes — is alive over time.
 * Process RSS is noisy and allocator-dependent, so every metadata
 * container in this library reports its byte footprint to a MemStats
 * instance owned by the detector. Benches report live/peak bytes per
 * category; the numbers are bit-for-bit reproducible.
 */

#ifndef ASYNCCLOCK_SUPPORT_STATS_HH
#define ASYNCCLOCK_SUPPORT_STATS_HH

#include <array>
#include <cstdint>
#include <string>

#include "support/logging.hh"

namespace asyncclock {

/** Categories of analysis metadata tracked by MemStats. */
enum class MemCat : unsigned {
    EventMeta,      ///< Per-event metadata records (send/end VCs + ACs).
    VectorClock,    ///< Vector-clock storage (chain state, variables).
    AsyncClock,     ///< AsyncClock entries (chain/handle/event ACs).
    AsyncBefore,    ///< Async-before list entries (section 5.3).
    GraphNode,      ///< Baseline happens-before graph nodes.
    GraphEdge,      ///< Baseline happens-before graph edges.
    VarState,       ///< FastTrack per-variable state.
    Other,          ///< Anything else (handle tables, window queues...).
    NumCategories,
};

/** Human-readable name of a MemCat. */
const char *memCatName(MemCat cat);

constexpr unsigned kNumMemCats =
    static_cast<unsigned>(MemCat::NumCategories);

/** One byte count per MemCat. Also the unit of running byte totals:
 * an owner's bytes are booked into a total once, and re-booked when
 * the owner changes, so reading the total never walks the owners. */
struct MemCatBytes
{
    std::array<std::uint64_t, kNumMemCats> bytes{};

    std::uint64_t &
    operator[](MemCat cat)
    {
        return bytes[static_cast<unsigned>(cat)];
    }

    std::uint64_t
    operator[](MemCat cat) const
    {
        return bytes[static_cast<unsigned>(cat)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t b : bytes)
            sum += b;
        return sum;
    }

    MemCatBytes &
    operator+=(const MemCatBytes &other)
    {
        for (unsigned i = 0; i < kNumMemCats; ++i)
            bytes[i] += other.bytes[i];
        return *this;
    }

    bool operator==(const MemCatBytes &other) const = default;

    /** An owner booked as @p before now measures @p after. */
    void
    rebook(const MemCatBytes &before, const MemCatBytes &after)
    {
        for (unsigned i = 0; i < kNumMemCats; ++i)
            bytes[i] = bytes[i] - before.bytes[i] + after.bytes[i];
    }

    /** Single-category form of rebook(). */
    void
    rebook(MemCat cat, std::uint64_t before, std::uint64_t after)
    {
        std::uint64_t &b = (*this)[cat];
        b = b - before + after;
    }
};

/**
 * Live/peak byte counters, one pair per MemCat plus a total.
 *
 * Not thread-safe by design: each detector instance is single-threaded
 * (the tool is a single-pass offline analyzer) and owns its MemStats.
 */
class MemStats
{
  public:
    /** Record an allocation of @p bytes in category @p cat. */
    void
    alloc(MemCat cat, std::uint64_t bytes)
    {
        auto i = static_cast<unsigned>(cat);
        live_[i] += bytes;
        liveTotal_ += bytes;
        if (live_[i] > peak_[i])
            peak_[i] = live_[i];
        if (liveTotal_ > peakTotal_)
            peakTotal_ = liveTotal_;
    }

    /** Record that @p bytes in category @p cat were released. A
     * release exceeding the category's live count is a mismatched
     * alloc/release pair: panic at the bug instead of wrapping the
     * uint64 and poisoning every later Fig 9/10 number. */
    void
    release(MemCat cat, std::uint64_t bytes)
    {
        auto i = static_cast<unsigned>(cat);
        acAssert(live_[i] >= bytes, "MemStats release underflow");
        live_[i] -= bytes;
        liveTotal_ -= bytes;
    }

    /**
     * Set the live byte count of @p cat to an absolute value (used by
     * detectors that poll their containers' byteSize() periodically
     * rather than instrumenting every mutation).
     */
    void
    sample(MemCat cat, std::uint64_t bytes)
    {
        auto i = static_cast<unsigned>(cat);
        liveTotal_ = liveTotal_ - live_[i] + bytes;
        live_[i] = bytes;
        if (live_[i] > peak_[i])
            peak_[i] = live_[i];
        if (liveTotal_ > peakTotal_)
            peakTotal_ = liveTotal_;
    }

    /**
     * Set every category at once. The total peak is updated once, from
     * the new total: a series of sample() calls would also see each
     * intermediate sum, which never existed when one category grew
     * while a later one shrank.
     */
    void
    sampleAll(const MemCatBytes &bytes)
    {
        liveTotal_ = 0;
        for (unsigned i = 0; i < numCats; ++i) {
            live_[i] = bytes.bytes[i];
            if (live_[i] > peak_[i])
                peak_[i] = live_[i];
            liveTotal_ += live_[i];
        }
        if (liveTotal_ > peakTotal_)
            peakTotal_ = liveTotal_;
    }

    std::uint64_t
    live(MemCat cat) const
    {
        return live_[static_cast<unsigned>(cat)];
    }

    std::uint64_t
    peak(MemCat cat) const
    {
        return peak_[static_cast<unsigned>(cat)];
    }

    std::uint64_t liveTotal() const { return liveTotal_; }
    std::uint64_t peakTotal() const { return peakTotal_; }

    /** Multi-line human-readable summary of all categories. */
    std::string summary() const;

    /** Reset all counters to zero. */
    void reset();

  private:
    static constexpr unsigned numCats = kNumMemCats;

    std::array<std::uint64_t, numCats> live_{};
    std::array<std::uint64_t, numCats> peak_{};
    std::uint64_t liveTotal_ = 0;
    std::uint64_t peakTotal_ = 0;
};

} // namespace asyncclock

#endif // ASYNCCLOCK_SUPPORT_STATS_HH

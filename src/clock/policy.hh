/**
 * @file
 * Clock vocabulary and instrumentation: chain ids, ticks, epochs, and
 * the process-wide join counters.
 *
 * Every consumer of causal timestamps (detector, FastTrack checkers,
 * gold closure, EventRacer graph, checkpoints, replay verifier) talks
 * to clock::VectorClock (clock/vector_clock.hh). This header holds the
 * types they share with it plus ClockStats, the cheap relaxed-atomic
 * counters behind the obs clock.* metrics (join counts, join sizes,
 * entries visited).
 */

#ifndef ASYNCCLOCK_POLICY_HH
#define ASYNCCLOCK_POLICY_HH

#include <atomic>
#include <cstdint>

namespace asyncclock::obs {
class MetricsRegistry;
}

namespace asyncclock::clock {

using ChainId = std::uint32_t;
using Tick = std::uint32_t;

/**
 * A (chain, tick) pair naming one operation's position on its chain —
 * FastTrack's "epoch". The default epoch (tick 0) precedes everything.
 */
struct Epoch
{
    ChainId chain = 0;
    Tick tick = 0;

    bool operator==(const Epoch &other) const = default;
};

/**
 * Substrate-wide counters, updated with relaxed atomics from the join
 * path only (raise/get stay free). joinSizeBuckets is a log2
 * histogram of the entry count of join sources.
 */
struct ClockStats
{
    static constexpr unsigned kJoinBuckets = 16;

    std::atomic<std::uint64_t> joins{0};
    /** Joins resolved without touching entries (empty source or
     * self-join). */
    std::atomic<std::uint64_t> joinFastPaths{0};
    /** Entries actually visited by joins (the work a join did). */
    std::atomic<std::uint64_t> joinEntriesVisited{0};
    /** Deep and shared clock copies. Nothing increments these (a
     * clock copy is a plain value copy); they stay because the
     * end-to-end benchmark (perfbench/) reports them. */
    std::atomic<std::uint64_t> deepCopies{0};
    std::atomic<std::uint64_t> sharedCopies{0};
    /** log2 histogram of join-source entry counts; bucket i counts
     * sources with size in [2^i, 2^(i+1)), last bucket is overflow. */
    std::atomic<std::uint64_t> joinSizeBuckets[kJoinBuckets];

    void
    noteJoinSize(std::uint32_t entries)
    {
        // bucket = floor(log2(entries)), clamped; 0 and 1 share
        // bucket 0.
        unsigned b = 0;
        while (entries > 1 && b < kJoinBuckets - 1) {
            entries >>= 1;
            ++b;
        }
        joinSizeBuckets[b].fetch_add(1, std::memory_order_relaxed);
    }

    void reset();
};

/** The process-wide stats instance. */
namespace detail
{
/** Storage for clockStats(). constinit: no static-init guard on the
 * hot paths (every join bumps a counter through this). */
inline constinit ClockStats gClockStats{};
} // namespace detail

/** Process-wide clock instrumentation counters. */
inline ClockStats &
clockStats()
{
    return detail::gClockStats;
}

/** Zero all counters (bench harnesses, tests). */
void resetClockStats();

/** Publish clockStats() as "clock.*" callback metrics on @p reg. */
void registerClockStats(obs::MetricsRegistry &reg);

} // namespace asyncclock::clock

#endif // ASYNCCLOCK_POLICY_HH

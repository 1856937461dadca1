#include "clock/policy.hh"

#include <cstdio>

#include "obs/metrics.hh"

namespace asyncclock::clock {

void
ClockStats::reset()
{
    joins.store(0, std::memory_order_relaxed);
    joinFastPaths.store(0, std::memory_order_relaxed);
    joinEntriesVisited.store(0, std::memory_order_relaxed);
    deepCopies.store(0, std::memory_order_relaxed);
    sharedCopies.store(0, std::memory_order_relaxed);
    for (auto &b : joinSizeBuckets)
        b.store(0, std::memory_order_relaxed);
}

void
resetClockStats()
{
    clockStats().reset();
}

void
registerClockStats(obs::MetricsRegistry &reg)
{
    ClockStats &s = clockStats();
    auto rd = [](const std::atomic<std::uint64_t> &v) {
        return v.load(std::memory_order_relaxed);
    };
    reg.counterFn("clock.joins", [&s, rd] { return rd(s.joins); });
    reg.counterFn("clock.join_fast_paths",
                  [&s, rd] { return rd(s.joinFastPaths); });
    reg.counterFn("clock.join_entries_visited",
                  [&s, rd] { return rd(s.joinEntriesVisited); });
    reg.counterFn("clock.copies_deep",
                  [&s, rd] { return rd(s.deepCopies); });
    reg.counterFn("clock.copies_shared",
                  [&s, rd] { return rd(s.sharedCopies); });
    for (unsigned i = 0; i < ClockStats::kJoinBuckets; ++i) {
        char name[48];
        std::snprintf(name, sizeof name, "clock.join_size_log2.%02u",
                      i);
        reg.counterFn(name, [&s, rd, i] {
            return rd(s.joinSizeBuckets[i]);
        });
    }
}

} // namespace asyncclock::clock

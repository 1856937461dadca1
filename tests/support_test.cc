/**
 * @file
 * Unit tests for the support substrate: formatting, statistics,
 * deterministic RNG, FlatMap, and InvPtr.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "support/bounded_queue.hh"
#include "support/flat_map.hh"
#include "support/format.hh"
#include "support/inv_ptr.hh"
#include "support/rng.hh"
#include "support/stats.hh"

namespace asyncclock {
namespace {

TEST(Format, Strf)
{
    EXPECT_EQ(strf("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strf("empty"), "empty");
}

TEST(Format, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512B");
    EXPECT_EQ(humanBytes(2048), "2.0KB");
    EXPECT_EQ(humanBytes(3 * 1024ull * 1024), "3.0MB");
}

TEST(Format, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(1234567), "1,234,567");
}

TEST(MemStats, AllocReleaseAndPeak)
{
    MemStats s;
    s.alloc(MemCat::EventMeta, 100);
    s.alloc(MemCat::VectorClock, 50);
    EXPECT_EQ(s.live(MemCat::EventMeta), 100u);
    EXPECT_EQ(s.liveTotal(), 150u);
    s.release(MemCat::EventMeta, 60);
    EXPECT_EQ(s.live(MemCat::EventMeta), 40u);
    EXPECT_EQ(s.peak(MemCat::EventMeta), 100u);
    EXPECT_EQ(s.peakTotal(), 150u);
}

TEST(MemStats, SampleSetsAbsoluteValue)
{
    MemStats s;
    s.sample(MemCat::AsyncClock, 500);
    s.sample(MemCat::AsyncClock, 200);
    EXPECT_EQ(s.live(MemCat::AsyncClock), 200u);
    EXPECT_EQ(s.peak(MemCat::AsyncClock), 500u);
    EXPECT_EQ(s.peakTotal(), 500u);
    s.sample(MemCat::GraphNode, 1000);
    EXPECT_EQ(s.liveTotal(), 1200u);
}

TEST(MemStats, SampleAllRecordsOnlyTotalsThatExisted)
{
    MemCatBytes before;
    before[MemCat::EventMeta] = 1000;
    before[MemCat::AsyncClock] = 1000;
    MemCatBytes after;  // one category rises while another falls
    after[MemCat::EventMeta] = 1500;
    after[MemCat::AsyncClock] = 200;

    // Per-category samples pass through 1500 + 1000, a total the
    // detector never held.
    MemStats seq;
    for (const MemCatBytes &b : {before, after}) {
        seq.sample(MemCat::EventMeta, b[MemCat::EventMeta]);
        seq.sample(MemCat::AsyncClock, b[MemCat::AsyncClock]);
    }
    EXPECT_EQ(seq.peakTotal(), 2500u);

    MemStats all;
    all.sampleAll(before);
    all.sampleAll(after);
    EXPECT_EQ(all.peakTotal(), 2000u);
    EXPECT_EQ(all.liveTotal(), 1700u);
    EXPECT_EQ(all.live(MemCat::AsyncClock), 200u);
    EXPECT_EQ(all.peak(MemCat::EventMeta), 1500u);
    EXPECT_EQ(all.peak(MemCat::AsyncClock), 1000u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(r.range(3, 5));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, ChanceExtremes)
{
    Rng r(9);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkIndependence)
{
    Rng a(5);
    Rng child = a.fork();
    // Child stream differs from parent's continuation.
    EXPECT_NE(child.next(), Rng(5).next());
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    m[3] = 30;
    m[7] = 70;
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(3), nullptr);
    EXPECT_EQ(*m.find(3), 30);
    EXPECT_EQ(m.find(4), nullptr);
    EXPECT_TRUE(m.erase(3));
    EXPECT_FALSE(m.erase(3));
    EXPECT_EQ(m.find(3), nullptr);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
}

TEST(FlatMap, MatchesStdMapUnderRandomOps)
{
    FlatMap<std::uint64_t> m;
    std::map<std::uint32_t, std::uint64_t> ref;
    Rng r(123);
    for (int i = 0; i < 20000; ++i) {
        std::uint32_t key = static_cast<std::uint32_t>(r.below(300));
        switch (r.below(3)) {
          case 0:
            m[key] = i;
            ref[key] = i;
            break;
          case 1:
            EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
            break;
          default:
            {
                const auto *found = m.find(key);
                auto it = ref.find(key);
                if (it == ref.end()) {
                    EXPECT_EQ(found, nullptr);
                } else {
                    ASSERT_NE(found, nullptr);
                    EXPECT_EQ(*found, it->second);
                }
            }
        }
        EXPECT_EQ(m.size(), ref.size());
    }
    // Final full sweep both directions.
    m.forEach([&](std::uint32_t k, std::uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(v, it->second);
    });
}

TEST(FlatMap, EraseIf)
{
    FlatMap<int> m;
    for (std::uint32_t i = 0; i < 100; ++i)
        m[i] = static_cast<int>(i);
    m.eraseIf([](std::uint32_t k, int &) { return k % 2 == 0; });
    EXPECT_EQ(m.size(), 50u);
    m.forEach([](std::uint32_t k, int &) { EXPECT_EQ(k % 2, 1u); });
}

TEST(FlatMap, EraseIfMatchingNothingLeavesStorage)
{
    FlatMap<int> m;
    for (std::uint32_t i = 0; i < 100; ++i)
        m[i] = static_cast<int>(i);
    const auto *data = m.data();
    const std::size_t cap = m.capacity();
    std::map<std::uint32_t, int> calls;
    m.eraseIf([&calls](std::uint32_t k, int &) {
        ++calls[k];
        return false;
    });
    EXPECT_EQ(m.data(), data);
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.size(), 100u);
    ASSERT_EQ(calls.size(), 100u);
    for (const auto &[k, n] : calls)
        EXPECT_EQ(n, 1) << "key " << k;

    // A match rebuilds, still visiting every entry once.
    calls.clear();
    m.eraseIf([&calls](std::uint32_t k, int &) {
        ++calls[k];
        return k == 57;
    });
    EXPECT_EQ(m.size(), 99u);
    EXPECT_EQ(m.find(57), nullptr);
    EXPECT_EQ(m.capacity(), cap);
    ASSERT_EQ(calls.size(), 100u);
    for (const auto &[k, n] : calls)
        EXPECT_EQ(n, 1) << "key " << k;
}

TEST(FlatMap, ByteSizeGrows)
{
    FlatMap<int> m;
    EXPECT_EQ(m.byteSize(), 0u);
    for (std::uint32_t i = 0; i < 100; ++i)
        m[i] = 1;
    EXPECT_GT(m.byteSize(), 100 * sizeof(int));
}

struct Probe
{
    static int liveCount;
    int value;
    explicit Probe(int v) : value(v) { ++liveCount; }
    ~Probe() { --liveCount; }
};
int Probe::liveCount = 0;

TEST(InvPtr, RefCountingReclaims)
{
    Probe::liveCount = 0;
    {
        auto p = InvPtr<Probe>::make(5);
        EXPECT_EQ(p.refCount(), 1u);
        EXPECT_EQ(Probe::liveCount, 1);
        {
            InvPtr<Probe> q = p;
            EXPECT_EQ(p.refCount(), 2u);
            EXPECT_EQ(q->value, 5);
        }
        EXPECT_EQ(p.refCount(), 1u);
        EXPECT_EQ(Probe::liveCount, 1);
    }
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InvPtr, InvalidateFreesEagerly)
{
    Probe::liveCount = 0;
    auto p = InvPtr<Probe>::make(1);
    InvPtr<Probe> q = p;
    p.invalidate();
    EXPECT_EQ(Probe::liveCount, 0);
    EXPECT_EQ(p.get(), nullptr);
    EXPECT_EQ(q.get(), nullptr);
    EXPECT_TRUE(q.hasRef());
    p.invalidate();  // idempotent
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InvPtr, MoveSemantics)
{
    Probe::liveCount = 0;
    auto p = InvPtr<Probe>::make(3);
    InvPtr<Probe> q = std::move(p);
    EXPECT_EQ(p.get(), nullptr);  // NOLINT(bugprone-use-after-move)
    ASSERT_NE(q.get(), nullptr);
    EXPECT_EQ(q->value, 3);
    EXPECT_EQ(q.refCount(), 1u);
    q.reset();
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InvPtr, SameAsComparesIdentity)
{
    auto p = InvPtr<Probe>::make(1);
    auto q = p;
    auto r = InvPtr<Probe>::make(1);
    EXPECT_TRUE(p.sameAs(q));
    EXPECT_FALSE(p.sameAs(r));
}

using support::BoundedQueue;
using support::PushResult;
using namespace std::chrono_literals;

TEST(BoundedQueue, TryPushForTimesOutOnFullQueueAndKeepsItem)
{
    BoundedQueue<std::string> q(1);
    std::string first = "first";
    ASSERT_TRUE(q.push(std::move(first)));
    std::string second = "second";
    EXPECT_EQ(q.tryPushFor(second, 20ms), PushResult::Timeout);
    // Timeout must leave the item with the caller for a retry.
    EXPECT_EQ(second, "second");
    EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, TryPushForSeesClose)
{
    BoundedQueue<int> q(1);
    q.close();
    int item = 7;
    EXPECT_EQ(q.tryPushFor(item, 10ms), PushResult::Closed);
    EXPECT_FALSE(q.push(8));
}

TEST(BoundedQueue, TryPushForSucceedsWhenConsumerDrains)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::thread consumer([&q] {
        std::this_thread::sleep_for(30ms);
        int got = 0;
        ASSERT_TRUE(q.pop(got));
        EXPECT_EQ(got, 1);
    });
    int item = 2;
    EXPECT_EQ(q.tryPushFor(item, 5000ms), PushResult::Pushed);
    consumer.join();
    EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, CloseWakesBlockedTimedPusher)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    PushResult result = PushResult::Pushed;
    std::thread pusher([&q, &result] {
        int item = 2;
        result = q.tryPushFor(item, 60000ms);
    });
    std::this_thread::sleep_for(30ms);
    q.close();
    pusher.join();
    EXPECT_EQ(result, PushResult::Closed);
}

TEST(BoundedQueue, CloseWakesEveryBlockedTimedPusherImmediately)
{
    // The daemon's drain path relies on close() releasing ALL
    // admission-blocked producers at once, long before their
    // timeouts expire.
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(0));
    constexpr int kPushers = 8;
    std::vector<PushResult> results(kPushers, PushResult::Pushed);
    std::vector<std::thread> pushers;
    pushers.reserve(kPushers);
    for (int i = 0; i < kPushers; ++i) {
        pushers.emplace_back([&q, &results, i] {
            int item = i;
            results[i] = q.tryPushFor(item, 60000ms);
        });
    }
    std::this_thread::sleep_for(30ms);
    const auto t0 = std::chrono::steady_clock::now();
    q.close();
    for (auto &t : pushers)
        t.join();
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(waited, 5000ms);  // far below the 60 s timeouts
    for (int i = 0; i < kPushers; ++i)
        EXPECT_EQ(results[i], PushResult::Closed) << "pusher " << i;
}

TEST(BoundedQueue, PopDrainsRemainingItemsAfterClose)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    q.close();
    int item = 0;
    EXPECT_TRUE(q.pop(item));
    EXPECT_EQ(item, 1);
    EXPECT_TRUE(q.pop(item));
    EXPECT_EQ(item, 2);
    EXPECT_FALSE(q.pop(item));
}

} // namespace
} // namespace asyncclock

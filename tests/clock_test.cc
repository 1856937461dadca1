/**
 * @file
 * Unit tests for sparse vector clocks and epochs.
 */

#include <gtest/gtest.h>

#include <map>

#include "clock/vector_clock.hh"
#include "support/rng.hh"

namespace asyncclock::clock {
namespace {

TEST(VectorClock, DefaultIsBottom)
{
    VectorClock vc;
    EXPECT_EQ(vc.get(0), 0u);
    EXPECT_EQ(vc.get(12345), 0u);
    EXPECT_EQ(vc.size(), 0u);
    EXPECT_TRUE(vc.knows(Epoch{7, 0}));   // tick 0 is always known
    EXPECT_FALSE(vc.knows(Epoch{7, 1}));
}

TEST(VectorClock, RaiseIsMonotone)
{
    VectorClock vc;
    vc.raise(3, 10);
    EXPECT_EQ(vc.get(3), 10u);
    vc.raise(3, 5);
    EXPECT_EQ(vc.get(3), 10u);
    vc.raise(3, 12);
    EXPECT_EQ(vc.get(3), 12u);
    EXPECT_EQ(vc.size(), 1u);
    vc.raise(9, 0);  // raising to 0 is a no-op, stays sparse
    EXPECT_EQ(vc.size(), 1u);
}

TEST(VectorClock, JoinIsPointwiseMax)
{
    VectorClock a, b;
    a.raise(0, 5);
    a.raise(1, 2);
    b.raise(1, 7);
    b.raise(2, 1);
    a.joinWith(b);
    EXPECT_EQ(a.get(0), 5u);
    EXPECT_EQ(a.get(1), 7u);
    EXPECT_EQ(a.get(2), 1u);
    EXPECT_EQ(b.get(0), 0u);  // b untouched
}

TEST(VectorClock, LeqAndEquality)
{
    VectorClock a, b;
    a.raise(0, 3);
    b.raise(0, 3);
    b.raise(1, 1);
    EXPECT_TRUE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
    EXPECT_FALSE(a == b);
    a.raise(1, 1);
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(a.leq(b) && b.leq(a));
}

TEST(VectorClock, KnowsEpoch)
{
    VectorClock vc;
    vc.raise(4, 9);
    EXPECT_TRUE(vc.knows(Epoch{4, 9}));
    EXPECT_TRUE(vc.knows(Epoch{4, 3}));
    EXPECT_FALSE(vc.knows(Epoch{4, 10}));
    EXPECT_FALSE(vc.knows(Epoch{5, 1}));
}

TEST(VectorClock, EraseIfDropsEntries)
{
    VectorClock vc;
    for (ChainId c = 0; c < 10; ++c)
        vc.raise(c, c + 1);
    vc.eraseIf([](ChainId c, Tick &) { return c >= 5; });
    EXPECT_EQ(vc.size(), 5u);
    EXPECT_EQ(vc.get(4), 5u);
    EXPECT_EQ(vc.get(7), 0u);
}

TEST(SoaTable, EraseIfMatchingNothingLeavesStorage)
{
    SoaTable t;
    for (std::uint32_t k = 0; k < 100; ++k)
        t.raiseTo(k, k + 1);
    const std::uint32_t *data = t.data();
    const std::size_t cap = t.capacity();
    std::map<std::uint32_t, int> calls;
    t.eraseIf([&calls](std::uint32_t k, std::uint32_t &) {
        ++calls[k];
        return false;
    });
    EXPECT_EQ(t.data(), data);
    EXPECT_EQ(t.capacity(), cap);
    EXPECT_EQ(t.size(), 100u);
    ASSERT_EQ(calls.size(), 100u);
    for (const auto &[k, n] : calls)
        EXPECT_EQ(n, 1) << "key " << k;

    // A match rebuilds into the canonical layout of the survivors,
    // still visiting every entry once.
    calls.clear();
    t.eraseIf([&calls](std::uint32_t k, std::uint32_t &) {
        ++calls[k];
        return k == 57;
    });
    SoaTable fresh;
    for (std::uint32_t k = 0; k < 100; ++k) {
        if (k != 57)
            fresh.raiseTo(k, k + 1);
    }
    EXPECT_TRUE(t.sameLayout(fresh));
    EXPECT_TRUE(t.equals(fresh));
    EXPECT_EQ(t.capacity(), cap);
    ASSERT_EQ(calls.size(), 100u);
    for (const auto &[k, n] : calls)
        EXPECT_EQ(n, 1) << "key " << k;
}

TEST(VectorClock, JoinPropertiesRandomized)
{
    // Join must be commutative, associative, idempotent; leq must be
    // consistent with join (a.leq(b) iff join(a,b) == b).
    asyncclock::Rng r(77);
    for (int iter = 0; iter < 200; ++iter) {
        auto randomClock = [&]() {
            VectorClock vc;
            int n = static_cast<int>(r.below(6));
            for (int i = 0; i < n; ++i) {
                vc.raise(static_cast<ChainId>(r.below(8)),
                         static_cast<Tick>(r.range(1, 9)));
            }
            return vc;
        };
        VectorClock a = randomClock(), b = randomClock(),
                    c = randomClock();

        VectorClock ab = a;
        ab.joinWith(b);
        VectorClock ba = b;
        ba.joinWith(a);
        EXPECT_TRUE(ab == ba);

        VectorClock abc1 = ab;
        abc1.joinWith(c);
        VectorClock bc = b;
        bc.joinWith(c);
        VectorClock abc2 = a;
        abc2.joinWith(bc);
        EXPECT_TRUE(abc1 == abc2);

        VectorClock aa = a;
        aa.joinWith(a);
        EXPECT_TRUE(aa == a);

        EXPECT_TRUE(a.leq(ab));
        EXPECT_TRUE(b.leq(ab));
        if (a.leq(b)) {
            VectorClock j = a;
            j.joinWith(b);
            EXPECT_TRUE(j == b);
        }
    }
}

TEST(VectorClock, ToStringIsSortedAndStable)
{
    VectorClock vc;
    vc.raise(2, 7);
    vc.raise(0, 3);
    EXPECT_EQ(vc.toString(), "{0:3, 2:7}");
    EXPECT_EQ(VectorClock().toString(), "{}");
}

TEST(VectorClock, ByteSizeTracksGrowth)
{
    VectorClock vc;
    EXPECT_EQ(vc.byteSize(), 0u);
    for (ChainId c = 0; c < 64; ++c)
        vc.raise(c, 1);
    EXPECT_GE(vc.byteSize(), 64 * sizeof(Tick));
}

} // namespace
} // namespace asyncclock::clock

/**
 * @file
 * VectorClock against the dense reference clock (tests/dense_clock.hh).
 *
 * A random-op differential test drives a universe of sparse clocks and
 * a universe of dense ones with the same operation stream and compares
 * every observable (get, size, knows, leq, ==, toString) after each
 * step. Assignments make pairs of clocks share a key set, so joins and
 * comparisons take both the lane-wise same-layout path and the general
 * per-entry path; eraseIf keeps the layout canonical under deletion.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dense_clock.hh"
#include "clock/vector_clock.hh"
#include "support/format.hh"
#include "support/rng.hh"

namespace asyncclock::clock {
namespace {

/** @p d rendered the way VectorClock::toString() renders. */
std::string
denseString(const DenseClock &d, ChainId maxChain)
{
    std::string out;
    for (ChainId c = 0; c <= maxChain; ++c) {
        if (Tick t = d.get(c)) {
            if (!out.empty())
                out += ", ";
            out += strf("%u:%u", c, t);
        }
    }
    return "{" + out + "}";
}

TEST(VectorClockEquiv, MatchesDenseReferenceUnderRandomOps)
{
    constexpr unsigned kClocks = 8;
    std::uint64_t sameLayoutJoins = 0;
    std::uint64_t generalJoins = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        // Alternate a narrow chain range (clocks converge on one key
        // set) with a wide one (clocks grow through several
        // capacities).
        const ChainId maxChain = seed % 2 ? 23 : 150;
        Rng rng(seed * 1000003);
        std::vector<VectorClock> vcs(kClocks);
        std::vector<DenseClock> ref(kClocks);
        for (unsigned step = 0; step < 300; ++step) {
            const auto op = rng.below(100);
            const auto i = static_cast<unsigned>(rng.below(kClocks));
            const auto j = static_cast<unsigned>(rng.below(kClocks));
            const auto c = static_cast<ChainId>(rng.below(maxChain + 1));
            const auto t = static_cast<Tick>(rng.range(1, 40));
            if (op < 40) {
                vcs[i].raise(c, t);
                ref[i].raise(c, t);
            } else if (op < 80) {
                if (vcs[i].sameLayoutAs(vcs[j]))
                    ++sameLayoutJoins;
                else
                    ++generalJoins;
                vcs[i].joinWith(vcs[j]);
                ref[i].joinWith(ref[j]);
            } else if (op < 92) {
                vcs[i] = vcs[j];
                ref[i] = ref[j];
            } else {
                auto below = [t](ChainId, Tick v) { return v < t; };
                vcs[i].eraseIf(below);
                ref[i].eraseIf(below);
            }

            SCOPED_TRACE(strf("seed %llu step %u op %llu",
                              (unsigned long long)seed, step,
                              (unsigned long long)op));
            ASSERT_EQ(vcs[i].size(), ref[i].size());
            for (ChainId k = 0; k <= maxChain + 1; ++k) {
                ASSERT_EQ(vcs[i].get(k), ref[i].get(k)) << "chain " << k;
                ASSERT_EQ(vcs[i].knows(Epoch{k, t}),
                          ref[i].knows(Epoch{k, t}))
                    << "chain " << k;
            }
            ASSERT_EQ(vcs[i].toString(), denseString(ref[i], maxChain));
            for (unsigned k = 0; k < kClocks; ++k) {
                const bool leq = ref[i].leq(ref[k]);
                const bool geq = ref[k].leq(ref[i]);
                ASSERT_EQ(vcs[i].leq(vcs[k]), leq) << "clock " << k;
                ASSERT_EQ(vcs[k].leq(vcs[i]), geq) << "clock " << k;
                ASSERT_EQ(vcs[i] == vcs[k], leq && geq) << "clock " << k;
            }
        }
    }
    EXPECT_GT(sameLayoutJoins, 1000u);
    EXPECT_GT(generalJoins, 1000u);
}

TEST(SimdSparse, CanonicalLayoutMakesJoinPairsSameLayout)
{
    // Two clocks that absorbed the same key set in *different*
    // orders must converge to byte-identical key lanes — the Robin
    // Hood canonical-layout property the lane-wise fast path relies
    // on.
    std::vector<ChainId> chains;
    for (ChainId c = 0; c < 128; ++c)
        chains.push_back(c * 7 + 1);
    VectorClock a, b;
    for (ChainId c : chains)
        a.raise(c, c + 1);
    for (std::size_t i = chains.size(); i-- > 0;)
        b.raise(chains[i], 2 * chains[i]);
    EXPECT_TRUE(a.sameLayoutAs(b));
    // Erase + reinsert keeps the layout canonical too.
    a.eraseIf([](ChainId c, Tick) { return c % 3 == 0; });
    b.eraseIf([](ChainId c, Tick) { return c % 3 == 0; });
    EXPECT_TRUE(a.sameLayoutAs(b));
    for (ChainId c : chains)
        if (c % 3 == 0) {
            a.raise(c, 5);
            b.raise(c, 5);
        }
    EXPECT_TRUE(a.sameLayoutAs(b));
}

} // namespace
} // namespace asyncclock::clock

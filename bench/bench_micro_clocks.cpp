/**
 * @file
 * Micro-benchmarks (google-benchmark) for the clock substrate: the
 * costs the paper's design decisions target — sparse vector-clock
 * joins and queries, AsyncClock joins (the "integer comparison per
 * chain" of section 3.3), identity reduction, FlatMap operations, and
 * InvPtr reference traffic. Ablation companion to the sparse-vector
 * claim of section 4.2.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "dense_clock.hh"
#include "clock/vector_clock.hh"
#include "core/meta.hh"
#include "support/flat_map.hh"
#include "support/rng.hh"

using namespace asyncclock;
using clock_ = asyncclock::clock::VectorClock;

namespace {

clock_
makeClock(unsigned entries, std::uint64_t seed)
{
    Rng rng(seed);
    clock_ vc;
    for (unsigned i = 0; i < entries; ++i) {
        vc.raise(static_cast<clock::ChainId>(rng.below(entries * 4)),
                 static_cast<clock::Tick>(rng.range(1, 1000)));
    }
    return vc;
}

void
BM_VectorClockJoin(benchmark::State &state)
{
    unsigned n = static_cast<unsigned>(state.range(0));
    clock_ a = makeClock(n, 1);
    clock_ b = makeClock(n, 2);
    for (auto _ : state) {
        clock_ c = a;
        c.joinWith(b);
        benchmark::DoNotOptimize(c.size());
    }
}
BENCHMARK(BM_VectorClockJoin)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_VectorClockKnows(benchmark::State &state)
{
    unsigned n = static_cast<unsigned>(state.range(0));
    clock_ vc = makeClock(n, 3);
    Rng rng(4);
    for (auto _ : state) {
        clock::Epoch e{static_cast<clock::ChainId>(rng.below(n * 4)),
                       static_cast<clock::Tick>(rng.range(1, 1000))};
        benchmark::DoNotOptimize(vc.knows(e));
    }
}
BENCHMARK(BM_VectorClockKnows)->Arg(16)->Arg(256);

void
BM_VectorClockCopy(benchmark::State &state)
{
    clock_ vc = makeClock(static_cast<unsigned>(state.range(0)), 5);
    for (auto _ : state) {
        clock_ copy = vc;
        benchmark::DoNotOptimize(copy.size());
    }
}
BENCHMARK(BM_VectorClockCopy)->Arg(16)->Arg(256);

/**
 * The section 4.2 ablation: joining clocks with a fixed number of
 * nonzero entries spread over a growing chain-id range. The sparse
 * clock's cost tracks the entry count; the dense clock's cost (and
 * footprint) tracks the id range — exactly the gap the paper's sparse
 * representation closes for event-driven executions with unbounded
 * chains.
 */
void
BM_SparseJoinFixedEntries(benchmark::State &state)
{
    unsigned range = static_cast<unsigned>(state.range(0));
    Rng rng(8);
    clock_ a, b;
    for (unsigned i = 0; i < 32; ++i) {
        a.raise(static_cast<clock::ChainId>(rng.below(range)), 5);
        b.raise(static_cast<clock::ChainId>(rng.below(range)), 7);
    }
    for (auto _ : state) {
        clock_ c = a;
        c.joinWith(b);
        benchmark::DoNotOptimize(c.size());
    }
}
BENCHMARK(BM_SparseJoinFixedEntries)
    ->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void
BM_DenseJoinFixedEntries(benchmark::State &state)
{
    unsigned range = static_cast<unsigned>(state.range(0));
    Rng rng(8);
    clock::DenseClock a, b;
    for (unsigned i = 0; i < 32; ++i) {
        a.raise(static_cast<clock::ChainId>(rng.below(range)), 5);
        b.raise(static_cast<clock::ChainId>(rng.below(range)), 7);
    }
    for (auto _ : state) {
        clock::DenseClock c = a;
        c.joinWith(b);
        benchmark::DoNotOptimize(c.size());
    }
}
BENCHMARK(BM_DenseJoinFixedEntries)
    ->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void
BM_AsyncClockJoin(benchmark::State &state)
{
    // AsyncClock join = per-chain integer comparison (section 3.3).
    unsigned n = static_cast<unsigned>(state.range(0));
    core::MetaRegistry reg;
    std::vector<core::EventRef> metas;
    core::AsyncClock a, b;
    Rng rng(6);
    for (unsigned i = 0; i < n; ++i) {
        metas.push_back(core::EventRef::make(reg));
        metas.push_back(core::EventRef::make(reg));
        a.update(i, metas[2 * i],
                 static_cast<clock::Tick>(rng.range(1, 1000)));
        b.update(i, metas[2 * i + 1],
                 static_cast<clock::Tick>(rng.range(1, 1000)));
    }
    for (auto _ : state) {
        core::AsyncClock c = a;
        c.joinWith(b);
        benchmark::DoNotOptimize(c.size());
    }
}
BENCHMARK(BM_AsyncClockJoin)->Arg(4)->Arg(16)->Arg(64);

void
BM_AsyncClockIdentityReduction(benchmark::State &state)
{
    core::MetaRegistry reg;
    auto meta = core::EventRef::make(reg);
    core::AsyncClock ac;
    for (unsigned i = 0; i < 32; ++i)
        ac.update(i, meta, i + 1);
    for (auto _ : state) {
        core::AsyncClock tmp = ac;
        tmp.reduceToIdentity(7, meta, 99);
        benchmark::DoNotOptimize(tmp.size());
    }
}
BENCHMARK(BM_AsyncClockIdentityReduction);

void
BM_FlatMapInsertFind(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state) {
        FlatMap<std::uint32_t> m;
        for (int i = 0; i < 64; ++i)
            m[static_cast<std::uint32_t>(rng.below(256))] = 1;
        benchmark::DoNotOptimize(m.find(17));
    }
}
BENCHMARK(BM_FlatMapInsertFind);

void
BM_InvPtrRefTraffic(benchmark::State &state)
{
    core::MetaRegistry reg;
    auto meta = core::EventRef::make(reg);
    for (auto _ : state) {
        core::EventRef copy = meta;
        benchmark::DoNotOptimize(copy.refCount());
    }
}
BENCHMARK(BM_InvPtrRefTraffic);

} // namespace

BENCHMARK_MAIN();

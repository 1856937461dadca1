/**
 * @file
 * Metadata accounting: the running byte totals the models and the
 * FastTrack checker keep must equal the byteSize() walks they replace,
 * in every category, after every operation — under the default
 * configuration, without heirless reclaim, without a time window, and
 * with a budget tight enough that every memory-pressure rung fires
 * (the async model has no window, so only its first rung can). The
 * async model's ladder decisions under that budget are pinned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "report/fasttrack.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

using core::DetectorConfig;
using core::DetectorEngine;
using core::ModelKind;

::testing::AssertionResult
sameBytes(const MemCatBytes &running, const MemCatBytes &walked)
{
    for (unsigned i = 0; i < kNumMemCats; ++i) {
        auto cat = static_cast<MemCat>(i);
        if (running[cat] != walked[cat]) {
            return ::testing::AssertionFailure()
                   << memCatName(cat) << ": running " << running[cat]
                   << " != walked " << walked[cat];
        }
    }
    return ::testing::AssertionSuccess();
}

trace::Trace
looperTrace(const char *app)
{
    return workload::generateApp(workload::profileByName(app, 0.02))
        .trace;
}

struct Drive
{
    core::DetectorCounters counters;
    MemCatBytes peak;  ///< per-category maximum of the running totals
};

/** Run @p tr op by op, comparing the running totals with the walks
 * after every op. Stops at the first mismatch. */
Drive
driveChecked(ModelKind kind, const trace::Trace &tr,
             const DetectorConfig &cfg, const std::string &what)
{
    report::FastTrackChecker checker;
    DetectorEngine eng(kind, tr, checker, cfg);
    MemStats stats;
    Drive out;
    std::uint64_t n = 0;
    while (eng.processNext()) {
        ++n;
        const MemCatBytes running = eng.model().memoryBytes();
        EXPECT_TRUE(sameBytes(running, eng.model().walkMemoryBytes()))
            << what << ", after op " << n;
        EXPECT_EQ(eng.model().modelBytes(), running.total())
            << what << ", after op " << n;
        EXPECT_EQ(checker.byteSize(), checker.walkByteSize())
            << what << ", after op " << n;
        eng.sampleMemory(stats);
        EXPECT_EQ(stats.liveTotal(),
                  eng.model().modelBytes() + checker.byteSize())
            << what << ", after op " << n;
        if (::testing::Test::HasFailure())
            return out;
        for (unsigned i = 0; i < kNumMemCats; ++i) {
            auto cat = static_cast<MemCat>(i);
            out.peak[cat] = std::max(out.peak[cat], running[cat]);
        }
    }
    EXPECT_TRUE(eng.runStatus().isOk()) << what;
    EXPECT_GT(n, 1000u) << what;
    out.counters = eng.counters();
    return out;
}

TEST(Accounting, LooperTotalsMatchWalkAfterEveryOp)
{
    for (const char *app : {"K9Mail", "AnyMemo"}) {
        trace::Trace tr = looperTrace(app);
        DetectorConfig noReclaim;
        noReclaim.reclaimHeirless = false;
        DetectorConfig noWindow;
        noWindow.windowMs = 0;
        DetectorConfig budget;
        budget.memBudgetBytes = 64 * 1024;
        const std::pair<const char *, DetectorConfig> configs[] = {
            {"defaults", DetectorConfig{}},
            {"reclaimHeirless=false", noReclaim},
            {"windowMs=0", noWindow},
            {"64K budget", budget},
        };
        for (const auto &[name, cfg] : configs) {
            std::string what = std::string(app) + ", " + name;
            Drive d = driveChecked(ModelKind::Looper, tr, cfg, what);
            ASSERT_FALSE(HasFailure()) << what;
            // Bytes are booked by content: clocks outside the metas,
            // async-before lists and AsyncClocks each have their own
            // category.
            EXPECT_GT(d.peak[MemCat::EventMeta], 0u) << what;
            EXPECT_GT(d.peak[MemCat::VectorClock], 0u) << what;
            EXPECT_GT(d.peak[MemCat::AsyncClock], 0u) << what;
            EXPECT_GT(d.peak[MemCat::AsyncBefore], 0u) << what;
            EXPECT_EQ(d.peak[MemCat::VarState], 0u) << what;
            if (cfg.memBudgetBytes > 0) {
                EXPECT_GT(d.counters.pressureGcSweeps, 0u) << what;
                EXPECT_GT(d.counters.pressureWindowShrinks, 0u) << what;
                EXPECT_GT(d.counters.pressureInvalidations, 0u) << what;
            }
        }
    }
}

TEST(Accounting, AsyncTotalsMatchWalkAfterEveryOp)
{
    for (const char *profile :
         {"AsyncTree", "AsyncPipeline", "AsyncFanOut"}) {
        workload::AsyncProfile p = workload::asyncProfileByName(profile);
        p.rootTasks *= 10;
        trace::Trace tr = workload::generateAsyncApp(p).trace;
        // The budget runs the pressure ladder.
        DetectorConfig budget;
        budget.memBudgetBytes = 16 * 1024;
        const std::pair<const char *, DetectorConfig> configs[] = {
            {"defaults", DetectorConfig{}},
            {"16K budget", budget},
        };
        for (const auto &[name, cfg] : configs) {
            std::string what = std::string(profile) + ", " + name;
            Drive d = driveChecked(ModelKind::Async, tr, cfg, what);
            ASSERT_FALSE(HasFailure()) << what;
            EXPECT_GT(d.peak[MemCat::EventMeta], 0u) << what;
            EXPECT_GT(d.peak[MemCat::VectorClock], 0u) << what;
            EXPECT_EQ(d.peak[MemCat::AsyncClock], 0u) << what;
            if (cfg.memBudgetBytes > 0) {
                EXPECT_GT(d.counters.pressureGcSweeps, 0u) << what;
            }
        }
    }
}

/** One async-model run: its counters, the races it found and the
 * peak of modelBytes() read between ops. */
struct AsyncRun
{
    core::DetectorCounters counters;
    std::uint64_t windowMs = 0;  ///< the engine's window at the end
    std::uint64_t peakModelBytes = 0;
    std::vector<report::RaceReport> races;
};

AsyncRun
runAsync(const trace::Trace &tr, const DetectorConfig &cfg)
{
    report::FastTrackChecker checker;
    DetectorEngine eng(ModelKind::Async, tr, checker, cfg);
    AsyncRun out;
    while (eng.processNext())
        out.peakModelBytes =
            std::max(out.peakModelBytes, eng.model().modelBytes());
    EXPECT_TRUE(eng.runStatus().isOk());
    out.counters = eng.counters();
    out.windowMs = eng.cfg().windowMs;
    out.races = checker.races();
    return out;
}

// The async model has no time window. A configured window and a
// memory budget (whose rungs 2 and 3 age by the window) must neither
// change the races nor raise peak metadata above the default run's.
TEST(Accounting, AsyncWindowAndBudgetNeverRaiseMetadata)
{
    for (const char *profile :
         {"AsyncTree", "AsyncPipeline", "AsyncFanOut"}) {
        workload::AsyncProfile p = workload::asyncProfileByName(profile);
        p.rootTasks *= 10;
        trace::Trace tr = workload::generateAsyncApp(p).trace;
        const AsyncRun base = runAsync(tr, DetectorConfig{});
        DetectorConfig shortWindow;
        shortWindow.windowMs = 20;
        DetectorConfig budget;
        budget.memBudgetBytes = 16 * 1024;
        const std::pair<const char *, DetectorConfig> configs[] = {
            {"20 ms window", shortWindow},
            {"16K budget", budget},
        };
        for (const auto &[name, cfg] : configs) {
            SCOPED_TRACE(std::string(profile) + ", " + name);
            const AsyncRun r = runAsync(tr, cfg);
            ASSERT_EQ(r.races.size(), base.races.size());
            for (std::size_t i = 0; i < r.races.size(); ++i) {
                EXPECT_EQ(r.races[i].var, base.races[i].var) << i;
                EXPECT_EQ(r.races[i].prevOp, base.races[i].prevOp) << i;
                EXPECT_EQ(r.races[i].curOp, base.races[i].curOp) << i;
            }
            EXPECT_EQ(r.counters.invalidatedByWindow, 0u);
            EXPECT_EQ(r.counters.pressureWindowShrinks, 0u);
            EXPECT_EQ(r.counters.pressureInvalidations, 0u);
            EXPECT_LE(r.peakModelBytes, base.peakModelBytes);
        }
    }
}

// The engine runs one memory-pressure ladder for both models. These
// are the async model's decisions under a 16 KB budget. The async
// model has no time window, so only rung 1 fires: the engine's window
// stays 0, nothing is shrunk or invalidated, and gcSweeps counts the
// cadence sweeps plus one per rung-1 sweep. Peak bytes are read
// between ops.
TEST(Accounting, AsyncLadderDecisionsPinned)
{
    struct Race
    {
        trace::VarId var;
        trace::OpId prevOp, curOp;
    };
    struct Pin
    {
        const char *profile;
        std::uint64_t sweeps, created, reused, gcSweeps;
        std::uint64_t peakModelBytes;
        std::vector<Race> races;
    };
    const Pin pins[] = {
        {"AsyncTree", 5, 331, 4, 5 + 5, 132440,
         {{25, 25, 29}, {32, 62, 63}, {41, 89, 97}, {48, 135, 136}}},
        {"AsyncPipeline", 4, 226, 4, 5 + 4, 102992,
         {{31, 43, 52}, {38, 102, 105}, {45, 140, 141}, {58, 206, 209}}},
        {"AsyncFanOut", 10, 650, 4, 10 + 10, 239504,
         {{30, 18, 19}, {39, 84, 89}, {46, 127, 128}, {57, 185, 189}}},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.profile);
        workload::AsyncProfile p =
            workload::asyncProfileByName(pin.profile);
        p.rootTasks *= 10;
        trace::Trace tr = workload::generateAsyncApp(p).trace;
        DetectorConfig cfg;
        cfg.memBudgetBytes = 16 * 1024;
        const AsyncRun r = runAsync(tr, cfg);
        const core::DetectorCounters &c = r.counters;
        EXPECT_EQ(c.pressureGcSweeps, pin.sweeps);
        EXPECT_EQ(c.pressureWindowShrinks, 0u);
        EXPECT_EQ(c.pressureInvalidations, 0u);
        EXPECT_EQ(r.windowMs, 0u);
        EXPECT_EQ(c.invalidatedByWindow, 0u);
        EXPECT_EQ(c.chainsCreated, pin.created);
        EXPECT_EQ(c.chainsReused, pin.reused);
        EXPECT_EQ(c.gcSweeps, pin.gcSweeps);
        EXPECT_EQ(r.peakModelBytes, pin.peakModelBytes);
        ASSERT_EQ(r.races.size(), pin.races.size());
        for (std::size_t i = 0; i < r.races.size(); ++i) {
            EXPECT_EQ(r.races[i].var, pin.races[i].var) << i;
            EXPECT_EQ(r.races[i].prevOp, pin.races[i].prevOp) << i;
            EXPECT_EQ(r.races[i].curOp, pin.races[i].curOp) << i;
        }
    }
}

} // namespace
} // namespace asyncclock

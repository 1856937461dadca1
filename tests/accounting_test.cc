/**
 * @file
 * Metadata accounting: the running byte totals the models and the
 * FastTrack checker keep must equal the byteSize() walks they replace,
 * in every category, after every operation — under the default
 * configuration, without heirless reclaim, without a time window, and
 * with a budget tight enough that every memory-pressure rung fires.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

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
        // A short window ages settled tasks into the window clock and
        // lets the sweep drop retired chain clocks; the budget runs
        // the pressure ladder.
        DetectorConfig shortWindow;
        shortWindow.windowMs = 20;
        shortWindow.gcIntervalOps = 256;
        DetectorConfig budget;
        budget.memBudgetBytes = 16 * 1024;
        const std::pair<const char *, DetectorConfig> configs[] = {
            {"defaults", DetectorConfig{}},
            {"20 ms window", shortWindow},
            {"16K budget", budget},
        };
        for (const auto &[name, cfg] : configs) {
            std::string what = std::string(profile) + ", " + name;
            Drive d = driveChecked(ModelKind::Async, tr, cfg, what);
            ASSERT_FALSE(HasFailure()) << what;
            EXPECT_GT(d.peak[MemCat::EventMeta], 0u) << what;
            EXPECT_GT(d.peak[MemCat::VectorClock], 0u) << what;
            EXPECT_EQ(d.peak[MemCat::AsyncClock], 0u) << what;
            if (cfg.windowMs == 20)
                EXPECT_GT(d.counters.invalidatedByWindow, 0u) << what;
            if (cfg.memBudgetBytes > 0)
                EXPECT_GT(d.counters.pressureGcSweeps, 0u) << what;
        }
    }
}

TEST(Accounting, FastTrackTotalMatchesWalkAfterLoadState)
{
    trace::Trace anyMemo = looperTrace("AnyMemo");
    report::FastTrackChecker ran;
    DetectorEngine eng(ModelKind::Looper, anyMemo, ran, {});
    eng.runAll();
    ASSERT_EQ(ran.byteSize(), ran.walkByteSize());

    std::stringstream blob;
    ASSERT_TRUE(ran.saveState(blob).isOk());
    const std::string bytes = blob.str();

    report::FastTrackChecker fresh;
    std::istringstream in(bytes);
    ASSERT_TRUE(fresh.loadState(in).isOk());
    EXPECT_EQ(fresh.byteSize(), fresh.walkByteSize());

    // Loading over a populated checker replaces its total too.
    trace::Trace k9 = looperTrace("K9Mail");
    report::FastTrackChecker reloaded;
    DetectorEngine other(ModelKind::Looper, k9, reloaded, {});
    other.runAll();
    std::istringstream again(bytes);
    ASSERT_TRUE(reloaded.loadState(again).isOk());
    EXPECT_EQ(reloaded.byteSize(), reloaded.walkByteSize());
    EXPECT_EQ(reloaded.byteSize(), fresh.byteSize());
}

} // namespace
} // namespace asyncclock

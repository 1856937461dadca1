/**
 * @file
 * The model/mechanism seam, exercised from the async side: model
 * selection helpers, AsyncTaskModel recall against the
 * model-parameterized gold closure, and the async workload generator.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/engine.hh"
#include "gold/closure.hh"
#include "report/fasttrack.hh"
#include "workload/async_workload.hh"

namespace asyncclock {
namespace {

using core::DetectorEngine;
using core::ModelKind;

// ---------------------------------------------------------------
// Model selection helpers.
// ---------------------------------------------------------------

TEST(ModelSeam, NamesParseAndPrint)
{
    EXPECT_STREQ(core::modelName(ModelKind::Looper), "looper");
    EXPECT_STREQ(core::modelName(ModelKind::Async), "async");
    ModelKind k = ModelKind::Looper;
    EXPECT_TRUE(core::parseModelName("async", k));
    EXPECT_EQ(k, ModelKind::Async);
    EXPECT_TRUE(core::parseModelName("looper", k));
    EXPECT_EQ(k, ModelKind::Looper);
    k = ModelKind::Async;
    EXPECT_FALSE(core::parseModelName("fifo", k));
    EXPECT_EQ(k, ModelKind::Async) << "failed parse must not clobber";
}

TEST(ModelSeam, DialectPicksModel)
{
    EXPECT_EQ(core::modelForDialect(trace::Dialect::Looper),
              ModelKind::Looper);
    EXPECT_EQ(core::modelForDialect(trace::Dialect::Async),
              ModelKind::Async);
}

// ---------------------------------------------------------------
// Recall against the gold closure (the issue's >= 0.95 bar; the
// generator's confinement discipline makes exact agreement
// achievable, so that is what we require).
// ---------------------------------------------------------------

TEST(AsyncModel, MatchesGoldClosureOnEveryProfile)
{
    for (const workload::AsyncProfile &p : workload::asyncProfiles()) {
        workload::GeneratedAsyncApp app =
            workload::generateAsyncApp(p);
        ASSERT_EQ(app.trace.validate(true), "") << p.name;

        report::ExactChecker checker;
        DetectorEngine eng(ModelKind::Async, app.trace, checker, {});
        eng.runAll();
        ASSERT_TRUE(eng.runStatus().isOk()) << p.name;

        std::set<std::pair<trace::OpId, trace::OpId>> detected;
        for (const report::RaceReport &r : checker.races())
            detected.insert({r.prevOp, r.curOp});

        gold::Closure closure(app.trace);
        std::size_t hit = 0;
        for (const gold::GoldRace &g : closure.races())
            hit += detected.count({g.first, g.second});
        ASSERT_GT(closure.races().size(), 0u) << p.name;
        double recall = static_cast<double>(hit) /
                        static_cast<double>(closure.races().size());
        EXPECT_GE(recall, 0.95) << p.name;
        // And no fabricated pairs: everything detected is gold-racy.
        EXPECT_EQ(detected.size(), hit) << p.name;
    }
}

TEST(AsyncModel, SeededRacesFoundAndConfinedVarsQuiet)
{
    for (const workload::AsyncProfile &p : workload::asyncProfiles()) {
        workload::GeneratedAsyncApp app =
            workload::generateAsyncApp(p);
        report::ExactChecker checker;
        DetectorEngine eng(ModelKind::Async, app.trace, checker, {});
        eng.runAll();

        std::set<trace::VarId> racy;
        for (const report::RaceReport &r : checker.races())
            racy.insert(r.var);
        for (trace::VarId v = 0; v < app.trace.vars().size(); ++v) {
            const trace::VarInfo &vi = app.trace.var(v);
            if (vi.seedLabel == trace::SeedLabel::Harmful) {
                EXPECT_TRUE(racy.count(v))
                    << p.name << ": seeded race on '" << vi.name
                    << "' missed";
            } else {
                EXPECT_FALSE(racy.count(v))
                    << p.name << ": false positive on '" << vi.name
                    << "'";
            }
        }
    }
}

// ---------------------------------------------------------------
// The generator itself.
// ---------------------------------------------------------------

TEST(AsyncWorkload, ProfilesAreDeterministic)
{
    workload::AsyncProfile p =
        workload::asyncProfileByName("AsyncFanOut");
    workload::GeneratedAsyncApp a = workload::generateAsyncApp(p);
    workload::GeneratedAsyncApp b = workload::generateAsyncApp(p);
    ASSERT_EQ(a.trace.numOps(), b.trace.numOps());
    for (trace::OpId i = 0; i < a.trace.numOps(); ++i) {
        EXPECT_EQ(a.trace.op(i).kind, b.trace.op(i).kind);
        EXPECT_EQ(a.trace.op(i).vtime, b.trace.op(i).vtime);
    }
    EXPECT_EQ(a.endTimeMs, b.endTimeMs);
    EXPECT_EQ(a.cancelledTasks, b.cancelledTasks);
}

TEST(AsyncWorkload, CancellationActuallyHappens)
{
    for (const workload::AsyncProfile &p : workload::asyncProfiles()) {
        workload::GeneratedAsyncApp app =
            workload::generateAsyncApp(p);
        EXPECT_GT(app.cancelledTasks, 0u)
            << p.name << ": the cancel cluster should guarantee at "
            << "least one cancelled task";
    }
}

} // namespace
} // namespace asyncclock

/**
 * @file
 * Fault-injection matrix: the checking pipeline must survive every
 * injectable fault class without crashing, hanging, or inventing
 * results. Byte-level damage (truncation, bit flips, short reads)
 * either skips-and-counts within the error budget or ends the run
 * with a structured, offset-carrying status; op-level damage (dups,
 * reorders, drops) is absorbed by the detector's protocol gate up to
 * its budget, then fails structurally; shard-level damage (poisoned
 * worker, stalled worker) trips the sharded checker's watchdog
 * machinery instead of wedging the run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hh"
#include "predict/candidates.hh"
#include "predict/shb.hh"
#include "report/fasttrack.hh"
#include "report/sharded.hh"
#include "trace/fault.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

using trace::FaultConfig;
using trace::FaultInjectingSource;
using trace::FaultyStreamBuf;
using trace::Operation;
using trace::Trace;

workload::AppProfile
profile(std::uint64_t seed, unsigned events)
{
    workload::AppProfile p;
    p.seed = seed;
    p.looperEvents = events;
    return p;
}

// ----- spec parsing ---------------------------------------------------

TEST(FaultSpec, ParsesEveryKey)
{
    auto parsed = trace::parseFaultSpec(
        "seed=7,truncate=100,flip=0.5,shortread=0.25,stall=10@4096,"
        "dup=0.01,reorder=0.02,drop=0.03,shard-stall=1:50,poison=2");
    ASSERT_TRUE(parsed);
    const FaultConfig &cfg = parsed.value();
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.truncateAfterBytes, 100u);
    EXPECT_DOUBLE_EQ(cfg.bitFlipRate, 0.5);
    EXPECT_DOUBLE_EQ(cfg.shortReadRate, 0.25);
    EXPECT_EQ(cfg.stallMicros, 10u);
    EXPECT_EQ(cfg.stallEveryBytes, 4096u);
    EXPECT_DOUBLE_EQ(cfg.dupRate, 0.01);
    EXPECT_DOUBLE_EQ(cfg.reorderRate, 0.02);
    EXPECT_DOUBLE_EQ(cfg.dropRate, 0.03);
    EXPECT_EQ(cfg.stallShard, 1u);
    EXPECT_EQ(cfg.shardStallMs, 50u);
    EXPECT_EQ(cfg.poisonShard, 2u);
    EXPECT_TRUE(cfg.anyByteFaults());
    EXPECT_TRUE(cfg.anyOpFaults());
}

TEST(FaultSpec, ParsesSessionLevelKeys)
{
    auto parsed = trace::parseFaultSpec(
        "sess-disconnect=3,sess-dup=5,sess-interleave=2");
    ASSERT_TRUE(parsed);
    const FaultConfig &cfg = parsed.value();
    EXPECT_EQ(cfg.sessDisconnectAtChunk, 3u);
    EXPECT_EQ(cfg.sessDupCreateAt, 5u);
    EXPECT_EQ(cfg.sessInterleaveAtChunk, 2u);
    EXPECT_TRUE(cfg.anySessionFaults());
    // Session faults live in the client; the stream/op layers stay
    // clean.
    EXPECT_FALSE(cfg.anyByteFaults());
    EXPECT_FALSE(cfg.anyOpFaults());

    auto empty = trace::parseFaultSpec("seed=3");
    ASSERT_TRUE(empty);
    EXPECT_FALSE(empty.value().anySessionFaults());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_FALSE(trace::parseFaultSpec("flip"));
    EXPECT_FALSE(trace::parseFaultSpec("flip=2.0"));   // rate > 1
    EXPECT_FALSE(trace::parseFaultSpec("flip=abc"));
    EXPECT_FALSE(trace::parseFaultSpec("unknown=1"));
    EXPECT_FALSE(trace::parseFaultSpec("stall=10"));   // missing @
    EXPECT_FALSE(trace::parseFaultSpec("shard-stall=1")); // missing :
    auto empty = trace::parseFaultSpec("");
    ASSERT_TRUE(empty);
    EXPECT_FALSE(empty.value().anyByteFaults());
    EXPECT_FALSE(empty.value().anyOpFaults());
}

// ----- byte level -----------------------------------------------------

TEST(FaultyStream, TruncatesAtExactOffset)
{
    std::string data(10000, 'x');
    std::istringstream under(data);
    FaultConfig cfg;
    cfg.truncateAfterBytes = 1234;
    FaultyStreamBuf buf(under, cfg);
    std::istream in(&buf);
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(out.size(), 1234u);
    EXPECT_EQ(buf.bytesDelivered(), 1234u);
}

TEST(FaultyStream, TellgTracksFaultedPosition)
{
    std::string data(5000, 'y');
    std::istringstream under(data);
    FaultConfig cfg;
    cfg.shortReadRate = 0.5;  // exercise partial refills
    FaultyStreamBuf buf(under, cfg);
    std::istream in(&buf);
    char sink[701];
    in.read(sink, sizeof(sink));
    ASSERT_EQ(in.gcount(), static_cast<std::streamsize>(sizeof(sink)));
    EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), sizeof(sink));
}

TEST(FaultyStream, BitFlipsAreSeedDeterministic)
{
    std::string data(4096, '\0');
    auto corrupt = [&](std::uint64_t seed) {
        std::istringstream under(data);
        FaultConfig cfg;
        cfg.seed = seed;
        cfg.bitFlipRate = 0.01;
        FaultyStreamBuf buf(under, cfg);
        std::istream in(&buf);
        std::string out((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        EXPECT_GT(buf.bitsFlipped(), 0u);
        return out;
    };
    std::string a = corrupt(3);
    std::string b = corrupt(3);
    std::string c = corrupt(4);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, data);
}

// ----- op level -------------------------------------------------------

TEST(FaultInjection, OpFaultsAreSeedDeterministic)
{
    auto app = workload::generateApp(profile(11, 80));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    FaultConfig cfg;
    cfg.seed = 9;
    cfg.dupRate = 0.05;
    cfg.reorderRate = 0.05;
    cfg.dropRate = 0.05;
    auto deliver = [&] {
        std::istringstream in(bin);
        trace::StreamingBinarySource inner(in);
        FaultInjectingSource src(inner, cfg);
        std::vector<std::pair<int, std::uint64_t>> ops;
        Operation op;
        while (src.next(op))
            ops.emplace_back(static_cast<int>(op.kind), op.vtime);
        EXPECT_GT(src.opsDuplicated() + src.opsReordered() +
                      src.opsDropped(),
                  0u);
        return ops;
    };
    EXPECT_EQ(deliver(), deliver());
}

TEST(FaultInjection, ProtocolGateSkipsAndCountsWithinBudget)
{
    auto app = workload::generateApp(profile(21, 80));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    std::istringstream in(bin);
    trace::StreamingBinarySource inner(in);
    FaultConfig cfg;
    cfg.dupRate = 0.02;  // duplicates alone: each is one dropped op
    FaultInjectingSource src(inner, cfg);

    report::FastTrackChecker checker;
    core::DetectorConfig dcfg;
    dcfg.maxInvalidOps = 1u << 30;  // effectively unbounded
    core::AsyncClockDetector det(src, checker, dcfg);
    det.runAll();
    EXPECT_TRUE(det.runStatus().isOk()) << det.runStatus().toString();
    EXPECT_GT(det.counters().invalidOpsDropped, 0u);
}

TEST(FaultInjection, BudgetExhaustionIsStructuredAndTerminal)
{
    auto app = workload::generateApp(profile(31, 120));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    std::istringstream in(bin);
    trace::StreamingBinarySource inner(in);
    FaultConfig cfg;
    cfg.dropRate = 0.2;  // scrambles causality fast
    FaultInjectingSource src(inner, cfg);

    report::FastTrackChecker checker;
    core::DetectorConfig dcfg;
    dcfg.maxInvalidOps = 16;
    core::AsyncClockDetector det(src, checker, dcfg);
    det.runAll();
    ASSERT_FALSE(det.runStatus().isOk());
    EXPECT_EQ(det.runStatus().code(), ErrCode::BudgetExceeded);
    // Failed runs stay failed: the pump refuses further work.
    EXPECT_FALSE(det.processNext());
}

// ----- corruption corpus ----------------------------------------------

/**
 * The corpus invariant: for every (seed, fault) pair the pipeline
 * terminates with either a clean report, a decoder skip-and-count
 * within budget, or a structured error from exactly one layer — and
 * never emits a race whose ids fall outside the trace's entity
 * tables (a "phantom" that a downstream consumer would chase).
 */
TEST(CorruptionCorpus, EveryOutcomeIsCleanSkippedOrStructured)
{
    auto app = workload::generateApp(profile(1, 100));
    std::string bin = trace::writeBinaryTraceToString(app.trace);

    struct Case
    {
        const char *name;
        FaultConfig cfg;
    };
    std::vector<Case> corpus;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultConfig truncate;
        truncate.seed = seed;
        truncate.truncateAfterBytes = (bin.size() * seed) / 7;
        corpus.push_back({"truncate", truncate});
        FaultConfig flip;
        flip.seed = seed;
        flip.bitFlipRate = 2e-4;
        corpus.push_back({"flip", flip});
        FaultConfig shortRead;
        shortRead.seed = seed;
        shortRead.shortReadRate = 0.3;
        corpus.push_back({"shortread", shortRead});
        FaultConfig ops;
        ops.seed = seed;
        ops.dupRate = 0.01;
        ops.reorderRate = 0.01;
        ops.dropRate = 0.01;
        corpus.push_back({"ops", ops});
    }

    for (const Case &c : corpus) {
        SCOPED_TRACE(c.name);
        SCOPED_TRACE(c.cfg.seed);
        std::istringstream file(bin);
        FaultyStreamBuf buf(file, c.cfg);
        std::istream faulted(&buf);
        trace::SourceErrorPolicy policy;
        policy.maxRecordErrors = 50;
        trace::StreamingBinarySource inner(
            c.cfg.anyByteFaults() ? faulted : file, policy);
        std::unique_ptr<FaultInjectingSource> injector;
        trace::TraceSource *src = &inner;
        if (c.cfg.anyOpFaults()) {
            injector =
                std::make_unique<FaultInjectingSource>(inner, c.cfg);
            src = injector.get();
        }

        report::FastTrackChecker checker;
        core::AsyncClockDetector det(*src, checker);
        // Hang guard: the source is finite, so the pump must stop on
        // its own well before this ceiling.
        std::uint64_t pumped = 0;
        std::uint64_t ceiling = app.trace.numOps() * 4 + 1000;
        while (det.processNext()) {
            ASSERT_LT(++pumped, ceiling) << "pump did not terminate";
        }

        if (!src->ok()) {
            // Structured decoder failure: a real code and message.
            Status st = src->status();
            EXPECT_NE(st.code(), ErrCode::Ok);
            EXPECT_FALSE(st.message().empty());
        }
        if (!det.runStatus().isOk()) {
            EXPECT_EQ(det.runStatus().code(),
                      ErrCode::BudgetExceeded);
        }
        // No phantoms regardless of outcome.
        for (const report::RaceReport &r : checker.races()) {
            EXPECT_LT(r.var, app.trace.vars().size());
            EXPECT_LT(r.prevOp, pumped);
            EXPECT_LT(r.curOp, pumped);
        }
    }
}

TEST(CorruptionCorpus, CleanStreamThroughFaultLayersIsUnchanged)
{
    // All fault machinery installed, every rate zero: the pipeline
    // must behave exactly like the unwrapped one (the clean-path
    // contract behind the <2% overhead budget).
    auto app = workload::generateApp(profile(2, 80));
    std::string bin = trace::writeBinaryTraceToString(app.trace);

    report::FastTrackChecker plain;
    {
        std::istringstream in(bin);
        trace::StreamingBinarySource src(in);
        core::AsyncClockDetector det(src, plain);
        det.runAll();
        ASSERT_TRUE(src.ok());
    }

    std::istringstream file(bin);
    FaultConfig cfg;  // nothing enabled
    FaultyStreamBuf buf(file, cfg);
    std::istream faulted(&buf);
    trace::StreamingBinarySource inner(faulted);
    FaultInjectingSource src(inner, cfg);
    report::FastTrackChecker wrapped;
    core::AsyncClockDetector det(src, wrapped);
    det.runAll();
    ASSERT_TRUE(src.ok()) << src.error();
    ASSERT_TRUE(det.runStatus().isOk());

    ASSERT_EQ(plain.races().size(), wrapped.races().size());
    for (std::size_t i = 0; i < plain.races().size(); ++i) {
        EXPECT_EQ(plain.races()[i].prevOp, wrapped.races()[i].prevOp);
        EXPECT_EQ(plain.races()[i].curOp, wrapped.races()[i].curOp);
        EXPECT_EQ(plain.races()[i].var, wrapped.races()[i].var);
    }
}

/**
 * The predictive tier's leg of the corpus invariant: feeding the
 * weakened-ordering pass from a decode-damaged stream must never
 * yield a *phantom* candidate — one whose variable, sites, or op ids
 * fall outside the trace's tables / the ops actually pumped. Damaged
 * ops are either absorbed (in-range ids, wrong but harmless) or
 * counted by ShbEngine::malformedDropped(), never applied.
 */
TEST(CorruptionCorpus, PredictSeesNoPhantomCandidates)
{
    auto app = workload::generateApp(profile(3, 100));
    std::string bin = trace::writeBinaryTraceToString(app.trace);

    struct Case
    {
        const char *name;
        FaultConfig cfg;
    };
    std::vector<Case> corpus;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultConfig flip;
        flip.seed = seed;
        flip.bitFlipRate = 2e-4;
        corpus.push_back({"flip", flip});
        FaultConfig truncate;
        truncate.seed = seed;
        truncate.truncateAfterBytes = (bin.size() * seed) / 7;
        corpus.push_back({"truncate", truncate});
        FaultConfig ops;
        ops.seed = seed;
        ops.dupRate = 0.01;
        ops.reorderRate = 0.01;
        ops.dropRate = 0.01;
        corpus.push_back({"ops", ops});
    }

    for (const Case &c : corpus) {
        SCOPED_TRACE(c.name);
        SCOPED_TRACE(c.cfg.seed);
        std::istringstream file(bin);
        FaultyStreamBuf buf(file, c.cfg);
        std::istream faulted(&buf);
        trace::SourceErrorPolicy policy;
        policy.maxRecordErrors = 50;
        trace::StreamingBinarySource inner(
            c.cfg.anyByteFaults() ? faulted : file, policy);
        std::unique_ptr<FaultInjectingSource> injector;
        trace::TraceSource *src = &inner;
        if (c.cfg.anyOpFaults()) {
            injector =
                std::make_unique<FaultInjectingSource>(inner, c.cfg);
            src = injector.get();
        }

        // The engine binds the clean entity tables; whatever survives
        // decoding is stepped through it, like the analyzer would
        // after a damaged streaming run.
        predict::ShbEngine eng(app.trace);
        predict::CandidateWindow window;
        Operation op;
        trace::OpId pumped = 0;
        std::uint64_t ceiling = app.trace.numOps() * 4 + 1000;
        while (src->next(op)) {
            eng.step(op, pumped++, window);
            ASSERT_LT(pumped, ceiling) << "pump did not terminate";
        }
        if (!src->ok()) {
            Status st = src->status();
            EXPECT_NE(st.code(), ErrCode::Ok);
        }

        for (const report::RaceReport &r : window.races()) {
            EXPECT_LT(r.var, app.trace.vars().size());
            EXPECT_LT(r.prevSite, app.trace.sites().size());
            EXPECT_LT(r.curSite, app.trace.sites().size());
            EXPECT_LT(r.prevOp, pumped);
            EXPECT_LT(r.curOp, pumped);
        }
    }

    // Clean stream through the same plumbing: candidate list must be
    // identical to a direct in-memory run (no drift from the layers).
    predict::CandidateWindow direct;
    predict::ShbEngine(app.trace).run(direct);

    std::istringstream file(bin);
    trace::StreamingBinarySource src(file);
    predict::ShbEngine eng(app.trace);
    predict::CandidateWindow streamed;
    Operation op;
    trace::OpId id = 0;
    while (src.next(op))
        eng.step(op, id++, streamed);
    ASSERT_TRUE(src.ok()) << src.error();
    EXPECT_EQ(eng.malformedDropped(), 0u);
    ASSERT_EQ(direct.races().size(), streamed.races().size());
    for (std::size_t i = 0; i < direct.races().size(); ++i) {
        EXPECT_EQ(direct.races()[i].prevOp, streamed.races()[i].prevOp);
        EXPECT_EQ(direct.races()[i].curOp, streamed.races()[i].curOp);
        EXPECT_EQ(direct.races()[i].var, streamed.races()[i].var);
    }
}

// ----- shard level ----------------------------------------------------

TEST(ShardFaults, PoisonedWorkerFailsRunWithDiagnostics)
{
    auto app = workload::generateApp(profile(3, 120));
    report::ShardedConfig scfg;
    scfg.shards = 2;
    scfg.batchOps = 4;  // flush often so the poison triggers early
    scfg.watchdogMs = 5000;
    scfg.faults.poisonShard = 0;
    report::ShardedChecker checker(scfg);
    core::AsyncClockDetector det(app.trace, checker);
    det.runAll();
    checker.drain();
    EXPECT_TRUE(checker.failed());
    EXPECT_NE(checker.failureMessage().find("poison"),
              std::string::npos)
        << checker.failureMessage();
}

TEST(ShardFaults, StalledWorkerTripsWatchdogInsteadOfHanging)
{
    auto app = workload::generateApp(profile(4, 120));
    report::ShardedConfig scfg;
    scfg.shards = 2;
    scfg.batchOps = 4;
    scfg.pushTimeoutMs = 10;
    scfg.watchdogMs = 200;
    scfg.faults.stallShard = 0;
    scfg.faults.stallMs = 60000;  // would hang for minutes unwatched
    report::ShardedChecker checker(scfg);
    core::AsyncClockDetector det(app.trace, checker);
    det.runAll();
    checker.drain();
    EXPECT_TRUE(checker.failed());
    EXPECT_NE(checker.failureMessage().find("watchdog"),
              std::string::npos)
        << checker.failureMessage();
}

TEST(ShardFaults, FailedRunDrainsWellUnderWatchdog)
{
    // Shard 0's worker stalls on its first batch and its one-slot
    // queue fills, so the producer's watchdog fails the run with a
    // batch still queued. The failed run's workers exit without
    // popping it; drain() must return once they are done instead of
    // waiting out the watchdog for a queue nobody will empty.
    auto app = workload::generateApp(profile(4, 120));
    report::ShardedConfig scfg;
    scfg.shards = 2;
    scfg.batchOps = 1;
    scfg.queueCapacity = 1;
    scfg.pushTimeoutMs = 10;
    scfg.watchdogMs = 1000;
    scfg.faults.stallShard = 0;
    scfg.faults.stallMs = 60000;
    report::ShardedChecker checker(scfg);
    core::AsyncClockDetector det(app.trace, checker);
    det.runAll();
    ASSERT_TRUE(checker.failed());
    const auto start = std::chrono::steady_clock::now();
    checker.drain();
    const auto drainMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(drainMs, 500) << "drain waited for batches a failed "
                                "run never pops";
    EXPECT_NE(checker.failureMessage().find("accepted no batch"),
              std::string::npos)
        << checker.failureMessage();
}

TEST(ShardFaults, CleanShardedRunDoesNotTripWatchdog)
{
    auto app = workload::generateApp(profile(5, 120));
    report::ShardedConfig scfg;
    scfg.shards = 4;
    scfg.watchdogMs = 30000;
    report::ShardedChecker checker(scfg);
    core::AsyncClockDetector det(app.trace, checker);
    det.runAll();
    checker.drain();
    EXPECT_FALSE(checker.failed());
    EXPECT_TRUE(checker.failureMessage().empty());
}

} // namespace
} // namespace asyncclock

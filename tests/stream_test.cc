/**
 * @file
 * Streaming-pipeline tests: every TraceSource (materialized, streaming
 * text, streaming binary) feeds both detectors to identical race
 * reports; the binary format round-trips randomized workload traces
 * byte-exactly at the Trace level; truncated or corrupted binary
 * streams are rejected, not misparsed; trace files of either format
 * open through one opener and load through one loader; and the
 * runtime's direct-to-sink mode reproduces the materialized trace.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hh"
#include "graph/eventracer.hh"
#include "report/fasttrack.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

using trace::Operation;
using trace::Trace;

using RaceKey = std::tuple<trace::OpId, trace::OpId, trace::VarId>;

std::set<RaceKey>
keysOf(const std::vector<report::RaceReport> &races)
{
    std::set<RaceKey> out;
    for (const auto &r : races)
        out.insert({r.prevOp, r.curOp, r.var});
    return out;
}

std::set<RaceKey>
runAsyncClock(trace::TraceSource &src)
{
    report::FastTrackChecker checker;
    core::AsyncClockDetector det(src, checker);
    det.runAll();
    EXPECT_TRUE(src.ok()) << src.error();
    return keysOf(checker.races());
}

std::set<RaceKey>
runEventRacer(trace::TraceSource &src)
{
    report::FastTrackChecker checker;
    graph::EventRacerDetector det(src, checker);
    det.runAll();
    EXPECT_TRUE(src.ok()) << src.error();
    return keysOf(checker.races());
}

workload::AppProfile
profile(std::uint64_t seed, unsigned events)
{
    workload::AppProfile p;
    p.seed = seed;
    p.looperEvents = events;
    return p;
}

/** Entity tables equal at the level both formats preserve. */
void
expectSameEntities(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.threads().size(), b.threads().size());
    for (std::size_t i = 0; i < a.threads().size(); ++i) {
        EXPECT_EQ(a.threads()[i].kind, b.threads()[i].kind);
        EXPECT_EQ(a.threads()[i].queue, b.threads()[i].queue);
        EXPECT_EQ(a.threads()[i].name, b.threads()[i].name);
    }
    ASSERT_EQ(a.queues().size(), b.queues().size());
    for (std::size_t i = 0; i < a.queues().size(); ++i) {
        EXPECT_EQ(a.queues()[i].kind, b.queues()[i].kind);
        EXPECT_EQ(a.queues()[i].looper, b.queues()[i].looper);
        EXPECT_EQ(a.queues()[i].name, b.queues()[i].name);
    }
    EXPECT_EQ(a.events().size(), b.events().size());
    ASSERT_EQ(a.vars().size(), b.vars().size());
    for (std::size_t i = 0; i < a.vars().size(); ++i) {
        EXPECT_EQ(a.vars()[i].name, b.vars()[i].name);
        EXPECT_EQ(a.vars()[i].seedLabel, b.vars()[i].seedLabel);
    }
    ASSERT_EQ(a.handles().size(), b.handles().size());
    ASSERT_EQ(a.sites().size(), b.sites().size());
    for (std::size_t i = 0; i < a.sites().size(); ++i) {
        EXPECT_EQ(a.sites()[i].name, b.sites()[i].name);
        EXPECT_EQ(a.sites()[i].frame, b.sites()[i].frame);
        EXPECT_EQ(a.sites()[i].commGroup, b.sites()[i].commGroup);
    }
}

void
expectSameOps(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.numOps(), b.numOps());
    for (trace::OpId i = 0; i < a.numOps(); ++i) {
        const Operation &x = a.op(i);
        const Operation &y = b.op(i);
        EXPECT_EQ(x.kind, y.kind) << "op " << i;
        EXPECT_EQ(x.task.raw(), y.task.raw()) << "op " << i;
        EXPECT_EQ(x.target, y.target) << "op " << i;
        EXPECT_EQ(x.event, y.event) << "op " << i;
        EXPECT_EQ(x.site, y.site) << "op " << i;
        EXPECT_EQ(x.vtime, y.vtime) << "op " << i;
        EXPECT_EQ(x.attrs.kind, y.attrs.kind) << "op " << i;
        EXPECT_EQ(x.attrs.async, y.attrs.async) << "op " << i;
        EXPECT_EQ(x.attrs.time, y.attrs.time) << "op " << i;
    }
}

// ----- source equivalence ---------------------------------------------

class SourceEquivalence
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(SourceEquivalence, AllSourcesAllDetectorsAgree)
{
    auto [seed, events] = GetParam();
    auto app = workload::generateApp(profile(seed, events));
    const Trace &tr = app.trace;

    std::string text = trace::writeTraceToString(tr);
    std::string bin = trace::writeBinaryTraceToString(tr);

    trace::MaterializedSource mat(tr);
    std::set<RaceKey> acExpected = runAsyncClock(mat);
    mat.rewind();
    std::set<RaceKey> erExpected = runEventRacer(mat);
    EXPECT_FALSE(acExpected.empty())
        << "workload seeded races should be detected";

    {
        std::istringstream in(text);
        trace::StreamingTextSource src(in);
        ASSERT_TRUE(src.ok()) << src.error();
        EXPECT_EQ(runAsyncClock(src), acExpected);
    }
    {
        std::istringstream in(text);
        trace::StreamingTextSource src(in);
        EXPECT_EQ(runEventRacer(src), erExpected);
    }
    {
        std::istringstream in(bin);
        trace::StreamingBinarySource src(in);
        ASSERT_TRUE(src.ok()) << src.error();
        EXPECT_EQ(runAsyncClock(src), acExpected);
    }
    {
        std::istringstream in(bin);
        trace::StreamingBinarySource src(in);
        EXPECT_EQ(runEventRacer(src), erExpected);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SourceEquivalence,
    ::testing::Values(std::make_pair(11u, 80u),
                      std::make_pair(2024u, 150u),
                      std::make_pair(777u, 220u)));

// ----- binary round-trip property -------------------------------------

TEST(BinaryFormat, RoundTripsRandomizedWorkloads)
{
    for (std::uint64_t seed : {1u, 99u, 31337u, 555u}) {
        auto app = workload::generateApp(
            profile(seed, 60 + unsigned(seed % 100)));
        std::string bin = trace::writeBinaryTraceToString(app.trace);
        Trace back;
        std::string error;
        ASSERT_TRUE(trace::readBinaryTraceFromString(bin, back, error))
            << error;
        expectSameEntities(app.trace, back);
        expectSameOps(app.trace, back);
        EXPECT_EQ(back.validate(true), "");
        // Re-encoding the decoded trace is byte-identical.
        EXPECT_EQ(trace::writeBinaryTraceToString(back), bin);
    }
}

TEST(BinaryFormat, RoundTripsThroughTextAndBack)
{
    auto app = workload::generateApp(profile(4321, 120));
    // text -> Trace -> binary -> Trace: same ops either way.
    Trace viaText;
    std::string error;
    ASSERT_TRUE(trace::readTraceFromString(
        trace::writeTraceToString(app.trace), viaText, error))
        << error;
    Trace viaBin;
    ASSERT_TRUE(trace::readBinaryTraceFromString(
        trace::writeBinaryTraceToString(viaText), viaBin, error))
        << error;
    expectSameEntities(app.trace, viaBin);
    expectSameOps(app.trace, viaBin);
}

TEST(BinaryFormat, CompressesWellBelowMemoryFootprint)
{
    auto app = workload::generateApp(profile(8, 200));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    EXPECT_LT(bin.size(),
              app.trace.numOps() * sizeof(Operation) / 2);
}

// ----- rejection of damaged streams -----------------------------------

TEST(BinaryFormat, RejectsTruncation)
{
    auto app = workload::generateApp(profile(5, 60));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    // Chop anywhere: header-only, mid-record, missing end marker.
    for (std::size_t cut :
         {std::size_t(3), std::size_t(5), bin.size() / 3,
          bin.size() / 2, bin.size() - 1}) {
        Trace tr;
        // Poison the output to verify the reset-on-failure contract.
        tr.declVar("poison");
        std::string error;
        EXPECT_FALSE(trace::readBinaryTraceFromString(
            bin.substr(0, cut), tr, error))
            << "cut at " << cut;
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(tr.vars().size(), 0u) << "trace not reset";
        EXPECT_EQ(tr.numOps(), 0u);
    }
}

TEST(BinaryFormat, RejectsBadMagicAndVersion)
{
    auto app = workload::generateApp(profile(5, 30));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    Trace tr;
    std::string error;

    std::string badMagic = bin;
    badMagic[0] = 'X';
    EXPECT_FALSE(
        trace::readBinaryTraceFromString(badMagic, tr, error));

    std::string badVersion = bin;
    badVersion[4] = char(0x7E);
    EXPECT_FALSE(
        trace::readBinaryTraceFromString(badVersion, tr, error));
}

TEST(BinaryFormat, RejectsCorruptedBytes)
{
    auto app = workload::generateApp(profile(7, 80));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    // Flip bytes across the stream. Every flip must either still
    // decode (the flip may hit a name byte or produce another valid
    // stream) or fail cleanly with an error — never crash. Flips that
    // corrupt an id past its declared table must be rejected.
    unsigned rejected = 0;
    for (std::size_t pos = 5; pos < bin.size(); pos += 11) {
        std::string bad = bin;
        bad[pos] = char(bad[pos] ^ 0xA5);
        Trace tr;
        std::string error;
        if (!trace::readBinaryTraceFromString(bad, tr, error)) {
            EXPECT_FALSE(error.empty());
            EXPECT_EQ(tr.numOps(), 0u) << "trace not reset";
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
}

TEST(BinaryFormat, StreamingSourceReportsTruncation)
{
    auto app = workload::generateApp(profile(5, 60));
    std::string bin = trace::writeBinaryTraceToString(app.trace);
    std::istringstream in(bin.substr(0, bin.size() / 2));
    trace::StreamingBinarySource src(in);
    ASSERT_TRUE(src.ok());
    Operation op;
    while (src.next(op)) {
    }
    EXPECT_FALSE(src.ok());
    EXPECT_FALSE(src.error().empty());
}

// ----- text error contract --------------------------------------------

TEST(TextFormat, ErrorsCarryLineAndTokenAndResetTrace)
{
    struct Case
    {
        const char *text;
        const char *line;   ///< expected "line N" fragment
        const char *token;  ///< expected offending token
    };
    const Case cases[] = {
        {"not-a-header\n", "line 1", "not-a-header"},
        {"asyncclock-trace v1\nbogus x\n", "line 2", "bogus"},
        {"asyncclock-trace v1\nthread zz name -\n", "line 2", "zz"},
        {"asyncclock-trace v1\nop zz T0 5 -\n", "line 2", "zz"},
        {"asyncclock-trace v1\nthread looper main q9\n", "line 2",
         "q9"},
    };
    for (const Case &c : cases) {
        Trace tr;
        tr.declVar("poison");
        std::string error;
        EXPECT_FALSE(trace::readTraceFromString(c.text, tr, error))
            << c.text;
        EXPECT_NE(error.find(c.line), std::string::npos) << error;
        EXPECT_NE(error.find(c.token), std::string::npos) << error;
        EXPECT_EQ(tr.vars().size(), 0u)
            << "trace must be reset on failure";
    }
}

TEST(TextFormat, OutOfRangeLooperBindingIsDropped)
{
    // The streaming source tolerates a queue line naming a looper
    // thread that does not exist; the materializing reader (the
    // replay reload) must too, instead of writing out of bounds.
    Trace tr;
    std::string error;
    ASSERT_TRUE(trace::readTraceFromString(
        "asyncclock-trace v1\nqueue 0 looper 7 main\n", tr, error))
        << error;
    ASSERT_EQ(tr.queues().size(), 1u);
    EXPECT_EQ(tr.queues()[0].looper, trace::kInvalidId);
}

// ----- direct-to-sink generation --------------------------------------

TEST(SinkMode, GenerateAppToSinkMatchesMaterialized)
{
    workload::AppProfile p = profile(321, 100);
    auto app = workload::generateApp(p);

    Trace streamed;
    std::uint64_t endMs = 0;
    workload::SeededTruth truth =
        workload::generateAppToSink(p, streamed, &endMs);

    expectSameEntities(app.trace, streamed);
    expectSameOps(app.trace, streamed);
    EXPECT_EQ(endMs, app.endTimeMs);
    EXPECT_EQ(truth.harmful, p.seededHarmful);
}

TEST(SinkMode, BinaryRecordingDecodesToMaterializedTrace)
{
    // Record straight to the binary writer. The live stream interleaves
    // mid-run entity declarations with ops (the batch encoder hoists
    // them all up front), so the bytes differ — but decoding must yield
    // the same trace, and re-encoding that trace must be byte-identical
    // to encoding the materialized run.
    workload::AppProfile p = profile(654, 80);
    auto app = workload::generateApp(p);

    std::ostringstream recorded;
    {
        trace::BinaryTraceWriter writer(recorded);
        workload::generateAppToSink(p, writer);
        writer.finish();
    }
    Trace decoded;
    std::string error;
    ASSERT_TRUE(trace::readBinaryTraceFromString(recorded.str(),
                                                 decoded, error))
        << error;
    expectSameEntities(app.trace, decoded);
    expectSameOps(app.trace, decoded);
    EXPECT_EQ(trace::writeBinaryTraceToString(decoded),
              trace::writeBinaryTraceToString(app.trace));
}

// ----- trace files: one opener, one loader ----------------------------

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary);
    out << data;
}

/** Drain @p src; returns the number of ops pulled. */
std::uint64_t
drain(trace::TraceSource &src)
{
    std::uint64_t n = 0;
    Operation op;
    while (src.next(op))
        ++n;
    return n;
}

TEST(TraceFiles, OpenerAndLoaderTellFormatsApartByMagic)
{
    auto app = workload::generateApp(profile(31, 60));
    const std::string text = tempPath("files.trace");
    const std::string bin = tempPath("files.actb");
    trace::saveTraceFile(app.trace, text);
    trace::saveBinaryTraceFile(app.trace, bin);

    for (const std::string &path : {text, bin}) {
        SCOPED_TRACE(path);
        auto opened = trace::tryOpenTraceSource(path);
        ASSERT_TRUE(opened) << opened.status().toString();
        EXPECT_EQ(opened.value().binary, path == bin);
        EXPECT_EQ(opened.value().faultBuf, nullptr);
        EXPECT_EQ(opened.value().opFaults, nullptr);
        trace::TraceSource &src = opened.value().source();
        EXPECT_EQ(drain(src), app.trace.numOps());
        EXPECT_TRUE(src.ok()) << src.error();
        EXPECT_EQ(src.meta().vars().size(), app.trace.vars().size());

        auto loaded = trace::tryLoadTrace(path);
        ASSERT_TRUE(loaded) << loaded.status().toString();
        expectSameEntities(app.trace, loaded.value());
        expectSameOps(app.trace, loaded.value());
    }
}

TEST(TraceFiles, FailuresAreStatusesNamingThePath)
{
    const std::string missing = tempPath("no-such.trace");
    for (Status st : {trace::tryOpenTraceSource(missing).status(),
                      trace::tryLoadTrace(missing).status()}) {
        EXPECT_EQ(st.code(), ErrCode::IoError);
        EXPECT_NE(st.message().find(missing), std::string::npos);
    }

    const std::string badHeader = tempPath("bad-header.trace");
    writeFile(badHeader, "not-a-trace\n");
    Status st = trace::tryOpenTraceSource(badHeader).status();
    EXPECT_EQ(st.code(), ErrCode::ParseError);
    EXPECT_NE(st.message().find("parsing " + badHeader + ": line 1"),
              std::string::npos)
        << st.toString();

    // A corrupt op line: the opener's budget can skip it, the loader
    // (strict) names the file and the line.
    auto app = workload::generateApp(profile(32, 40));
    std::string data = trace::writeTraceToString(app.trace);
    std::size_t firstOp = data.find("\nop ");
    ASSERT_NE(firstOp, std::string::npos);
    data.insert(firstOp + 1, "op bogus T0 1 @5\n");
    const std::string badOp = tempPath("bad-op.trace");
    writeFile(badOp, data);

    auto loaded = trace::tryLoadTrace(badOp);
    ASSERT_FALSE(loaded);
    EXPECT_EQ(loaded.status().code(), ErrCode::ParseError);
    EXPECT_NE(loaded.status().message().find("parsing " + badOp +
                                             ": line "),
              std::string::npos)
        << loaded.status().toString();
    EXPECT_NE(loaded.status().message().find("bogus"),
              std::string::npos);

    trace::SourceErrorPolicy budget;
    budget.maxRecordErrors = 1;
    auto opened = trace::tryOpenTraceSource(badOp, budget);
    ASSERT_TRUE(opened) << opened.status().toString();
    trace::TraceSource &src = opened.value().source();
    EXPECT_EQ(drain(src), app.trace.numOps());
    EXPECT_TRUE(src.ok()) << src.error();
    EXPECT_EQ(src.recordsSkipped(), 1u);
}

TEST(TraceFiles, OpenerLayersByteAndOpFaults)
{
    auto app = workload::generateApp(profile(33, 60));
    const std::string bin = tempPath("faults.actb");
    trace::saveBinaryTraceFile(app.trace, bin);

    trace::FaultConfig dup;
    dup.dupRate = 0.5;
    auto duped = trace::tryOpenTraceSource(bin, {}, dup);
    ASSERT_TRUE(duped) << duped.status().toString();
    ASSERT_NE(duped.value().opFaults, nullptr);
    EXPECT_EQ(duped.value().faultBuf, nullptr);
    EXPECT_EQ(&duped.value().source(),
              static_cast<trace::TraceSource *>(
                  duped.value().opFaults.get()));
    EXPECT_GT(drain(duped.value().source()), app.trace.numOps());
    EXPECT_GT(duped.value().opFaults->opsDuplicated(), 0u);

    // Truncation is a byte fault: the format is still sniffed from
    // the intact file, and the decoder reports the cut.
    trace::FaultConfig cut;
    cut.truncateAfterBytes = 200;
    auto truncated = trace::tryOpenTraceSource(bin, {}, cut);
    ASSERT_TRUE(truncated) << truncated.status().toString();
    ASSERT_NE(truncated.value().faultBuf, nullptr);
    EXPECT_TRUE(truncated.value().binary);
    trace::TraceSource &src = truncated.value().source();
    EXPECT_LT(drain(src), app.trace.numOps());
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.status().code(), ErrCode::Truncated)
        << src.status().toString();
}

// ----- container-bytes contract ---------------------------------------

TEST(Sources, StreamingContainerBytesAreO1InOps)
{
    auto small = workload::generateApp(profile(9, 40));
    auto large = workload::generateApp(profile(9, 400));
    ASSERT_GT(large.trace.numOps(), 4 * small.trace.numOps());

    auto streamingPeak = [](const Trace &tr) {
        std::istringstream in(trace::writeBinaryTraceToString(tr));
        trace::StreamingBinarySource src(in);
        std::uint64_t peak = 0;
        Operation op;
        while (src.next(op))
            peak = std::max(peak, src.containerBytes());
        return peak;
    };
    std::uint64_t smallPeak = streamingPeak(small.trace);
    std::uint64_t largePeak = streamingPeak(large.trace);
    EXPECT_EQ(smallPeak, largePeak)
        << "streaming container state must not scale with ops";

    trace::MaterializedSource matSmall(small.trace);
    trace::MaterializedSource matLarge(large.trace);
    EXPECT_GT(matLarge.containerBytes(),
              3 * matSmall.containerBytes());
    EXPECT_LT(largePeak, matLarge.containerBytes() / 100);
}

} // namespace
} // namespace asyncclock

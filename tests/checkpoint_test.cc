/**
 * @file
 * Checkpoint/resume correctness: FastTrack state round-trips exactly;
 * a run resumed from any checkpoint produces the identical race list
 * an uninterrupted run produces (the logical-snapshot contract:
 * deterministic detector replay + exact checker restore + the
 * ResumeFilter discarding already-checked accesses); and damaged
 * checkpoint files yield structured errors, never partial restores.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hh"
#include "report/checkpoint.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

namespace asyncclock {
namespace {

using report::FastTrackChecker;
using report::RaceReport;
using report::ResumeFilter;
using trace::Trace;

workload::AppProfile
profile(std::uint64_t seed, unsigned events)
{
    workload::AppProfile p;
    p.seed = seed;
    p.looperEvents = events;
    return p;
}

void
expectSameRaces(const std::vector<RaceReport> &a,
                const std::vector<RaceReport> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].var, b[i].var) << "race " << i;
        EXPECT_EQ(a[i].prevOp, b[i].prevOp) << "race " << i;
        EXPECT_EQ(a[i].curOp, b[i].curOp) << "race " << i;
        EXPECT_EQ(a[i].prevSite, b[i].prevSite) << "race " << i;
        EXPECT_EQ(a[i].curSite, b[i].curSite) << "race " << i;
        EXPECT_EQ(a[i].prevWrite, b[i].prevWrite) << "race " << i;
        EXPECT_EQ(a[i].curWrite, b[i].curWrite) << "race " << i;
    }
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

// ----- checker state round-trip ---------------------------------------

TEST(FastTrackState, RoundTripsExactly)
{
    auto app = workload::generateApp(profile(7, 150));
    FastTrackChecker original;
    core::AsyncClockDetector det(app.trace, original);
    det.runAll();

    std::stringstream blob;
    ASSERT_TRUE(original.saveState(blob));
    FastTrackChecker restored;
    ASSERT_TRUE(restored.loadState(blob));

    expectSameRaces(original.races(), restored.races());
    EXPECT_EQ(original.racesFound(), restored.racesFound());
    // Exactness: re-serializing the restored checker reproduces the
    // original blob byte for byte. (byteSize() is not compared — it
    // reflects container capacity, and a tight rebuild is smaller.)
    std::stringstream reblob;
    ASSERT_TRUE(restored.saveState(reblob));
    EXPECT_EQ(blob.str(), reblob.str());
}

TEST(FastTrackState, LoadRejectsTruncationWithoutClobbering)
{
    auto app = workload::generateApp(profile(8, 100));
    FastTrackChecker original;
    core::AsyncClockDetector det(app.trace, original);
    det.runAll();
    ASSERT_GT(original.racesFound(), 0u);

    std::stringstream blob;
    ASSERT_TRUE(original.saveState(blob));
    std::string bytes = blob.str();

    // Pre-load the victim with real state, then feed it truncated
    // blobs: every cut must fail structurally and leave the existing
    // state untouched (commit-on-success contract).
    FastTrackChecker victim;
    {
        std::stringstream again(bytes);
        ASSERT_TRUE(victim.loadState(again));
    }
    std::uint64_t racesBefore = victim.racesFound();
    for (std::size_t cut :
         {std::size_t(0), std::size_t(7), bytes.size() / 2,
          bytes.size() - 1}) {
        std::stringstream cutBlob(bytes.substr(0, cut));
        Status st = victim.loadState(cutBlob);
        EXPECT_FALSE(st.isOk()) << "cut at " << cut;
        EXPECT_EQ(victim.racesFound(), racesBefore)
            << "state clobbered by failed load (cut " << cut << ")";
    }
}

// ----- checkpoint files -----------------------------------------------

TEST(CheckpointFile, SaveLoadRoundTripsMetaAndChecker)
{
    auto app = workload::generateApp(profile(9, 120));
    FastTrackChecker checker;
    core::AsyncClockDetector det(app.trace, checker);
    det.runAll();

    report::CheckpointMeta meta;
    meta.opsProcessed = 4242;
    meta.accessesChecked = 999;
    meta.traceBytes = 123456;
    meta.traceHash = 0xdeadbeefcafef00dull;
    std::string path = tempPath("ckpt_roundtrip.accp");
    ASSERT_TRUE(report::saveCheckpoint(path, meta, checker));

    FastTrackChecker restored;
    auto loaded = report::loadCheckpoint(path, restored);
    ASSERT_TRUE(loaded) << loaded.status().toString();
    EXPECT_EQ(loaded.value().opsProcessed, meta.opsProcessed);
    EXPECT_EQ(loaded.value().accessesChecked, meta.accessesChecked);
    EXPECT_EQ(loaded.value().traceBytes, meta.traceBytes);
    EXPECT_EQ(loaded.value().traceHash, meta.traceHash);
    expectSameRaces(checker.races(), restored.races());
    std::remove(path.c_str());
}

TEST(CheckpointFile, DamagedFilesYieldStructuredErrors)
{
    FastTrackChecker checker;
    report::CheckpointMeta meta;
    std::string path = tempPath("ckpt_damage.accp");
    ASSERT_TRUE(report::saveCheckpoint(path, meta, checker));
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    auto writeBytes = [&](const std::string &data) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
    };

    FastTrackChecker sink;

    std::string badMagic = bytes;
    badMagic[0] = 'X';
    writeBytes(badMagic);
    auto r1 = report::loadCheckpoint(path, sink);
    ASSERT_FALSE(r1);
    EXPECT_EQ(r1.status().code(), ErrCode::ParseError);

    std::string badVersion = bytes;
    badVersion[4] = char(0x7f);
    writeBytes(badVersion);
    auto r2 = report::loadCheckpoint(path, sink);
    ASSERT_FALSE(r2);
    EXPECT_EQ(r2.status().code(), ErrCode::Unsupported);

    writeBytes(bytes.substr(0, 10));
    auto r3 = report::loadCheckpoint(path, sink);
    ASSERT_FALSE(r3);
    EXPECT_EQ(r3.status().code(), ErrCode::Truncated);

    auto r4 = report::loadCheckpoint(tempPath("ckpt_missing.accp"),
                                     sink);
    ASSERT_FALSE(r4);
    EXPECT_EQ(r4.status().code(), ErrCode::IoError);
    std::remove(path.c_str());
}

TEST(CheckpointFile, TraceIdentityIsContentSensitive)
{
    std::string pa = tempPath("ident_a.trace");
    std::string pb = tempPath("ident_b.trace");
    {
        std::ofstream a(pa, std::ios::binary);
        a << "identical prefix, then A";
        std::ofstream b(pb, std::ios::binary);
        b << "identical prefix, then B";
    }
    auto ia = report::traceIdentity(pa);
    auto ib = report::traceIdentity(pb);
    auto ia2 = report::traceIdentity(pa);
    ASSERT_TRUE(ia);
    ASSERT_TRUE(ib);
    ASSERT_TRUE(ia2);
    EXPECT_EQ(ia.value().traceBytes, ib.value().traceBytes);
    EXPECT_NE(ia.value().traceHash, ib.value().traceHash);
    EXPECT_EQ(ia.value().traceHash, ia2.value().traceHash);
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

// ----- end-to-end resume ----------------------------------------------

/** Run the detector over @p tr uninterrupted, returning the races. */
std::vector<RaceReport>
uninterruptedRaces(const Trace &tr, core::DetectorConfig cfg,
                   std::uint64_t *accessesOut = nullptr)
{
    FastTrackChecker ft;
    ResumeFilter filter(ft);
    core::AsyncClockDetector det(tr, filter, cfg);
    det.runAll();
    if (accessesOut)
        *accessesOut = filter.accessesSeen();
    return ft.races();
}

/**
 * Simulate kill-at-op-K + resume: run K ops, checkpoint, throw the
 * whole pipeline away, then rebuild from the checkpoint and run the
 * trace from op 0. Returns the resumed run's races.
 */
std::vector<RaceReport>
resumedRaces(const Trace &tr, core::DetectorConfig cfg,
             std::uint64_t killAfterOps, const std::string &path)
{
    {
        FastTrackChecker ft;
        ResumeFilter filter(ft);
        core::AsyncClockDetector det(tr, filter, cfg);
        std::uint64_t n = 0;
        while (n < killAfterOps && det.processNext())
            ++n;
        report::CheckpointMeta meta;
        meta.opsProcessed = n;
        meta.accessesChecked = filter.accessesSeen();
        EXPECT_TRUE(report::saveCheckpoint(path, meta, ft));
        // Everything from the first attempt dies here — only the
        // checkpoint file survives the "kill".
    }
    FastTrackChecker ft;
    auto loaded = report::loadCheckpoint(path, ft);
    EXPECT_TRUE(loaded) << loaded.status().toString();
    ResumeFilter filter(ft, loaded.value().accessesChecked);
    core::AsyncClockDetector det(tr, filter, cfg);
    det.runAll();
    return ft.races();
}

TEST(Resume, RacesIdenticalToUninterruptedRunAtAnyKillPoint)
{
    auto app = workload::generateApp(profile(10, 150));
    core::DetectorConfig cfg;
    std::vector<RaceReport> expected =
        uninterruptedRaces(app.trace, cfg);
    ASSERT_GT(expected.size(), 0u);

    std::string path = tempPath("ckpt_resume.accp");
    std::uint64_t total = app.trace.numOps();
    for (std::uint64_t kill :
         {total / 10, total / 3, total / 2, total - 1}) {
        SCOPED_TRACE(kill);
        expectSameRaces(expected,
                        resumedRaces(app.trace, cfg, kill, path));
    }
    std::remove(path.c_str());
}

TEST(Resume, IdenticalUnderMemoryPressureLadder)
{
    // The ladder mutates detector state (window shrinks,
    // invalidations), so resume is only sound if its decisions replay
    // identically — which they must, since the budget measure excludes
    // checker bytes.
    auto app = workload::generateApp(profile(12, 150));
    core::DetectorConfig cfg;
    cfg.memBudgetBytes = 64 * 1024;
    std::vector<RaceReport> expected =
        uninterruptedRaces(app.trace, cfg);

    std::string path = tempPath("ckpt_ladder.accp");
    std::uint64_t total = app.trace.numOps();
    expectSameRaces(expected,
                    resumedRaces(app.trace, cfg, total / 2, path));
    std::remove(path.c_str());
}

/** @p races as trace_analyzer renders its text report. */
std::string
reportText(const Trace &tr, const std::vector<RaceReport> &races)
{
    report::RaceAnalyzer analyzer(tr);
    return report::renderReportText(analyzer, analyzer.analyze(races));
}

TEST(Resume, CrossBackendCheckpointsInterchange)
{
    // Builds with several clock backends wrote theirs into the v4
    // header byte after the version (0 sparse, 1 cow, 2 tree, 3
    // hybrid). The byte is retired: writers put 0 there, and loaders
    // accept 1-3 so checkpoints from those builds resume to the same
    // report. No build ever wrote 4, so 4 is corruption.
    auto app = workload::generateApp(profile(11, 150));
    core::DetectorConfig cfg;
    std::vector<RaceReport> expected = uninterruptedRaces(app.trace, cfg);
    ASSERT_GT(expected.size(), 0u);
    const std::string expectedText = reportText(app.trace, expected);

    std::string path = tempPath("ckpt_backend.accp");
    {
        FastTrackChecker ft;
        ResumeFilter filter(ft);
        core::AsyncClockDetector det(app.trace, filter, cfg);
        std::uint64_t n = 0;
        while (n < app.trace.numOps() / 2 && det.processNext())
            ++n;
        report::CheckpointMeta meta;
        meta.opsProcessed = n;
        meta.accessesChecked = filter.accessesSeen();
        ASSERT_TRUE(report::saveCheckpoint(path, meta, ft));
    }
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 6u);
    ASSERT_EQ(bytes[4], char(report::kCheckpointVersion));
    EXPECT_EQ(bytes[5], 0) << "writers put 0 in the retired byte";
    auto writeTag = [&](char tag) {
        bytes[5] = tag;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    for (char tag : {1, 2, 3}) {
        SCOPED_TRACE(int(tag));
        writeTag(tag);
        FastTrackChecker ft;
        auto loaded = report::loadCheckpoint(path, ft);
        ASSERT_TRUE(loaded) << loaded.status().toString();
        ResumeFilter filter(ft, loaded.value().accessesChecked);
        core::AsyncClockDetector det(app.trace, filter, cfg);
        det.runAll();
        expectSameRaces(expected, ft.races());
        EXPECT_EQ(reportText(app.trace, ft.races()), expectedText);
    }

    writeTag(4);
    FastTrackChecker ft;
    auto bad = report::loadCheckpoint(path, ft);
    ASSERT_FALSE(bad);
    EXPECT_EQ(bad.status().code(), ErrCode::Corrupt);
    std::remove(path.c_str());
}

TEST(Resume, FilterSkipsExactlyTheCheckedPrefix)
{
    auto app = workload::generateApp(profile(13, 100));
    std::uint64_t totalAccesses = 0;
    core::DetectorConfig cfg;
    uninterruptedRaces(app.trace, cfg, &totalAccesses);
    ASSERT_GT(totalAccesses, 0u);

    // A filter skipping everything forwards nothing.
    FastTrackChecker ft;
    ResumeFilter all(ft, totalAccesses);
    core::AsyncClockDetector det(app.trace, all, cfg);
    det.runAll();
    EXPECT_EQ(all.accessesSeen(), totalAccesses);
    EXPECT_FALSE(all.replaying());
    EXPECT_EQ(ft.racesFound(), 0u);
}

} // namespace
} // namespace asyncclock

/**
 * @file
 * Crash-safe checkpoint/resume for analysis runs.
 *
 * A multi-hour analysis killed at 90% should not start over. Full
 * AsyncClockDetector serialization is intentionally NOT attempted —
 * its metadata is a refcounted, possibly-cyclic object graph whose
 * faithful encoding would be a second implementation of the detector.
 * Instead the checkpoint is a *logical* snapshot exploiting the
 * pipeline's split:
 *
 *  - clock inference (the detector) is a deterministic function of
 *    the op stream and config — it is cheap to REPLAY;
 *  - the checker is a deterministic state machine over the access
 *    sequence the detector emits — it is cheap to SNAPSHOT exactly
 *    (FastTrackChecker::saveState).
 *
 * So a checkpoint stores: the trace's identity, the op cursor, the
 * count K of accesses already checked, and the exact checker state.
 * Resume re-runs the detector from op 0 against a ResumeFilter that
 * discards the first K accesses (the restored checker already
 * contains their effect) and forwards the rest. The final race report
 * is byte-identical to an uninterrupted run, because both sides are
 * deterministic and the detector's memory-pressure ladder keys off
 * detector-only bytes (checker bytes excluded — see
 * DetectorConfig::memBudgetBytes).
 *
 * Crash safety: checkpoints are written to `<path>.tmp` and renamed
 * into place, so a kill mid-write leaves the previous checkpoint
 * intact. The file is versioned ("ACCP" + version) and carries the
 * trace's size and content hash; resume against a different or
 * modified trace is refused.
 */

#ifndef ASYNCCLOCK_REPORT_CHECKPOINT_HH
#define ASYNCCLOCK_REPORT_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "report/checker.hh"
#include "report/fasttrack.hh"
#include "support/status.hh"

namespace asyncclock::report {

/** Magic bytes opening a checkpoint file ("ACCP") + format version.
 * v1: original header. v2: adds a clock-backend tag byte after the
 * version, from when the clock had several representations. The tag
 * was always informational — checker state is serialized as
 * canonically sorted (chain, tick) entries — and is now retired:
 * writers put 0 there and loaders only range-check it (0-2 before v4,
 * 0-3 from v4), so files from older multi-backend builds still load.
 * v3: adds a causality-model tag byte after the backend byte. Unlike
 * the backend tag this one is semantic: resume replays the detector,
 * and a different model would replay a different access sequence, so
 * loaders (trace_analyzer) refuse a checkpoint whose model differs
 * from the run's. v1/v2 files (implicitly looper) load unchanged.
 * v4: the backend tag may also be 3. The layout is unchanged. */
extern const char kCheckpointMagic[4];
constexpr std::uint8_t kCheckpointVersion = 4;

/** Causality-model tag values (match core::ModelKind; kept as a raw
 * byte here because report/ sits below core/ in the layering). */
constexpr std::uint8_t kModelTagLooper = 0;
constexpr std::uint8_t kModelTagAsync = 1;
constexpr std::uint8_t kModelTagCount = 2;

/** Everything a checkpoint records besides the checker state. */
struct CheckpointMeta
{
    /** Ops the detector had consumed when the snapshot was taken. */
    std::uint64_t opsProcessed = 0;
    /** Accesses the checker had absorbed (the ResumeFilter skip). */
    std::uint64_t accessesChecked = 0;
    /** Identity of the trace being analyzed (size + FNV-1a hash);
     * resume refuses a mismatch. */
    std::uint64_t traceBytes = 0;
    std::uint64_t traceHash = 0;
    /** Causality model of the writing run (v3+; older files report
     * looper). Resume requires a match — see kCheckpointVersion. */
    std::uint8_t modelTag = kModelTagLooper;
};

/** Size + FNV-1a content hash of @p path (the identity stored in and
 * verified against checkpoints). */
Expected<CheckpointMeta> traceIdentity(const std::string &path);

/** Atomically write checkpoint @p meta + @p checker state to
 * @p path (via `<path>.tmp` + rename). */
Status saveCheckpoint(const std::string &path,
                      const CheckpointMeta &meta,
                      const FastTrackChecker &checker);

/** Load a checkpoint, restoring @p checker; returns its meta.
 * Verifies magic, version, and framing — a truncated or corrupt file
 * yields a structured error, never a partial restore. */
Expected<CheckpointMeta> loadCheckpoint(const std::string &path,
                                        FastTrackChecker &checker);

/**
 * AccessChecker adapter that discards the first `skip` accesses and
 * forwards the rest — the replay half of resume. Also the access
 * counter for runs that may themselves be checkpointed: wrap the real
 * checker (skip=0 for a fresh run) and read accessesSeen() when
 * snapshotting.
 */
class ResumeFilter : public AccessChecker
{
  public:
    /** @p inner must outlive this filter. */
    explicit ResumeFilter(AccessChecker &inner, std::uint64_t skip = 0)
        : inner_(inner), skip_(skip)
    {
    }

    void
    onAccess(trace::VarId var, const Access &access,
             const clock::VectorClock &vc) override
    {
        if (seen_++ < skip_)
            return;
        inner_.onAccess(var, access, vc);
    }

    const std::vector<RaceReport> &races() const override
    {
        return inner_.races();
    }
    std::uint64_t racesFound() const override
    {
        return inner_.racesFound();
    }
    std::uint64_t byteSize() const override
    {
        return inner_.byteSize();
    }

    /** Total accesses observed, skipped or forwarded — equals the
     * uninterrupted run's access count at this point. */
    std::uint64_t accessesSeen() const { return seen_; }
    /** Still discarding replayed accesses? */
    bool replaying() const { return seen_ < skip_; }

  private:
    AccessChecker &inner_;
    std::uint64_t skip_;
    std::uint64_t seen_ = 0;
};

} // namespace asyncclock::report

#endif // ASYNCCLOCK_REPORT_CHECKPOINT_HH

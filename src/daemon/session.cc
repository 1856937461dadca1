#include "daemon/session.hh"

#include <cstdio>
#include <utility>

#include <sys/stat.h>

#include "core/model.hh"
#include "support/format.hh"
#include "support/logging.hh"
#include "trace/trace_io.hh"

namespace asyncclock::daemon {

namespace {

std::uint64_t
nowMonoUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/** Write @p data to @p path via `<path>.tmp` + rename, so a kill
 * mid-write never leaves a torn file. */
Status
writeFileAtomic(const std::string &path, const std::string &data)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return Status::error(ErrCode::IoError,
                                 "cannot open " + tmp);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        out.flush();
        if (!out)
            return Status::error(ErrCode::IoError,
                                 "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return Status::error(ErrCode::IoError,
                             "cannot rename " + tmp);
    return Status::ok();
}

/** Strip newlines so a value stays one meta-file line. */
std::string
oneLine(std::string s)
{
    for (char &c : s)
        if (c == '\n' || c == '\r')
            c = ' ';
    return s;
}

} // namespace

const char *
sessionStateName(SessionState s)
{
    switch (s) {
      case SessionState::Live: return "live";
      case SessionState::Evicted: return "evicted";
      case SessionState::Quarantined: return "quarantined";
      case SessionState::Finished: return "finished";
    }
    return "?";
}

bool
validSessionId(const std::string &id)
{
    if (id.empty() || id.size() > 64 || id.front() == '.')
        return false;
    for (char c : id) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

Session::Session(std::string id, const SessionConfig &cfg)
    : id_(std::move(id)), cfg_(cfg), ingest_(cfg.queueChunks)
{
    touch();
}

Session::~Session() = default;

std::string
Session::spoolPath() const
{
    return cfg_.stateDir + "/" + id_ + ".spool";
}

std::string
Session::metaPath() const
{
    return cfg_.stateDir + "/" + id_ + ".meta";
}

std::string
Session::ckptPath() const
{
    return cfg_.stateDir + "/" + id_ + ".ckpt";
}

std::string
Session::reportPath() const
{
    return cfg_.stateDir + "/" + id_ + ".report";
}

Status
Session::create()
{
    std::lock_guard<std::mutex> lock(mu_);
    spoolOut_.open(spoolPath(),
                   std::ios::binary | std::ios::trunc);
    if (!spoolOut_)
        return Status::error(ErrCode::IoError,
                             "cannot create spool " + spoolPath());
    state_ = SessionState::Live;
    writeMetaLocked();
    logEvent(obs::EventLog::Severity::Info, "session.created", id_);
    bumpMetric("daemon.sessions_created_total");
    touch();
    return Status::ok();
}

Status
Session::recover()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!fileExists(spoolPath()))
        return Status::error(ErrCode::IoError,
                             "no spool for session " + id_);
    spooled_ = fileSize(spoolPath());

    // Parse the meta record; a missing/partial one (killed between
    // spool create and meta write) degrades to "cold, unfinished".
    std::string stateName = "evicted";
    std::ifstream meta(metaPath());
    std::string line;
    while (std::getline(meta, line)) {
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        if (key == "state")
            stateName = val;
        else if (key == "finished")
            finished_ = (val == "1");
        else if (key == "error")
            error_ = val;
    }
    finishedFlag_.store(finished_, std::memory_order_release);

    if (stateName == "quarantined") {
        state_ = SessionState::Quarantined;
        ingest_.close();
    } else if (stateName == "finished" && fileExists(reportPath())) {
        state_ = SessionState::Finished;
    } else {
        // "live" from the previous process means the engine died with
        // it; rebuild from spool (+ checkpoint, if one was written).
        state_ = SessionState::Evicted;
        error_.clear();
    }
    logEvent(obs::EventLog::Severity::Info, "session.recovered",
             strf("%s: %s, %llu byte(s) spooled", id_.c_str(),
                  sessionStateName(state_),
                  (unsigned long long)spooled_));
    touch();
    return Status::ok();
}

support::PushResult
Session::offerChunk(IngestChunk chunk)
{
    return ingest_.tryPushFor(chunk, cfg_.admissionTimeout);
}

Status
Session::finishIngest()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == SessionState::Quarantined)
        return Status::error(ErrCode::Corrupt, error_);
    finished_ = true;
    finishedFlag_.store(true, std::memory_order_release);
    if (state_ != SessionState::Finished)
        writeMetaLocked();
    touch();
    return Status::ok();
}

SessionInfo
Session::info()
{
    std::lock_guard<std::mutex> lock(mu_);
    SessionInfo out;
    out.state = state_;
    out.finished = finished_;
    out.spooledBytes = spooled_;
    out.opsProcessed = engine_ ? engine_->opsProcessed() : lastOps_;
    out.racesFound = checker_ ? checker_->racesFound() : lastRaces_;
    out.queuedChunks = ingest_.size();
    out.evictions = evictions_;
    out.resumes = resumes_;
    out.error = error_;
    out.ingestError = ingestError_;
    return out;
}

Session::ReportStatus
Session::report(std::string &out)
{
    std::lock_guard<std::mutex> lock(mu_);
    touch();
    if (state_ == SessionState::Quarantined) {
        out = error_;
        return ReportStatus::Quarantined;
    }
    if (state_ == SessionState::Finished) {
        std::ifstream in(reportPath(), std::ios::binary);
        if (in) {
            out.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
            return ReportStatus::Ready;
        }
        // Report file vanished (manual cleanup?): fall back to cold
        // and let the next work() re-analyze from the spool.
        state_ = SessionState::Evicted;
        writeMetaLocked();
        return ReportStatus::Pending;
    }
    if (!finished_)
        return ReportStatus::NotFinished;
    return ReportStatus::Pending;
}

bool
Session::work(std::uint64_t opBudget)
{
    std::unique_lock<std::mutex> lock(mu_);
    workStartUs_.store(nowMonoUs(), std::memory_order_release);
    IngestChunk chunk;
    while (ingest_.size() > 0 && ingest_.pop(chunk))
        appendChunkLocked(chunk);
    if (finished_ && spooled_ == 0 &&
        state_ != SessionState::Quarantined &&
        state_ != SessionState::Finished) {
        quarantineLocked(Status::error(
            ErrCode::Truncated, "session finished with no trace bytes"));
    }
    bool more = false;
    if (state_ == SessionState::Live ||
        state_ == SessionState::Evicted)
        more = pumpLocked(opBudget);
    workStartUs_.store(0, std::memory_order_release);
    touch();
    if (state_ == SessionState::Quarantined ||
        state_ == SessionState::Finished)
        return false;
    return more || ingest_.size() > 0;
}

void
Session::appendChunkLocked(const IngestChunk &chunk)
{
    if (state_ == SessionState::Quarantined ||
        state_ == SessionState::Finished)
        return;  // discard: nothing to append to anymore
    std::uint64_t off = chunk.offset < 0
                            ? spooled_
                            : static_cast<std::uint64_t>(chunk.offset);
    if (off > spooled_) {
        // A gap would silently corrupt the spool; drop the chunk and
        // record it. The client resyncs from info().spooledBytes.
        ingestError_ =
            strf("chunk at offset %llu leaves a gap (spooled %llu); "
                 "dropped",
                 (unsigned long long)off, (unsigned long long)spooled_);
        logEvent(obs::EventLog::Severity::Warn, "session.ingest_gap",
                 ingestError_);
        bumpMetric("daemon.ingest_gaps_total");
        return;
    }
    std::uint64_t skip = spooled_ - off;
    if (skip >= chunk.data.size())
        return;  // pure retransmit of bytes already spooled
    if (!spoolOut_.is_open()) {
        spoolOut_.open(spoolPath(),
                       std::ios::binary | std::ios::app);
        if (!spoolOut_) {
            quarantineLocked(Status::error(
                ErrCode::IoError, "cannot reopen spool " + spoolPath()));
            return;
        }
    }
    const std::size_t n = chunk.data.size() -
                          static_cast<std::size_t>(skip);
    spoolOut_.write(chunk.data.data() + skip,
                    static_cast<std::streamsize>(n));
    // Flush through to the kernel: bytes in the page cache survive a
    // SIGKILL; bytes in this process's stream buffer do not.
    spoolOut_.flush();
    if (!spoolOut_) {
        quarantineLocked(Status::error(ErrCode::IoError,
                                       "spool write failed"));
        return;
    }
    spooled_ += n;
    bumpMetric("daemon.ingest_bytes_total", n);
}

std::uint64_t
Session::consumedBytesLocked()
{
    if (!spoolIn_)
        return 0;
    auto pos = spoolIn_->tellg();
    if (pos < 0)
        return spooled_;
    return static_cast<std::uint64_t>(pos);
}

bool
Session::workAvailableLocked()
{
    if (state_ != SessionState::Live &&
        state_ != SessionState::Evicted)
        return false;
    if (!engine_)
        return (finished_ && spooled_ > 0) ||
               (spooled_ >= margin_ && spooled_ >= resumeAtBytes_);
    return finished_ ||
           spooled_ >= consumedBytesLocked() + margin_;
}

bool
Session::pumpLocked(std::uint64_t opBudget)
{
    if (!workAvailableLocked())
        return false;
    if (!engine_) {
        Status st = ensureHotLocked();
        if (!st) {
            retryOrQuarantineLocked(st);
            return state_ == SessionState::Live;
        }
    }
    std::uint64_t n = 0;
    while (n < opBudget) {
        if (poisoned_.load(std::memory_order_acquire)) {
            quarantineLocked(Status::error(
                ErrCode::Stalled,
                "watchdog: session stalled mid-analysis"));
            return false;
        }
        // Live-edge gate, rechecked on a cadence cheap enough to not
        // matter and tight enough that the bytes consumable between
        // checks stay far under margin_.
        if (!finished_ && (n & 63) == 0 &&
            spooled_ < consumedBytesLocked() + margin_)
            return false;
        if (!engine_->processNext()) {
            handleEndLocked();
            return (state_ == SessionState::Live ||
                    state_ == SessionState::Evicted) &&
                   workAvailableLocked();
        }
        ++n;
    }
    return true;  // budget exhausted with the engine still running
}

Status
Session::ensureHotLocked()
{
    teardownEngineLocked();
    Expected<bool> binary = trace::tryIsBinaryTraceFile(spoolPath());
    if (!binary)
        return binary.status();
    spoolIn_ = std::make_unique<std::ifstream>(spoolPath(),
                                               std::ios::binary);
    if (!*spoolIn_)
        return Status::error(ErrCode::IoError,
                             "cannot open spool " + spoolPath());
    trace::SourceErrorPolicy policy;  // defaults match single-shot
    if (binary.value())
        source_ = std::make_unique<trace::StreamingBinarySource>(
            *spoolIn_, policy);
    else
        source_ = std::make_unique<trace::StreamingTextSource>(
            *spoolIn_, policy);
    if (!source_->ok()) {
        Status st = source_->status();
        teardownEngineLocked();
        return st;
    }
    const core::ModelKind model =
        core::modelForDialect(source_->meta().dialect());
    const std::uint8_t myTag = model == core::ModelKind::Async
                                   ? report::kModelTagAsync
                                   : report::kModelTagLooper;

    checker_ = std::make_unique<report::FastTrackChecker>();
    std::uint64_t skip = 0;
    if (fileExists(ckptPath())) {
        Expected<report::CheckpointMeta> loaded =
            report::loadCheckpoint(ckptPath(), *checker_);
        if (loaded && loaded.value().modelTag == myTag) {
            skip = loaded.value().accessesChecked;
        } else {
            // Damaged or stale checkpoint: a full replay from the
            // spool reproduces the same state, just slower.
            logEvent(obs::EventLog::Severity::Warn,
                     "session.ckpt_discarded",
                     loaded ? "model tag mismatch"
                            : loaded.status().toString());
            checker_ = std::make_unique<report::FastTrackChecker>();
            std::remove(ckptPath().c_str());
        }
    }
    filter_ =
        std::make_unique<report::ResumeFilter>(*checker_, skip);
    engine_ = std::make_unique<core::DetectorEngine>(
        model, *source_, *filter_, cfg_.detector);
    obs::ObsContext octx;
    octx.events = cfg_.events;
    engine_->attachObs(octx);
    if (state_ == SessionState::Evicted) {
        ++resumes_;
        bumpMetric("daemon.resumes_total");
        logEvent(obs::EventLog::Severity::Info, "session.resumed",
                 strf("%s: skipping %llu checked access(es)",
                      id_.c_str(), (unsigned long long)skip));
    }
    state_ = SessionState::Live;
    writeMetaLocked();
    return Status::ok();
}

void
Session::teardownEngineLocked()
{
    // Borrow order: engine -> (source, filter) -> checker -> stream.
    engine_.reset();
    filter_.reset();
    checker_.reset();
    source_.reset();
    spoolIn_.reset();
}

void
Session::handleEndLocked()
{
    if (!engine_->runStatus().isOk()) {
        // Structural damage. Before finish this could still be a torn
        // record misparsing into a protocol-invalid op, so the verdict
        // is deferred like any other pre-finish failure; after finish
        // the replay is deterministic and the quarantine is final.
        retryOrQuarantineLocked(engine_->runStatus());
        return;
    }
    if (!source_->ok()) {
        retryOrQuarantineLocked(source_->status());
        return;
    }
    if (finished_) {
        finalizeLocked();
        return;
    }
    // Clean end-of-stream before finish: a record run overran the
    // live-edge margin into the incomplete tail.
    retryOrQuarantineLocked(Status::error(
        ErrCode::Truncated,
        "decoder reached the spool's live edge before finish"));
}

void
Session::retryOrQuarantineLocked(Status why)
{
    if (!finished_) {
        // Before finish, outrunning the writer is expected: a single
        // decoder step may consume an unbounded run of declaration
        // records straight through the margin, and a chunk boundary
        // can tear any record. Tear down and wait for the spool to
        // grow geometrically past the overrun point before
        // rebuilding; a genuinely damaged stream keeps failing and is
        // quarantined on the post-finish replay, when every byte is
        // in and the verdict is deterministic.
        margin_ = std::min(margin_ * 2, kMaxMargin);
        resumeAtBytes_ =
            std::max(spooled_ + margin_, spooled_ + spooled_ / 2);
        lastOps_ = engine_ ? engine_->opsProcessed() : lastOps_;
        teardownEngineLocked();
        logEvent(obs::EventLog::Severity::Warn, "session.retry",
                 strf("%s; will rebuild at %llu spooled byte(s)",
                      why.toString().c_str(),
                      (unsigned long long)resumeAtBytes_));
        bumpMetric("daemon.session_retries_total");
        return;
    }
    quarantineLocked(std::move(why));
}

void
Session::finalizeLocked()
{
    report::RaceAnalyzer analyzer(engine_->meta());
    report::ReportSummary summary =
        analyzer.analyze(checker_->races(), cfg_.filters);
    core::appendRunNotes(summary.notes, source_->recordsSkipped(),
                         &engine_->counters());
    std::string text = report::renderReportText(analyzer, summary);
    if (Status st = writeFileAtomic(reportPath(), text); !st) {
        quarantineLocked(st);
        return;
    }
    lastOps_ = engine_->opsProcessed();
    lastRaces_ = checker_->racesFound();
    teardownEngineLocked();
    std::remove(ckptPath().c_str());
    state_ = SessionState::Finished;
    writeMetaLocked();
    logEvent(obs::EventLog::Severity::Info, "session.finished",
             strf("%s: %llu op(s), %llu race(s)", id_.c_str(),
                  (unsigned long long)lastOps_,
                  (unsigned long long)lastRaces_));
    bumpMetric("daemon.reports_total");
}

void
Session::quarantineLocked(Status why)
{
    error_ = oneLine(why.toString());
    lastOps_ = engine_ ? engine_->opsProcessed() : lastOps_;
    lastRaces_ = checker_ ? checker_->racesFound() : lastRaces_;
    teardownEngineLocked();
    state_ = SessionState::Quarantined;
    // Wake any producer blocked in offerChunk right now; further
    // offers fail fast with Closed.
    ingest_.close();
    writeMetaLocked();
    warn(strf("daemon: session %s quarantined: %s", id_.c_str(),
              error_.c_str()));
    logEvent(obs::EventLog::Severity::Error, "session.quarantined",
             id_ + ": " + error_);
    bumpMetric("daemon.quarantines_total");
}

std::uint64_t
Session::memoryBytes()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!engine_)
        return 0;
    return engine_->metadataBytes() + checker_->byteSize();
}

std::uint64_t
Session::workingForUs() const
{
    std::uint64_t start = workStartUs_.load(std::memory_order_acquire);
    if (start == 0)
        return 0;
    std::uint64_t now = nowMonoUs();
    return now > start ? now - start : 0;
}

bool
Session::tryEvict()
{
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock())
        return false;  // a worker is inside; never disturb it
    // Scheduled-but-queued sessions (and finished ones still pumping
    // toward their report) are fair game: they are idle right now,
    // their memory is real, and the next work() call transparently
    // resumes from the checkpoint.
    return evictLocked();
}

bool
Session::evictLocked()
{
    if (state_ != SessionState::Live || !engine_)
        return false;
    if (filter_->replaying())
        return false;  // restored state covers skip, not seen
    report::CheckpointMeta meta;
    meta.opsProcessed = engine_->opsProcessed();
    meta.accessesChecked = filter_->accessesSeen();
    meta.traceBytes = spooled_;
    meta.traceHash = 0;  // spool identity is daemon-owned
    meta.modelTag = engine_->modelKind() == core::ModelKind::Async
                        ? report::kModelTagAsync
                        : report::kModelTagLooper;
    if (Status st = report::saveCheckpoint(ckptPath(), meta,
                                           *checker_);
        !st) {
        warn(strf("daemon: cannot checkpoint session %s: %s",
                  id_.c_str(), st.toString().c_str()));
        return false;  // stay hot rather than lose state
    }
    lastOps_ = engine_->opsProcessed();
    lastRaces_ = checker_->racesFound();
    teardownEngineLocked();
    state_ = SessionState::Evicted;
    ++evictions_;
    writeMetaLocked();
    logEvent(obs::EventLog::Severity::Info, "session.evicted",
             strf("%s: checkpointed at %llu op(s)", id_.c_str(),
                  (unsigned long long)lastOps_));
    bumpMetric("daemon.evictions_total");
    return true;
}

void
Session::closeIngest()
{
    ingest_.close();
}

void
Session::drainFlush()
{
    std::lock_guard<std::mutex> lock(mu_);
    IngestChunk chunk;
    while (ingest_.size() > 0 && ingest_.pop(chunk))
        appendChunkLocked(chunk);
    if (state_ == SessionState::Quarantined ||
        state_ == SessionState::Finished)
        return;
    if (finished_) {
        if (spooled_ == 0) {
            quarantineLocked(Status::error(
                ErrCode::Truncated,
                "session finished with no trace bytes"));
            return;
        }
        // Run to the report; bounded by the spool plus the retry
        // budget, both finite.
        while ((state_ == SessionState::Live ||
                state_ == SessionState::Evicted) &&
               workAvailableLocked())
            pumpLocked(std::uint64_t(1) << 20);
        return;
    }
    if (engine_)
        evictLocked();
    else
        writeMetaLocked();
}

Status
Session::removeFiles()
{
    std::remove(spoolPath().c_str());
    std::remove(metaPath().c_str());
    std::remove(ckptPath().c_str());
    std::remove(reportPath().c_str());
    return Status::ok();
}

void
Session::writeMetaLocked()
{
    std::string data = strf("state=%s\nfinished=%d\n",
                            sessionStateName(state_),
                            finished_ ? 1 : 0);
    if (!error_.empty())
        data += "error=" + oneLine(error_) + "\n";
    if (Status st = writeFileAtomic(metaPath(), data); !st)
        warn(strf("daemon: cannot write meta for %s: %s",
                  id_.c_str(), st.toString().c_str()));
}

void
Session::touch()
{
    lastActiveNs_.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_relaxed);
}

void
Session::logEvent(obs::EventLog::Severity sev,
                  const std::string &kind, const std::string &msg,
                  std::uint64_t op)
{
    if (cfg_.events)
        cfg_.events->log(sev, kind, msg, op);
}

void
Session::bumpMetric(const char *name, std::uint64_t n)
{
    if (cfg_.metrics)
        cfg_.metrics->counter(name).inc(n);
}

} // namespace asyncclock::daemon

/**
 * @file
 * Compact binary trace format (trace_io.hh): LEB128 varints, tagged
 * records, zigzag-delta-coded vtimes.
 *
 * Layout:
 *   magic "ACTB", version byte
 *   version 2 only: dialect byte (0 = looper, 1 = async)
 *   records until the end marker:
 *     0x00..0x0B  operation (tag == OpKind)
 *     0x0C..0x0F  async-dialect operation (version 2 async only)
 *     0xE0..0xE6  entity declaration
 *     0xFF        end marker
 *
 * Looper traces are always written as version 1, so the original
 * encoding stays byte-for-byte unchanged; only async traces use the
 * version-2 header and the task-graph op tags.
 *
 * Operation record: task varint ((index << 1) | isEvent), then the
 * kind-specific payload, then zigzag varint of (vtime - prev vtime).
 * Optional ids (site, thread queue, site commGroup) are stored as
 * id + 1 with 0 meaning absent, so kInvalidId never costs 5 bytes.
 * Strings are varint length + bytes.
 *
 * Entity declarations may appear anywhere before first use, which is
 * what lets the runtime's direct-to-sink mode stream a recording while
 * it forks threads and allocates events mid-run. A missing end marker
 * means truncation; every id is bounds-checked against the tables
 * declared so far, so corrupted bytes are rejected, not crashed on.
 */

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/format.hh"
#include "support/logging.hh"
#include "trace/trace_io.hh"

namespace asyncclock::trace {

const char kBinaryMagic[4] = {'A', 'C', 'T', 'B'};

namespace {

constexpr std::uint8_t kTagThread = 0xE0;
constexpr std::uint8_t kTagQueue = 0xE1;
constexpr std::uint8_t kTagBindLooper = 0xE2;
constexpr std::uint8_t kTagEvent = 0xE3;
constexpr std::uint8_t kTagVar = 0xE4;
constexpr std::uint8_t kTagHandle = 0xE5;
constexpr std::uint8_t kTagSite = 0xE6;
constexpr std::uint8_t kTagEnd = 0xFF;
constexpr std::uint8_t kMaxOpTag = 0x0B;
constexpr std::uint8_t kMaxOpTagAsync = 0x0F;

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
}

void
putVarint(std::ostream &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.put(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.put(static_cast<char>(v));
}

void
putString(std::ostream &out, const std::string &s)
{
    putVarint(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/** Incremental decoder shared by the materializing reader and the
 * streaming source. Tracks declared-entity counts for bounds checks
 * and the running vtime for delta decoding.
 *
 * Failure discipline: *structural* damage (truncated varint/string,
 * unknown tag, missing end marker) is unrecoverable — the record
 * boundary is lost, so the stream hard-fails with a Status carrying
 * the byte offset. *Value* damage (an id out of range, a bad enum) is
 * discovered only after the record's bytes were fully consumed, so
 * the record can be skipped and counted against the error budget.
 * Entity declarations are the exception: their ids are positional, so
 * skipping one would silently shift every later id — they hard-fail
 * (bind-looper carries no id of its own and stays skippable). */
class BinaryDecoder
{
  public:
    explicit BinaryDecoder(std::istream &in,
                           SourceErrorPolicy policy = {})
        : in_(in), policy_(policy)
    {
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    bool atEnd() const { return sawEnd_; }
    std::uint64_t skipped() const { return skipped_; }
    Dialect dialect() const { return dialect_; }

    Status
    status() const
    {
        if (ok_)
            return Status::ok();
        return Status::error(errCode_, error_, errOffset_);
    }

    /** Validate magic + version; call once before records. */
    bool
    readHeader()
    {
        char magic[4];
        if (!in_.read(magic, 4))
            return fail(ErrCode::Truncated, "missing magic");
        if (std::memcmp(magic, kBinaryMagic, 4) != 0)
            return fail(ErrCode::ParseError, "bad magic");
        int version = in_.get();
        if (version == EOF)
            return fail(ErrCode::Truncated, "missing version");
        if (version == kBinaryVersion) {
            dialect_ = Dialect::Looper;
            return true;
        }
        if (version != kBinaryVersionDialect) {
            return fail(ErrCode::Unsupported,
                        strf("unsupported version %d", version));
        }
        int dialect = in_.get();
        if (dialect == EOF)
            return fail(ErrCode::Truncated, "missing dialect byte");
        if (dialect > 1) {
            return fail(ErrCode::Corrupt,
                        strf("bad dialect tag %d", dialect));
        }
        dialect_ = static_cast<Dialect>(dialect);
        return true;
    }

    /**
     * Decode the next record. Entity declarations are applied to
     * @p entities; an operation sets @p isOp and fills @p op. Returns
     * false at the end marker or on error (check ok()). Corrupt
     * records within the error budget are skipped internally and
     * never surface here.
     */
    bool
    nextRecord(EntitySink &entities, bool &isOp, Operation &op)
    {
        for (;;) {
            Rec rec = nextRecordOnce(entities, isOp, op);
            if (rec == Rec::Soft && skipRecord())
                continue;
            return rec == Rec::Good;
        }
    }

  private:
    /** Outcome of one record: decoded, skippable-corrupt, or
     * end/hard-error (Stop covers both; check ok()/atEnd()). */
    enum class Rec { Good, Soft, Stop };

    Rec
    nextRecordOnce(EntitySink &entities, bool &isOp, Operation &op)
    {
        isOp = false;
        if (!ok_ || sawEnd_)
            return Rec::Stop;
        int tag = in_.get();
        if (tag == EOF) {
            fail(ErrCode::Truncated, "truncated: missing end marker");
            return Rec::Stop;
        }
        std::uint8_t t = static_cast<std::uint8_t>(tag);
        if (t == kTagEnd) {
            sawEnd_ = true;
            return Rec::Stop;
        }
        // The async op tags are only words of the async dialect; in a
        // looper stream 0x0C..0x0F stay unknown tags (hard failure —
        // the payload layout cannot be trusted to resynchronize).
        const std::uint8_t maxOpTag =
            dialect_ == Dialect::Async ? kMaxOpTagAsync : kMaxOpTag;
        if (t <= maxOpTag) {
            Rec rec = decodeOp(static_cast<OpKind>(t), op);
            isOp = rec == Rec::Good;
            return rec;
        }
        return decodeEntity(t, entities) ? Rec::Good
               : ok_                     ? Rec::Soft
                                         : Rec::Stop;
    }

    /** False on failure: soft if ok() still holds (only the
     * non-positional bind-looper record), hard otherwise. */
    bool
    decodeEntity(std::uint8_t t, EntitySink &entities)
    {
        switch (t) {
          case kTagThread:
            {
                std::uint64_t kind, queuePlus1;
                std::string name;
                if (!getVarint(kind) || !getVarint(queuePlus1) ||
                    !getString(name)) {
                    return false;
                }
                if (kind > 2)
                    return fail(ErrCode::Corrupt, "bad thread kind");
                QueueId q = queuePlus1 == 0
                                ? kInvalidId
                                : static_cast<QueueId>(queuePlus1 - 1);
                entities.declThread(static_cast<ThreadKind>(kind),
                                    std::move(name), q);
                ++threads_;
                return true;
            }
          case kTagQueue:
            {
                std::uint64_t kind;
                std::string name;
                if (!getVarint(kind) || !getString(name))
                    return false;
                if (kind > 1)
                    return fail(ErrCode::Corrupt, "bad queue kind");
                entities.declQueue(static_cast<QueueKind>(kind),
                                   std::move(name));
                ++queues_;
                return true;
            }
          case kTagBindLooper:
            {
                std::uint64_t q, looper;
                if (!getVarint(q) || !getVarint(looper))
                    return false;
                if (q >= queues_ || looper >= threads_)
                    return softFail("bind-looper id out of range");
                entities.bindLooper(static_cast<QueueId>(q),
                                    static_cast<ThreadId>(looper));
                return true;
            }
          case kTagEvent:
            entities.declEvent();
            ++events_;
            return true;
          case kTagVar:
            {
                std::uint64_t label;
                std::string name;
                if (!getVarint(label) || !getString(name))
                    return false;
                if (label > 5)
                    return fail(ErrCode::Corrupt, "bad seed label");
                entities.declVar(std::move(name),
                                 static_cast<SeedLabel>(label));
                ++vars_;
                return true;
            }
          case kTagHandle:
            {
                std::string name;
                if (!getString(name))
                    return false;
                entities.declHandle(std::move(name));
                ++handles_;
                return true;
            }
          case kTagSite:
            {
                std::uint64_t frame, groupPlus1;
                std::string name;
                if (!getVarint(frame) || !getVarint(groupPlus1) ||
                    !getString(name)) {
                    return false;
                }
                if (frame > 2)
                    return fail(ErrCode::Corrupt, "bad site frame");
                std::uint32_t g =
                    groupPlus1 == 0
                        ? kInvalidId
                        : static_cast<std::uint32_t>(groupPlus1 - 1);
                entities.declSite(std::move(name),
                                  static_cast<Frame>(frame), g);
                ++sites_;
                return true;
            }
          default:
            return fail(ErrCode::ParseError,
                        strf("unknown record tag 0x%02X", t));
        }
    }

    std::uint64_t
    inputOffset()
    {
        // tellg() refuses once eof/fail bits are set (the usual
        // state on a truncated stream); clear, read, restore so
        // the error still carries the real offset.
        std::ios_base::iostate state = in_.rdstate();
        in_.clear();
        long long at = static_cast<long long>(in_.tellg());
        in_.setstate(state);
        return at < 0 ? kNoOffset : static_cast<std::uint64_t>(at);
    }

    bool
    fail(ErrCode code, const std::string &msg)
    {
        if (ok_) {
            ok_ = false;
            errCode_ = code;
            errOffset_ = inputOffset();
            error_ = strf("byte %lld: %s",
                          static_cast<long long>(errOffset_),
                          msg.c_str());
            // Surface the failure immediately but rate-limited: a
            // harness decoding many corrupt traces (fuzzing, batch
            // ingestion) must not flood stderr one line per stream.
            warnRateLimited("trace_bin.decode",
                            "binary trace decode: " + error_);
        }
        return false;
    }

    /** A value-corrupt record whose bytes were fully consumed: the
     * stream stays usable, nextRecord() may skip it under the
     * budget. */
    bool
    softFail(const std::string &msg)
    {
        softMsg_ = strf("byte %lld: %s",
                        static_cast<long long>(inputOffset()),
                        msg.c_str());
        return false;
    }

    /** Charge the last softFail against the budget; false (stream
     * hard-failed) once the budget is exhausted. */
    bool
    skipRecord()
    {
        if (skipped_ >= policy_.maxRecordErrors) {
            if (skipped_ > 0) {
                return fail(
                    ErrCode::BudgetExceeded,
                    strf("error budget exhausted after %llu skipped "
                         "records; last: %s",
                         static_cast<unsigned long long>(skipped_),
                         softMsg_.c_str()));
            }
            return fail(ErrCode::Corrupt, softMsg_);
        }
        ++skipped_;
        warnRateLimited("trace_bin.skip",
                        "skipping corrupt trace record: " + softMsg_);
        return true;
    }

    bool
    getVarint(std::uint64_t &v)
    {
        v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            int byte = in_.get();
            if (byte == EOF)
                return fail(ErrCode::Truncated, "truncated varint");
            v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if (!(byte & 0x80))
                return true;
        }
        return fail(ErrCode::ParseError, "varint overflow");
    }

    bool
    getString(std::string &s)
    {
        std::uint64_t len;
        if (!getVarint(len))
            return false;
        if (len > (1u << 20))
            return fail(ErrCode::ParseError,
                        "unreasonable string length");
        s.resize(len);
        if (len &&
            !in_.read(s.data(), static_cast<std::streamsize>(len))) {
            return fail(ErrCode::Truncated, "truncated string");
        }
        return true;
    }

    /**
     * Decode one operation record. Reads the *entire* payload before
     * validating any value, so a value failure leaves the stream
     * positioned at the next record and the op is skippable (Soft);
     * only byte-level truncation hard-fails (Stop).
     */
    Rec
    decodeOp(OpKind kind, Operation &op)
    {
        op = Operation();
        op.kind = kind;
        std::uint64_t taskRaw = 0, a = 0, b = 0, c = 0, d = 0;
        unsigned payload = 0;
        switch (kind) {
          case OpKind::ThreadBegin:
          case OpKind::ThreadEnd:
          case OpKind::EventEnd:
            payload = 0;
            break;
          case OpKind::EventBegin:
          case OpKind::Fork:
          case OpKind::Join:
          case OpKind::Signal:
          case OpKind::Wait:
          case OpKind::RemoveEvent:
          case OpKind::TaskAwait:
          case OpKind::ScopeEnd:
          case OpKind::TaskCancel:
            payload = 1;
            break;
          case OpKind::Read:
          case OpKind::Write:
          case OpKind::TaskSpawn:
            payload = 2;
            break;
          case OpKind::Send:
            payload = 4;
            break;
        }
        std::uint64_t delta = 0;
        if (!getVarint(taskRaw) ||
            (payload > 0 && !getVarint(a)) ||
            (payload > 1 && !getVarint(b)) ||
            (payload > 2 && !getVarint(c)) ||
            (payload > 3 && !getVarint(d)) || !getVarint(delta)) {
            return Rec::Stop;
        }
        // The record's bytes are consumed; everything below is value
        // validation. The vtime cursor advances regardless of the
        // verdict so later deltas still decode.
        lastVtime_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(lastVtime_) + unzigzag(delta));
        op.vtime = lastVtime_;

        auto soft = [this](const char *msg) {
            softFail(msg);
            return Rec::Soft;
        };
        if (taskRaw > 0xFFFFFFFFull)
            return soft("op task out of 32-bit range");
        std::uint32_t index =
            static_cast<std::uint32_t>(taskRaw >> 1);
        bool isEvent = taskRaw & 1;
        op.task = isEvent ? Task::event(index) : Task::thread(index);
        if (isEvent ? index >= events_ : index >= threads_)
            return soft("op task out of range");
        switch (kind) {
          case OpKind::ThreadBegin:
          case OpKind::ThreadEnd:
          case OpKind::EventEnd:
            break;
          case OpKind::EventBegin:
          case OpKind::Fork:
          case OpKind::Join:
            if (a >= threads_)
                return soft("op thread out of range");
            op.target = static_cast<std::uint32_t>(a);
            break;
          case OpKind::Signal:
          case OpKind::Wait:
            if (a >= handles_)
                return soft("op handle out of range");
            op.target = static_cast<std::uint32_t>(a);
            break;
          case OpKind::Read:
          case OpKind::Write:
            if (a >= vars_)
                return soft("op var out of range");
            op.target = static_cast<std::uint32_t>(a);
            if (b == 0) {
                op.site = kInvalidId;
            } else {
                if (b - 1 >= sites_)
                    return soft("op site out of range");
                op.site = static_cast<std::uint32_t>(b - 1);
            }
            break;
          case OpKind::Send:
            if (a >= queues_)
                return soft("op queue out of range");
            if (b >= events_)
                return soft("op event out of range");
            if (c > 5)
                return soft("bad send attrs");
            op.target = static_cast<std::uint32_t>(a);
            op.event = static_cast<std::uint32_t>(b);
            op.attrs.kind = static_cast<SendKind>(c >> 1);
            op.attrs.async = c & 1;
            op.attrs.time = d;
            break;
          case OpKind::RemoveEvent:
          case OpKind::TaskAwait:
          case OpKind::TaskCancel:
            if (a >= events_)
                return soft("op event out of range");
            op.event = static_cast<std::uint32_t>(a);
            break;
          case OpKind::TaskSpawn:
            if (a >= events_)
                return soft("op event out of range");
            if (b >= handles_)
                return soft("op scope out of range");
            op.event = static_cast<std::uint32_t>(a);
            op.target = static_cast<std::uint32_t>(b);
            break;
          case OpKind::ScopeEnd:
            if (a >= handles_)
                return soft("op scope out of range");
            op.target = static_cast<std::uint32_t>(a);
            break;
        }
        return Rec::Good;
    }

    std::istream &in_;
    SourceErrorPolicy policy_;
    Dialect dialect_ = Dialect::Looper;
    std::uint64_t threads_ = 0, queues_ = 0, events_ = 0;
    std::uint64_t vars_ = 0, handles_ = 0, sites_ = 0;
    std::uint64_t lastVtime_ = 0;
    std::uint64_t skipped_ = 0;
    bool ok_ = true;
    bool sawEnd_ = false;
    ErrCode errCode_ = ErrCode::Ok;
    std::uint64_t errOffset_ = kNoOffset;
    std::string error_;
    std::string softMsg_;
};

} // namespace

// ----- BinaryTraceWriter ----------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(std::ostream &out, Dialect dialect)
    : out_(out), dialect_(dialect)
{
    out_.write(kBinaryMagic, 4);
    if (dialect_ == Dialect::Looper) {
        out_.put(static_cast<char>(kBinaryVersion));
    } else {
        out_.put(static_cast<char>(kBinaryVersionDialect));
        out_.put(static_cast<char>(dialect_));
    }
}

BinaryTraceWriter::~BinaryTraceWriter()
{
    finish();
}

void
BinaryTraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_.put(static_cast<char>(kTagEnd));
    out_.flush();
}

ThreadId
BinaryTraceWriter::declThread(ThreadKind kind, std::string name,
                              QueueId queue)
{
    out_.put(static_cast<char>(kTagThread));
    putVarint(out_, static_cast<std::uint64_t>(kind));
    putVarint(out_, queue == kInvalidId
                        ? 0
                        : static_cast<std::uint64_t>(queue) + 1);
    putString(out_, name);
    return threads_++;
}

QueueId
BinaryTraceWriter::declQueue(QueueKind kind, std::string name)
{
    out_.put(static_cast<char>(kTagQueue));
    putVarint(out_, static_cast<std::uint64_t>(kind));
    putString(out_, name);
    return queues_++;
}

void
BinaryTraceWriter::bindLooper(QueueId queue, ThreadId looper)
{
    out_.put(static_cast<char>(kTagBindLooper));
    putVarint(out_, queue);
    putVarint(out_, looper);
}

EventId
BinaryTraceWriter::declEvent()
{
    out_.put(static_cast<char>(kTagEvent));
    return events_++;
}

VarId
BinaryTraceWriter::declVar(std::string name, SeedLabel label)
{
    out_.put(static_cast<char>(kTagVar));
    putVarint(out_, static_cast<std::uint64_t>(label));
    putString(out_, name);
    return vars_++;
}

HandleId
BinaryTraceWriter::declHandle(std::string name)
{
    out_.put(static_cast<char>(kTagHandle));
    putString(out_, name);
    return handles_++;
}

SiteId
BinaryTraceWriter::declSite(std::string name, Frame frame,
                            std::uint32_t commGroup)
{
    out_.put(static_cast<char>(kTagSite));
    putVarint(out_, static_cast<std::uint64_t>(frame));
    putVarint(out_, commGroup == kInvalidId
                        ? 0
                        : static_cast<std::uint64_t>(commGroup) + 1);
    putString(out_, name);
    return sites_++;
}

void
BinaryTraceWriter::emit(const Operation &op)
{
    out_.put(static_cast<char>(op.kind));
    putVarint(out_, (static_cast<std::uint64_t>(op.task.index()) << 1) |
                        (op.task.isEvent() ? 1 : 0));
    switch (op.kind) {
      case OpKind::ThreadBegin:
      case OpKind::ThreadEnd:
      case OpKind::EventEnd:
        break;
      case OpKind::EventBegin:
      case OpKind::Fork:
      case OpKind::Join:
      case OpKind::Signal:
      case OpKind::Wait:
        putVarint(out_, op.target);
        break;
      case OpKind::Read:
      case OpKind::Write:
        putVarint(out_, op.target);
        putVarint(out_, op.site == kInvalidId
                            ? 0
                            : static_cast<std::uint64_t>(op.site) + 1);
        break;
      case OpKind::Send:
        putVarint(out_, op.target);
        putVarint(out_, op.event);
        putVarint(out_,
                  (static_cast<std::uint64_t>(op.attrs.kind) << 1) |
                      (op.attrs.async ? 1 : 0));
        putVarint(out_, op.attrs.time);
        break;
      case OpKind::RemoveEvent:
      case OpKind::TaskAwait:
      case OpKind::TaskCancel:
        putVarint(out_, op.event);
        break;
      case OpKind::TaskSpawn:
        putVarint(out_, op.event);
        putVarint(out_, op.target);
        break;
      case OpKind::ScopeEnd:
        putVarint(out_, op.target);
        break;
    }
    putVarint(out_, zigzag(static_cast<std::int64_t>(op.vtime) -
                           static_cast<std::int64_t>(lastVtime_)));
    lastVtime_ = op.vtime;
    ++ops_;
}

// ----- materializing writer/reader ------------------------------------

void
writeBinaryTrace(const Trace &tr, std::ostream &out)
{
    BinaryTraceWriter writer(out, tr.dialect());
    replayEntities(tr, writer);
    for (const Operation &op : tr.ops())
        writer.emit(op);
    writer.finish();
}

std::string
writeBinaryTraceToString(const Trace &tr)
{
    std::ostringstream ss;
    writeBinaryTrace(tr, ss);
    return ss.str();
}

bool
readBinaryTrace(std::istream &in, Trace &tr, std::string &error)
{
    tr = Trace();
    BinaryDecoder dec(in);
    if (!dec.readHeader()) {
        error = dec.error();
        return false;
    }
    tr.setDialect(dec.dialect());
    bool isOp = false;
    Operation op;
    while (dec.nextRecord(tr, isOp, op)) {
        if (isOp)
            tr.emit(op);
    }
    if (!dec.ok()) {
        error = dec.error();
        tr = Trace();
        return false;
    }
    return true;
}

bool
readBinaryTraceFromString(const std::string &data, Trace &tr,
                          std::string &error)
{
    std::istringstream ss(data);
    return readBinaryTrace(ss, tr, error);
}

Status
trySaveBinaryTraceFile(const Trace &tr, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        return Status::error(ErrCode::IoError,
                             "cannot open " + path + " for writing");
    }
    writeBinaryTrace(tr, out);
    if (!out) {
        return Status::error(ErrCode::IoError,
                             "write to " + path + " failed");
    }
    return Status::ok();
}

void
saveBinaryTraceFile(const Trace &tr, const std::string &path)
{
    Status st = trySaveBinaryTraceFile(tr, path);
    if (!st)
        fatal(st.toString());
}

// ----- StreamingBinarySource ------------------------------------------

struct StreamingBinarySource::Impl
{
    Impl(std::istream &in, SourceErrorPolicy policy)
        : dec(in, policy)
    {
    }
    BinaryDecoder dec;
};

StreamingBinarySource::StreamingBinarySource(std::istream &in,
                                             SourceErrorPolicy policy)
    : impl_(new Impl(in, policy))
{
    if (impl_->dec.readHeader())
        meta_.setDialect(impl_->dec.dialect());
}

StreamingBinarySource::~StreamingBinarySource() = default;

bool
StreamingBinarySource::next(Operation &op)
{
    bool isOp = false;
    while (impl_->dec.nextRecord(meta_, isOp, op)) {
        if (isOp) {
            if (op.kind == OpKind::Send)
                meta_.noteSend(op.event, op.target, op.attrs);
            return true;
        }
    }
    return false;
}

bool
StreamingBinarySource::ok() const
{
    return impl_->dec.ok();
}

const std::string &
StreamingBinarySource::error() const
{
    return impl_->dec.error();
}

Status
StreamingBinarySource::status() const
{
    return impl_->dec.status();
}

std::uint64_t
StreamingBinarySource::recordsSkipped() const
{
    return impl_->dec.skipped();
}

std::uint64_t
StreamingBinarySource::containerBytes() const
{
    // The decoder holds no per-op state; only fixed-size counters.
    return sizeof(Impl);
}

// ----- trace files, either format -----------------------------------

namespace {

/** Does @p path start with the binary magic? */
Expected<bool>
hasBinaryMagic(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error(ErrCode::IoError, "cannot open " + path);
    char magic[4] = {};
    in.read(magic, 4);
    return in && std::memcmp(magic, kBinaryMagic, 4) == 0;
}

} // namespace

Expected<OpenedSource>
tryOpenTraceSource(const std::string &path, SourceErrorPolicy policy,
                   const FaultConfig &faults)
{
    Expected<bool> binary = hasBinaryMagic(path);
    if (!binary)
        return binary.status();
    OpenedSource out;
    out.binary = binary.value();
    out.file = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*out.file)
        return Status::error(ErrCode::IoError, "cannot open " + path);
    std::istream *bytes = out.file.get();
    if (faults.anyByteFaults()) {
        out.faultBuf = std::make_unique<FaultyStreamBuf>(*bytes, faults);
        out.faultStream = std::make_unique<std::istream>(out.faultBuf.get());
        bytes = out.faultStream.get();
    }
    if (out.binary)
        out.decoder = std::make_unique<StreamingBinarySource>(*bytes, policy);
    else
        out.decoder = std::make_unique<StreamingTextSource>(*bytes, policy);
    // Header damage (including a byte fault in the magic or version)
    // surfaces as a structured status, not an abort.
    if (!out.decoder->ok()) {
        Status st = out.decoder->status();
        return Status::error(st.code(),
                             "parsing " + path + ": " + st.message(),
                             st.offset());
    }
    if (faults.anyOpFaults()) {
        out.opFaults =
            std::make_unique<FaultInjectingSource>(*out.decoder, faults);
    }
    return out;
}

Expected<Trace>
tryLoadTrace(const std::string &path)
{
    Expected<bool> binary = hasBinaryMagic(path);
    if (!binary)
        return binary.status();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error(ErrCode::IoError, "cannot open " + path);
    Trace tr;
    std::string error;
    if (!(binary.value() ? readBinaryTrace(in, tr, error)
                         : readTrace(in, tr, error))) {
        return Status::error(ErrCode::ParseError,
                             "parsing " + path + ": " + error);
    }
    return tr;
}

} // namespace asyncclock::trace

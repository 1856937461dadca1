/**
 * @file
 * Trace serialization: the line-based text format and the compact
 * binary format, each with a materializing reader/writer pair and a
 * streaming TraceSource.
 *
 * The paper's workflow records a trace on the phone and analyzes it
 * offline; these are the interchange formats so traces from the
 * simulated runtime can be stored, diffed, and replayed into either
 * detector. The text format is human-readable (entity names must not
 * contain whitespace). The binary format is a varint-encoded record
 * stream — magic "ACTB" + version byte, then tagged records: entity
 * declarations (which may also appear mid-stream, for entities the
 * runtime creates while executing) and operations (task id, per-kind
 * payload, zigzag-delta-coded vtime), closed by an end marker so
 * truncation is detected. Typical ops encode in 4-8 bytes vs the
 * 48-byte in-memory Operation.
 *
 * The Streaming*Source classes implement trace::TraceSource over a
 * stream of either format: entity tables populate a TraceMeta as
 * declarations stream past and operations are decoded one at a time,
 * so the analysis' trace-container footprint is O(1) in the op count.
 *
 * A trace *file* of either format has one way in for streaming,
 * tryOpenTraceSource() (which also layers fault injection), and one
 * way in for materializing, tryLoadTrace(); both tell the formats
 * apart by the magic bytes.
 */

#ifndef ASYNCCLOCK_TRACE_TRACE_IO_HH
#define ASYNCCLOCK_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <istream>
#include <memory>
#include <string>

#include "trace/fault.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace asyncclock::trace {

// ----- text format ----------------------------------------------------

/** Serialize @p tr to @p out. */
void writeTrace(const Trace &tr, std::ostream &out);

/** Serialize to a string (convenience for tests). */
std::string writeTraceToString(const Trace &tr);

/**
 * Parse a trace. On malformed input, returns false, resets @p tr to an
 * empty trace, and sets @p error to a message carrying the 1-based
 * line number and the offending token.
 */
bool readTrace(std::istream &in, Trace &tr, std::string &error);

/** Parse from a string (convenience for tests). */
bool readTraceFromString(const std::string &text, Trace &tr,
                         std::string &error);

/** Write @p tr to @p path; fatal() on I/O failure. */
void saveTraceFile(const Trace &tr, const std::string &path);

/** Recoverable variant of saveTraceFile. */
Status trySaveTraceFile(const Trace &tr, const std::string &path);

/** Streaming TraceSource over the text format. The stream must
 * outlive the source. */
class StreamingTextSource : public TraceSource
{
  public:
    /** Validates the header line eagerly; check ok(). */
    explicit StreamingTextSource(std::istream &in,
                                 SourceErrorPolicy policy = {});

    const TraceMeta &meta() const override { return meta_; }
    bool next(Operation &op) override;
    bool ok() const override { return ok_; }
    const std::string &error() const override { return error_; }
    Status status() const override;
    std::uint64_t recordsSkipped() const override { return skipped_; }
    std::uint64_t containerBytes() const override;

  private:
    bool fail(ErrCode code, const std::string &msg);
    /** Count a corrupt op line against the budget; false (having
     * failed the stream) once the budget is exhausted. */
    bool skipRecord(const std::string &why);

    std::istream &in_;
    SourceErrorPolicy policy_;
    TraceMeta meta_;
    std::string line_;
    std::size_t lineNo_ = 0;
    std::uint64_t skipped_ = 0;
    bool ok_ = true;
    ErrCode errCode_ = ErrCode::Ok;
    std::string error_;
};

// ----- binary format --------------------------------------------------

/**
 * Magic bytes opening a binary trace ("ACTB") + format versions.
 * Version 1 is the original looper-dialect encoding and stays
 * byte-for-byte unchanged. Version 2 adds a dialect byte after the
 * version (0 = looper, 1 = async) and, in the async dialect, the four
 * task-graph op tags 0x0C..0x0F. Looper traces are always written as
 * version 1 so existing consumers keep working.
 */
extern const char kBinaryMagic[4];
constexpr std::uint8_t kBinaryVersion = 1;
constexpr std::uint8_t kBinaryVersionDialect = 2;

/**
 * TraceSink streaming the compact binary encoding to @p out as records
 * arrive — the runtime's direct-to-sink mode writes through this, so
 * recording never materializes the op vector. finish() (or the
 * destructor) writes the end marker.
 */
class BinaryTraceWriter : public TraceSink
{
  public:
    /** Writes the magic + version (+ dialect byte for async traces)
     * eagerly. */
    explicit BinaryTraceWriter(std::ostream &out,
                               Dialect dialect = Dialect::Looper);
    ~BinaryTraceWriter() override;

    ThreadId declThread(ThreadKind kind, std::string name,
                        QueueId queue) override;
    QueueId declQueue(QueueKind kind, std::string name) override;
    void bindLooper(QueueId queue, ThreadId looper) override;
    EventId declEvent() override;
    VarId declVar(std::string name, SeedLabel label) override;
    HandleId declHandle(std::string name) override;
    SiteId declSite(std::string name, Frame frame,
                    std::uint32_t commGroup) override;
    void emit(const Operation &op) override;

    /** Write the end marker; idempotent. */
    void finish();

    std::uint64_t opsWritten() const { return ops_; }

  private:
    std::ostream &out_;
    Dialect dialect_ = Dialect::Looper;
    std::uint32_t threads_ = 0, queues_ = 0, events_ = 0;
    std::uint32_t vars_ = 0, handles_ = 0, sites_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t lastVtime_ = 0;
    bool finished_ = false;
};

/** Serialize @p tr to @p out in the binary format. */
void writeBinaryTrace(const Trace &tr, std::ostream &out);

/** Binary-serialize to a string (convenience for tests). */
std::string writeBinaryTraceToString(const Trace &tr);

/**
 * Parse a binary trace. On malformed/truncated input, returns false,
 * resets @p tr to an empty trace, and sets @p error (with the byte
 * offset of the bad record).
 */
bool readBinaryTrace(std::istream &in, Trace &tr, std::string &error);

/** Parse from a string (convenience for tests). */
bool readBinaryTraceFromString(const std::string &data, Trace &tr,
                               std::string &error);

/** Write @p tr to @p path in the binary format; fatal() on failure. */
void saveBinaryTraceFile(const Trace &tr, const std::string &path);

/** Recoverable variant of saveBinaryTraceFile. */
Status trySaveBinaryTraceFile(const Trace &tr,
                              const std::string &path);

/** Streaming TraceSource over the binary format. The stream must
 * outlive the source. */
class StreamingBinarySource : public TraceSource
{
  public:
    /** Validates magic + version eagerly; check ok(). */
    explicit StreamingBinarySource(std::istream &in,
                                   SourceErrorPolicy policy = {});
    ~StreamingBinarySource() override;

    const TraceMeta &meta() const override { return meta_; }
    bool next(Operation &op) override;
    bool ok() const override;
    const std::string &error() const override;
    Status status() const override;
    std::uint64_t recordsSkipped() const override;
    std::uint64_t containerBytes() const override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    TraceMeta meta_;
};

// ----- trace files, either format -----------------------------------

/**
 * A trace file opened for streaming, with everything the source chain
 * borrows: the file, the byte-fault buffer over it and the stream
 * through that buffer (byte faults only), the format decoder, and the
 * op-fault wrapper around the decoder (op faults only). Members are
 * declared in borrow order, so they are destroyed source-first.
 */
struct OpenedSource
{
    std::unique_ptr<std::istream> file;
    std::unique_ptr<FaultyStreamBuf> faultBuf;
    std::unique_ptr<std::istream> faultStream;
    std::unique_ptr<TraceSource> decoder;
    std::unique_ptr<FaultInjectingSource> opFaults;
    /** Format sniffed from the file's magic bytes. */
    bool binary = false;

    /** What the detector consumes: the op-fault wrapper if any, else
     * the decoder. */
    TraceSource &
    source() const
    {
        return opFaults ? static_cast<TraceSource &>(*opFaults)
                        : *decoder;
    }
};

/**
 * Open @p path as a streaming source. The format comes from the
 * *un-faulted* file's magic bytes; @p policy is the decoder's corrupt-
 * record budget; @p faults (byte and op level; session faults are
 * ignored) are injected between the file and the detector. A file
 * that cannot be opened or whose header does not decode is an error
 * status naming @p path, never an abort.
 */
Expected<OpenedSource> tryOpenTraceSource(const std::string &path,
                                          SourceErrorPolicy policy = {},
                                          const FaultConfig &faults = {});

/**
 * Materialize the trace at @p path (format detected by magic bytes),
 * for consumers that need random access, such as replay. Strict: the
 * first malformed record is an error status naming @p path and the
 * record.
 */
Expected<Trace> tryLoadTrace(const std::string &path);

} // namespace asyncclock::trace

#endif // ASYNCCLOCK_TRACE_TRACE_IO_HH

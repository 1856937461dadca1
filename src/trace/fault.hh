/**
 * @file
 * Deterministic fault injection for the trace pipeline.
 *
 * Robustness claims are only as good as the faults they were tested
 * against, so every fault class the checking pipeline must survive is
 * injectable on demand, reproducibly from a seed:
 *
 *  - byte level (FaultyStreamBuf, wrapping any istream): truncation
 *    at a byte offset, per-byte bit flips, short reads, periodic
 *    stalls — the things a flaky filesystem or a crashed recorder
 *    produce;
 *  - operation level (FaultInjectingSource, wrapping any
 *    TraceSource): duplicated, reordered, and dropped operations —
 *    the things a buggy recorder produces, exercising the detector's
 *    protocol-violation gate;
 *  - session level (the daemon client): disconnects, duplicate
 *    creates and interleaved dialects, exercising the daemon.
 *
 * The same FaultConfig drives tests and `trace_analyzer --inject`;
 * parseFaultSpec() turns the CLI's "flip=1e-4,seed=7" syntax into a
 * config, and tryOpenTraceSource() (trace_io.hh) layers its byte and
 * op faults between a trace file and the detector. All randomness
 * flows through support/rng.hh, so a (spec, trace) pair replays
 * bit-identically on any platform.
 */

#ifndef ASYNCCLOCK_TRACE_FAULT_HH
#define ASYNCCLOCK_TRACE_FAULT_HH

#include <cstdint>
#include <streambuf>
#include <string>

#include "support/rng.hh"
#include "support/status.hh"
#include "trace/source.hh"

namespace asyncclock::trace {

/** Which faults to inject, and where. Defaults inject nothing. */
struct FaultConfig
{
    std::uint64_t seed = 1;

    // ----- byte level (FaultyStreamBuf) -----------------------------
    /** Report EOF after this many bytes (0 = off). */
    std::uint64_t truncateAfterBytes = 0;
    /** Per-byte probability of flipping one random bit. */
    double bitFlipRate = 0.0;
    /** Probability that a refill returns far fewer bytes than asked
     * (exercises resume-after-partial-read paths). */
    double shortReadRate = 0.0;
    /** Sleep stallMicros every stallEveryBytes bytes (0 = off). */
    std::uint64_t stallEveryBytes = 0;
    std::uint64_t stallMicros = 0;

    // ----- operation level (FaultInjectingSource) -------------------
    /** Probability of delivering an operation twice. */
    double dupRate = 0.0;
    /** Probability of swapping an operation with its successor. */
    double reorderRate = 0.0;
    /** Probability of dropping an operation. */
    double dropRate = 0.0;

    // ----- session level (daemon clients; see ci/daemon_soak.sh) ----
    /** Client drops the connection mid-body on this 1-based ingest
     * chunk (0 = off): the daemon must keep the session live with the
     * bytes it has and accept a retransmit from the spooled offset. */
    std::uint64_t sessDisconnectAtChunk = 0;
    /** Client re-sends the session create on this 1-based chunk
     * (0 = off): the daemon must answer 409 for a duplicate id
     * without disturbing the existing session. */
    std::uint64_t sessDupCreateAt = 0;
    /** Client switches trace dialect mid-stream on this 1-based chunk
     * (0 = off): bytes from the *other* dialect are interleaved into
     * the ingest, which must quarantine only this session. */
    std::uint64_t sessInterleaveAtChunk = 0;

    bool
    anyByteFaults() const
    {
        return truncateAfterBytes > 0 || bitFlipRate > 0 ||
               shortReadRate > 0 || stallEveryBytes > 0;
    }
    bool
    anyOpFaults() const
    {
        return dupRate > 0 || reorderRate > 0 || dropRate > 0;
    }
    bool
    anySessionFaults() const
    {
        return sessDisconnectAtChunk > 0 || sessDupCreateAt > 0 ||
               sessInterleaveAtChunk > 0;
    }
};

/**
 * Parse a fault spec: comma-separated key=value pairs.
 *   seed=N            RNG seed (default 1)
 *   truncate=N        EOF after N bytes
 *   flip=RATE         per-byte bit-flip probability
 *   shortread=RATE    short-read probability
 *   stall=US@BYTES    sleep US microseconds every BYTES bytes
 *   dup=RATE          duplicate-op probability
 *   reorder=RATE      swap-with-successor probability
 *   drop=RATE         drop-op probability
 *   sess-disconnect=N client disconnects mid-body on ingest chunk N
 *   sess-dup=N        client re-creates its session id on chunk N
 *   sess-interleave=N client mixes the other dialect in on chunk N
 */
Expected<FaultConfig> parseFaultSpec(const std::string &spec);

/** One-line-per-key usage text for parseFaultSpec (CLI help). */
const char *faultSpecHelp();

/**
 * A streambuf over an underlying istream that injects byte-level
 * faults on refill. Wrap it in an std::istream and hand that to any
 * trace reader; the reader sees truncation/corruption exactly as if
 * the file on disk were damaged.
 */
class FaultyStreamBuf : public std::streambuf
{
  public:
    FaultyStreamBuf(std::istream &under, const FaultConfig &cfg);

    /** Bytes delivered downstream so far. */
    std::uint64_t bytesDelivered() const { return pos_; }
    /** Bits flipped so far. */
    std::uint64_t bitsFlipped() const { return flips_; }

  protected:
    int_type underflow() override;
    /** tellg() support: the decoder's error offsets must point into
     * the *faulted* byte stream. Only the zero-offset current-position
     * query is answerable; real seeks fail. */
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override;

  private:
    static constexpr std::size_t kBufSize = 4096;

    std::istream &under_;
    FaultConfig cfg_;
    Rng rng_;
    std::uint64_t pos_ = 0;
    std::uint64_t flips_ = 0;
    std::uint64_t nextStallAt_ = 0;
    char buf_[kBufSize];
};

/**
 * TraceSource wrapper injecting operation-level faults: duplicates,
 * adjacent reorders, drops. Entity metadata passes through untouched
 * (meta() forwards), so the injected stream is exactly a recorder
 * that emits the right tables but mangles the op sequence — the case
 * the detector's protocol gate must absorb.
 */
class FaultInjectingSource : public TraceSource
{
  public:
    /** @p inner must outlive this source. */
    FaultInjectingSource(TraceSource &inner, const FaultConfig &cfg);

    const TraceMeta &meta() const override { return inner_.meta(); }
    bool next(Operation &op) override;
    bool ok() const override { return inner_.ok(); }
    const std::string &error() const override
    {
        return inner_.error();
    }
    Status status() const override { return inner_.status(); }
    std::uint64_t recordsSkipped() const override
    {
        return inner_.recordsSkipped();
    }
    std::uint64_t containerBytes() const override
    {
        return inner_.containerBytes();
    }

    std::uint64_t opsDuplicated() const { return dups_; }
    std::uint64_t opsReordered() const { return reorders_; }
    std::uint64_t opsDropped() const { return drops_; }

  private:
    TraceSource &inner_;
    FaultConfig cfg_;
    Rng rng_;
    Operation held_{};    ///< reorder: op displaced by its successor
    bool haveHeld_ = false;
    Operation dupOp_{};   ///< duplicate queued for redelivery
    bool haveDup_ = false;
    std::uint64_t dups_ = 0;
    std::uint64_t reorders_ = 0;
    std::uint64_t drops_ = 0;
};

} // namespace asyncclock::trace

#endif // ASYNCCLOCK_TRACE_FAULT_HH

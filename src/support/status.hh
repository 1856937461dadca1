/**
 * @file
 * Structured, recoverable error model.
 *
 * The pipeline's original failure discipline was assert-and-abort:
 * good for catching bugs in the analysis itself, fatal for a service
 * that must survive contact with corrupt traces, wedged sessions,
 * and killed runs. Status carries an error category, a human-readable
 * message, and — for decode failures — the byte/line offset of the
 * offending record, so a caller can skip, retry, degrade, or fail the
 * run *cleanly* with a summary instead of taking the process down.
 *
 * Expected<T> is the value-or-Status composition used by the
 * fallible constructors (open a trace source, load a trace).
 * Both types are cheap when ok: an ok Status is a single enum load
 * and never allocates.
 */

#ifndef ASYNCCLOCK_SUPPORT_STATUS_HH
#define ASYNCCLOCK_SUPPORT_STATUS_HH

#include <cstdint>
#include <string>
#include <utility>

#include "support/logging.hh"

namespace asyncclock {

/** Error categories, coarse enough to drive policy (retry? skip?
 * degrade?) without string matching. */
enum class ErrCode : std::uint8_t {
    Ok = 0,
    IoError,        ///< open/read/write/rename failed
    ParseError,     ///< malformed record, bad header, unknown tag
    Truncated,      ///< stream ended mid-record / missing end marker
    Corrupt,        ///< structurally valid but semantically impossible
    BudgetExceeded, ///< per-run error budget exhausted
    Stalled,        ///< watchdog: a pipeline stage stopped progressing
    Unsupported,    ///< valid request the current mode cannot honor
    Internal,       ///< invariant violation surfaced as error
};

/** Human-readable name of an ErrCode ("ok", "io-error", ...). */
const char *errCodeName(ErrCode code);

/** No offset information attached to a Status. */
constexpr std::uint64_t kNoOffset = ~0ull;

/**
 * An error category + message + optional input offset. Default
 * constructed it is ok. Statuses are value types: copy freely, return
 * by value.
 */
class Status
{
  public:
    Status() = default;

    static Status ok() { return Status(); }

    static Status
    error(ErrCode code, std::string msg,
          std::uint64_t offset = kNoOffset)
    {
        Status s;
        s.code_ = code;
        s.message_ = std::move(msg);
        s.offset_ = offset;
        return s;
    }

    bool isOk() const { return code_ == ErrCode::Ok; }
    explicit operator bool() const { return isOk(); }

    ErrCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Byte (binary) or line (text) offset of the failing record;
     * kNoOffset when not applicable. */
    std::uint64_t offset() const { return offset_; }
    bool hasOffset() const { return offset_ != kNoOffset; }

    /** "parse-error at offset 123: bad magic" (offset part elided
     * when absent); "ok" when ok. */
    std::string toString() const;

  private:
    ErrCode code_ = ErrCode::Ok;
    std::uint64_t offset_ = kNoOffset;
    std::string message_;
};

/**
 * A value or the Status explaining why there is none. Minimal by
 * design (no exceptions, no variant): exactly one of value()/status()
 * is meaningful, guarded by ok().
 */
template <typename T>
class Expected
{
  public:
    /*implicit*/ Expected(T value) : value_(std::move(value)) {}
    /*implicit*/ Expected(Status status) : status_(std::move(status))
    {
        acAssert(!status_.isOk(),
                 "Expected constructed from an ok Status");
    }

    bool ok() const { return status_.isOk(); }
    explicit operator bool() const { return ok(); }

    const Status &status() const { return status_; }

    T &
    value()
    {
        acAssert(ok(), "Expected::value() on error");
        return value_;
    }
    const T &
    value() const
    {
        acAssert(ok(), "Expected::value() on error");
        return value_;
    }

    T &&
    take()
    {
        acAssert(ok(), "Expected::take() on error");
        return std::move(value_);
    }

  private:
    T value_{};
    Status status_;
};

} // namespace asyncclock

#endif // ASYNCCLOCK_SUPPORT_STATUS_HH

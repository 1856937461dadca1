/**
 * @file
 * Tiny printf-style formatting helpers (GCC 12 lacks std::format),
 * and the strict integer parser behind command-line flags and fault
 * specs.
 */

#ifndef ASYNCCLOCK_SUPPORT_FORMAT_HH
#define ASYNCCLOCK_SUPPORT_FORMAT_HH

#include <cstdarg>
#include <cstdint>
#include <string>

namespace asyncclock {

/** printf into a std::string. */
std::string strf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Render a byte count as a human-readable string, e.g. "1.4MB". */
std::string humanBytes(std::uint64_t bytes);

/** Render a count with thousands separators, e.g. "12,345". */
std::string withCommas(std::uint64_t value);

/**
 * Parse @p text as a decimal std::uint64_t into @p out. Digits only:
 * false (and @p out untouched) for an empty string, a sign, leading
 * or trailing text, or a value above UINT64_MAX.
 */
bool parseU64(const std::string &text, std::uint64_t &out);

} // namespace asyncclock

#endif // ASYNCCLOCK_SUPPORT_FORMAT_HH

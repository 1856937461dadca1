#include "support/format.hh"

#include <cstdio>
#include <vector>

namespace asyncclock {

std::string
strf(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        // +1 for the NUL vsnprintf writes; std::string guarantees the
        // extra byte past size() since C++11.
        std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

std::string
humanBytes(std::uint64_t bytes)
{
    static const char *units[] = {"B", "KB", "MB", "GB", "TB"};
    double v = static_cast<double>(bytes);
    int u = 0;
    while (v >= 1024.0 && u < 4) {
        v /= 1024.0;
        ++u;
    }
    if (u == 0)
        return strf("%lluB", static_cast<unsigned long long>(bytes));
    return strf("%.1f%s", v, units[u]);
}

std::string
withCommas(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return std::string(out.rbegin(), out.rend());
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

} // namespace asyncclock

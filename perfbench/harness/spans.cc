#include "harness/spans.hh"

#include <cinttypes>
#include <cstdio>

namespace asyncclock::perfbench {

std::int32_t
SpanLog::add(const char *name, std::int32_t parent, std::uint64_t startNs,
             std::uint64_t durNs, std::uint64_t calls)
{
    spans_.push_back({name, parent, startNs, durNs, calls});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanLog::setDuration(std::int32_t id, std::uint64_t durNs)
{
    spans_[static_cast<std::size_t>(id)].durNs = durNs;
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] += static_cast<double>(spans_[i].durNs);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.durNs);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i] / 1e9;
    return out;
}

void
SpanLog::writeJsonl(std::ostream &out, unsigned iteration) const
{
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(line, sizeof line,
                      "{\"iter\":%u,\"id\":%zu,\"parent\":%d,"
                      "\"name\":\"%s\",\"start_ns\":%" PRIu64
                      ",\"dur_ns\":%" PRIu64 ",\"calls\":%" PRIu64 "}\n",
                      iteration, i, static_cast<int>(s.parent), s.name,
                      s.startNs, s.durNs, s.calls);
        out << line;
    }
}

} // namespace asyncclock::perfbench

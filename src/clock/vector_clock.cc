#include "clock/vector_clock.hh"

#include <algorithm>
#include <vector>

#include "support/format.hh"

namespace asyncclock::clock {

std::string
VectorClock::toString() const
{
    std::vector<std::pair<ChainId, Tick>> entries;
    forEach([&](ChainId c, const Tick &t) {
        entries.emplace_back(c, t);
    });
    std::sort(entries.begin(), entries.end());
    std::string out = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i)
            out += ", ";
        out += strf("%u:%u", entries[i].first, entries[i].second);
    }
    out += "}";
    return out;
}

} // namespace asyncclock::clock

#include "obs/trace_events.hh"

#include <fstream>

#include "support/json.hh"
#include "support/logging.hh"

namespace asyncclock::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now())
{
    registerTrack("main");
}

int
Tracer::registerTrack(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    int tid = nextTid_++;
    Event meta;
    meta.name = "thread_name";
    meta.ph = 'M';
    meta.tid = tid;
    JsonWriter args;
    args.beginObject().field("name", name).endObject();
    meta.args = args.str();
    events_.push_back(std::move(meta));
    return tid;
}

std::uint64_t
Tracer::nowUs() const
{
    return usAt(std::chrono::steady_clock::now());
}

std::uint64_t
Tracer::usAt(std::chrono::steady_clock::time_point t) const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
            .count());
}

void
Tracer::span(int tid, std::string name, std::uint64_t startUs,
             std::uint64_t endUs, std::string args)
{
    Event ev;
    ev.name = std::move(name);
    ev.ph = 'X';
    ev.ts = startUs;
    ev.dur = endUs > startUs ? endUs - startUs : 0;
    ev.tid = tid;
    ev.args = std::move(args);
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(ev));
}

std::string
Tracer::toJson() const
{
    std::vector<Event> evs = events();
    JsonWriter w;
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    for (const Event &ev : evs) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("ph", std::string(1, ev.ph));
        w.field("pid", std::uint64_t(1));
        w.field("tid", static_cast<std::uint64_t>(ev.tid));
        w.field("ts", ev.ts);
        if (ev.ph == 'X')
            w.field("dur", ev.dur);
        if (!ev.args.empty())
            w.key("args").raw(ev.args);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
Tracer::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open " + path + " for writing");
    out << toJson();
    if (!out)
        fatal("write to " + path + " failed");
}

std::vector<Tracer::Event>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

} // namespace asyncclock::obs

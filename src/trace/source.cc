#include "trace/source.hh"

namespace asyncclock::trace {

TraceMeta
TraceMeta::fromTrace(const Trace &tr)
{
    TraceMeta meta;
    meta.dialect_ = tr.dialect();
    meta.threads_ = tr.threads();
    meta.queues_ = tr.queues();
    meta.vars_ = tr.vars();
    meta.handles_ = tr.handles();
    meta.sites_ = tr.sites();
    meta.events_.reserve(tr.events().size());
    for (const EventInfo &ev : tr.events())
        meta.events_.push_back({ev.queue, ev.attrs});
    return meta;
}

std::uint64_t
TraceMeta::byteSize() const
{
    std::uint64_t total =
        threads_.capacity() * sizeof(ThreadInfo) +
        queues_.capacity() * sizeof(QueueInfo) +
        events_.capacity() * sizeof(MetaEvent) +
        vars_.capacity() * sizeof(VarInfo) +
        handles_.capacity() * sizeof(HandleInfo) +
        sites_.capacity() * sizeof(SiteInfo);
    for (const auto &t : threads_)
        total += t.name.capacity();
    for (const auto &q : queues_)
        total += q.name.capacity();
    for (const auto &v : vars_)
        total += v.name.capacity();
    for (const auto &h : handles_)
        total += h.name.capacity();
    for (const auto &s : sites_)
        total += s.name.capacity();
    return total;
}

void
replayEntities(const Trace &tr, EntitySink &sink)
{
    for (const QueueInfo &q : tr.queues())
        sink.declQueue(q.kind, q.name);
    for (const ThreadInfo &t : tr.threads())
        sink.declThread(t.kind, t.name, t.queue);
    for (std::size_t q = 0; q < tr.queues().size(); ++q) {
        if (tr.queues()[q].looper != kInvalidId) {
            sink.bindLooper(static_cast<QueueId>(q),
                            tr.queues()[q].looper);
        }
    }
    for (std::size_t i = 0; i < tr.events().size(); ++i)
        sink.declEvent();
    for (const VarInfo &v : tr.vars())
        sink.declVar(v.name, v.seedLabel);
    for (const HandleInfo &h : tr.handles())
        sink.declHandle(h.name);
    for (const SiteInfo &s : tr.sites())
        sink.declSite(s.name, s.frame, s.commGroup);
}

const std::string &
TraceSource::error() const
{
    static const std::string empty;
    return empty;
}

} // namespace asyncclock::trace

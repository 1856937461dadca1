#include "harness/workloads.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "support/logging.hh"
#include "trace/trace_io.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

namespace asyncclock::perfbench {

namespace {

/** Generator seeds per trace and bench seed; the first acceptable one
 * is used. */
constexpr std::uint64_t kSeedBlock = 16;
/** Trace slots per bench seed (daemon_evict uses 1..6). */
constexpr std::uint64_t kSlots = 8;
/** Harmful pairs must lie this close in virtual time: well inside the
 * detector's default 120 s window. */
constexpr std::uint64_t kDetectableSpanMs = 100000;

workload::AppProfile
k9mailProfile(const InputSpec &s)
{
    workload::AppProfile p = workload::profileByName("K9Mail", s.scale);
    p.seed += s.seedShift;
    return p;
}

workload::AsyncProfile
fanoutProfile(const InputSpec &s)
{
    workload::AsyncProfile p = workload::asyncProfileByName("AsyncFanOut");
    p.rootTasks = s.rootTasks;
    p.seed += s.seedShift;
    return p;
}

/** @p s with the first seed of its block (trace slot @p slot) whose
 * harmful races are all detectable. */
InputSpec
resolve(InputSpec s, std::uint64_t benchSeed, std::uint64_t slot)
{
    const std::uint64_t first =
        ((benchSeed - kDefaultSeed) * kSlots + slot) * kSeedBlock;
    for (std::uint64_t k = 0; k < kSeedBlock; ++k) {
        s.seedShift = first + k;
        // AsyncFanOut has no time window: every seed qualifies.
        if (!s.looper ||
            harmfulSpanMs(workload::generateApp(k9mailProfile(s)).trace) <=
                kDetectableSpanMs)
            return s;
    }
    fatal("perfbench: no generator seed in block of " + s.id +
          " plants only detectable harmful races");
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::LooperK9mail, Workload::AsyncFanout,
                       Workload::DaemonEvict}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::LooperK9mail: return "looper_k9mail";
    case Workload::AsyncFanout: return "async_fanout";
    case Workload::DaemonEvict: return "daemon_evict";
    }
    return "unknown";
}

std::vector<InputSpec>
planInputs(Workload w, std::uint64_t seed)
{
    switch (w) {
    case Workload::LooperK9mail:
        return {resolve({"k9mail", true, 0.3, 0, 0}, seed, 0)};
    case Workload::AsyncFanout:
        return {resolve({"fanout", false, 0, 3600, 0}, seed, 0)};
    case Workload::DaemonEvict: {
        std::vector<InputSpec> out;
        for (unsigned i = 0; i < 6; ++i) {
            const std::string id = "s" + std::to_string(i);
            out.push_back(resolve(i % 2 == 0
                                      ? InputSpec{id + "-k9mail", true, 0.1,
                                                  0, 0}
                                      : InputSpec{id + "-fanout", false, 0,
                                                  600, 0},
                                  seed, i + 1));
        }
        return out;
    }
    }
    return {};
}

std::vector<TraceInput>
makeInputs(const std::vector<InputSpec> &specs)
{
    std::vector<TraceInput> out;
    for (const InputSpec &s : specs) {
        if (s.looper) {
            workload::GeneratedApp app =
                workload::generateApp(k9mailProfile(s));
            out.push_back({s.id, trace::writeBinaryTraceToString(app.trace),
                           app.trace.numOps(), app.truth.harmful});
        } else {
            workload::GeneratedAsyncApp app =
                workload::generateAsyncApp(fanoutProfile(s));
            out.push_back({s.id, trace::writeBinaryTraceToString(app.trace),
                           app.trace.numOps(), app.truth.harmful});
        }
    }
    return out;
}

std::uint64_t
harmfulSpanMs(const trace::Trace &t)
{
    std::map<trace::VarId, std::pair<std::uint64_t, std::uint64_t>> span;
    for (const trace::Operation &op : t.ops()) {
        if (op.kind != trace::OpKind::Read &&
            op.kind != trace::OpKind::Write)
            continue;
        if (t.var(op.target).seedLabel != trace::SeedLabel::Harmful)
            continue;
        auto [it, fresh] = span.try_emplace(op.target, op.vtime, op.vtime);
        if (!fresh) {
            it->second.first = std::min(it->second.first, op.vtime);
            it->second.second = std::max(it->second.second, op.vtime);
        }
    }
    std::uint64_t widest = 0;
    for (const auto &[var, range] : span)
        widest = std::max(widest, range.second - range.first);
    return widest;
}

} // namespace asyncclock::perfbench

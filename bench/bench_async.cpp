/**
 * @file
 * Async-model benchmark: DetectorEngine throughput over the
 * coroutine task-graph workloads, per async profile.
 *
 * For each profile (AsyncTree, AsyncPipeline, AsyncFanOut) the
 * harness generates the task-graph trace at the requested scale and
 * runs the AsyncTaskModel end to end, reporting ops/sec, peak
 * detector metadata, task/cancellation counts, and the race count —
 * which must equal the profile's seeded-race count, so the bench
 * doubles as a recall smoke check on sizes the unit tests don't
 * reach.
 *
 * Usage: bench_async [--scale=1.0] [--json-out=PATH]
 *                    [--metrics-out=PATH]
 *
 * --json-out writes a machine-readable summary (CI archives it as
 * BENCH_async.json). --metrics-out attaches a fresh metrics registry
 * to every profile run (the engine's detector.* and model.* series
 * plus the generator's taskgraph.* series) and writes the combined
 * snapshots as one JSON document keyed by profile.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/engine.hh"
#include "obs/metrics.hh"
#include "support/format.hh"
#include "support/json.hh"
#include "workload/async_workload.hh"

using namespace asyncclock;
using namespace asyncclock::bench;

namespace {

struct ProfileResult
{
    std::string name;
    std::uint64_t ops = 0;
    std::uint64_t tasks = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t seeded = 0;
    std::uint64_t raceGroups = 0;
    double opsPerSec = 0;
    std::uint64_t peakBytes = 0;
    std::string metricsJson;  ///< only with --metrics-out
};

ProfileResult
runProfile(const workload::AsyncProfile &p, double scale,
           bool withMetrics)
{
    workload::AsyncProfile prof = p;
    prof.rootTasks = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(prof.rootTasks * scale + 0.5));
    // One registry per profile run so the series don't mix. It must
    // outlive the engine snapshot below.
    obs::MetricsRegistry registry;
    obs::ObsContext octx;
    if (withMetrics) {
        octx.metrics = &registry;
        prof.obs = octx;
    }
    workload::GeneratedAsyncApp app = workload::generateAsyncApp(prof);

    report::FastTrackChecker checker;
    core::DetectorEngine eng(core::ModelKind::Async, app.trace,
                             checker, {});
    eng.attachObs(octx);
    MemStats mem;
    auto start = std::chrono::steady_clock::now();
    eng.runAll(&mem, 4096);
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();

    ProfileResult r;
    r.name = prof.name;
    r.ops = app.trace.numOps();
    r.tasks = app.trace.events().size();
    r.cancelled = app.cancelledTasks;
    r.opsPerSec = sec > 0 ? static_cast<double>(r.ops) / sec : 0;
    r.peakBytes = mem.peakTotal();
    for (trace::VarId v = 0; v < app.trace.vars().size(); ++v)
        if (app.trace.var(v).seedLabel == trace::SeedLabel::Harmful)
            ++r.seeded;
    std::set<trace::VarId> racyVars;
    for (const report::RaceReport &race : checker.races())
        racyVars.insert(race.var);
    r.raceGroups = racyVars.size();
    // Snapshot while the engine (the callback metrics' producer) is
    // still alive.
    if (withMetrics)
        r.metricsJson = registry.snapshot().toJson();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = argDouble(argc, argv, "scale", 1.0);
    std::string jsonOut = argString(argc, argv, "json-out", "");
    std::string metricsOut = argString(argc, argv, "metrics-out", "");
    bool withMetrics = !metricsOut.empty();

    std::printf("Async task-graph model (scale %.2f)\n\n", scale);
    std::printf("%13s | %8s %7s %9s %12s %10s %7s %7s\n", "profile",
                "ops", "tasks", "cancelled", "ops/sec", "peak",
                "seeded", "racy");

    std::vector<ProfileResult> results;
    bool ok = true;
    for (const workload::AsyncProfile &p : workload::asyncProfiles()) {
        ProfileResult r = runProfile(p, scale, withMetrics);
        std::printf("%13s | %8llu %7llu %9llu %12.0f %10s %7llu "
                    "%7llu\n",
                    r.name.c_str(), (unsigned long long)r.ops,
                    (unsigned long long)r.tasks,
                    (unsigned long long)r.cancelled, r.opsPerSec,
                    humanBytes(r.peakBytes).c_str(),
                    (unsigned long long)r.seeded,
                    (unsigned long long)r.raceGroups);
        if (r.raceGroups != r.seeded) {
            std::fprintf(stderr,
                         "FAIL: %s reported %llu racy var(s), seeded "
                         "%llu\n",
                         r.name.c_str(),
                         (unsigned long long)r.raceGroups,
                         (unsigned long long)r.seeded);
            ok = false;
        }
        results.push_back(r);
    }
    if (!ok)
        return 1;
    std::printf("\nracy-variable counts match the seeded races on "
                "every profile\n");

    if (!jsonOut.empty()) {
        FILE *f = std::fopen(jsonOut.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", jsonOut.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"scale\": %.3f,\n  \"profiles\": {\n",
                     scale);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ProfileResult &r = results[i];
            std::fprintf(
                f,
                "    \"%s\": {\"ops\": %llu, \"tasks\": %llu, "
                "\"cancelled\": %llu, \"ops_per_sec\": %.0f, "
                "\"peak_bytes\": %llu, \"seeded_races\": %llu, "
                "\"racy_vars\": %llu}%s\n",
                r.name.c_str(), (unsigned long long)r.ops,
                (unsigned long long)r.tasks,
                (unsigned long long)r.cancelled, r.opsPerSec,
                (unsigned long long)r.peakBytes,
                (unsigned long long)r.seeded,
                (unsigned long long)r.raceGroups,
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  }\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", jsonOut.c_str());
    }

    if (withMetrics) {
        // One document, one complete metrics snapshot per profile.
        JsonWriter w;
        w.beginObject();
        w.field("scale", scale);
        w.key("runs").beginObject();
        for (const ProfileResult &r : results)
            w.key(r.name).raw(r.metricsJson);
        w.endObject();
        w.endObject();
        std::FILE *f = std::fopen(metricsOut.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         metricsOut.c_str());
            return 1;
        }
        std::string doc = w.str();
        doc += "\n";
        if (std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
            std::fclose(f) != 0) {
            std::fprintf(stderr, "short write to %s\n",
                         metricsOut.c_str());
            return 1;
        }
        std::printf("wrote per-run metrics to %s\n",
                    metricsOut.c_str());
    }
    return 0;
}

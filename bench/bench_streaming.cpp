/**
 * @file
 * Streaming-pipeline benchmark: detector throughput and trace-container
 * footprint across the three TraceSource kinds.
 *
 * For each selected Table 2 app the harness encodes the generated
 * trace once and then runs AsyncClock three ways — materialized,
 * streaming text and streaming binary — reporting ops/sec, the peak
 * bytes held by the trace container itself (the op vector for the
 * materialized source, fixed decoder state for the streaming ones),
 * and the race count as a cross-check.
 *
 * Shape to check: the streaming sources' container footprint is O(1)
 * in the op count (a few hundred bytes vs megabytes materialized) at a
 * modest throughput cost, the binary decoder outpaces the text parser,
 * and every mode reports the identical number of races.
 *
 * With --metrics-out=PATH every mode run additionally attaches a
 * MetricsRegistry (detector counters, per-category memory) and the
 * harness writes one JSON document with the per-run
 * snapshots. The default run attaches nothing — the observability
 * hooks must stay invisible in the numbers this bench exists to
 * measure.
 *
 * Usage: bench_streaming [--scale=0.05] [--metrics-out=PATH]
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/obs.hh"
#include "report/fasttrack.hh"
#include "support/format.hh"
#include "support/json.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

using namespace asyncclock;
using namespace asyncclock::bench;

namespace {

struct ModeResult
{
    double opsPerSec = 0;
    std::uint64_t peakContainer = 0;
    std::size_t races = 0;
    std::string metricsJson;  ///< only with --metrics-out
};

/** One timed AsyncClock pass over @p src. Polls the source's
 * container footprint as it runs. @p withMetrics attaches a registry
 * and snapshots it into the result (adds measurable work — off for
 * the headline numbers). */
ModeResult
runMode(trace::TraceSource &src, bool withMetrics)
{
    obs::MetricsRegistry registry;
    obs::ObsContext octx;
    if (withMetrics)
        octx.metrics = &registry;
    report::FastTrackChecker checker;
    core::AsyncClockDetector det(src, checker);
    det.attachObs(octx);
    ModeResult out;
    std::uint64_t n = 0;
    auto start = std::chrono::steady_clock::now();
    while (det.processNext()) {
        if ((++n & 255) == 0)
            out.peakContainer =
                std::max(out.peakContainer, src.containerBytes());
    }
    out.races = checker.races().size();
    out.opsPerSec =
        double(n) / std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    out.peakContainer =
        std::max(out.peakContainer, src.containerBytes());
    if (!src.ok())
        fatal("source failed: " + src.error());
    // Snapshot while the detector and checker (the callback metrics'
    // producers) are still alive.
    if (withMetrics)
        out.metricsJson = registry.snapshot().toJson();
    return out;
}

void
printRow(const char *mode, const ModeResult &r)
{
    std::printf("  %-24s %10.0f ops/s   container %10s   races %zu\n",
                mode, r.opsPerSec,
                humanBytes(r.peakContainer).c_str(), r.races);
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = argDouble(argc, argv, "scale", 0.05);
    std::string metricsOut =
        argString(argc, argv, "metrics-out", "");
    bool withMetrics = !metricsOut.empty();
    const char *apps[] = {"AnyMemo", "Firefox", "VLCPlayer"};

    // (app, mode, per-run metrics snapshot JSON)
    std::vector<std::pair<std::string, std::string>> snapshots;
    auto record = [&](const std::string &app, const char *mode,
                      const ModeResult &r) {
        printRow(mode, r);
        if (withMetrics)
            snapshots.emplace_back(app + "/" + mode, r.metricsJson);
    };

    for (const char *name : apps) {
        workload::AppProfile profile =
            workload::profileByName(name, scale);
        workload::GeneratedApp app = workload::generateApp(profile);
        std::string text = trace::writeTraceToString(app.trace);
        std::string bin = trace::writeBinaryTraceToString(app.trace);
        std::printf("== %s: %u ops (text %s, binary %s) ==\n", name,
                    app.trace.numOps(),
                    humanBytes(text.size()).c_str(),
                    humanBytes(bin.size()).c_str());

        {
            trace::MaterializedSource src(app.trace);
            record(name, "materialized", runMode(src, withMetrics));
        }
        {
            std::istringstream in(text);
            trace::StreamingTextSource src(in);
            record(name, "streaming-text", runMode(src, withMetrics));
        }
        {
            std::istringstream in(bin);
            trace::StreamingBinarySource src(in);
            record(name, "streaming-binary",
                   runMode(src, withMetrics));
        }
        std::printf("\n");
    }

    if (withMetrics) {
        JsonWriter w;
        w.beginObject();
        w.field("schema",
                std::string("asyncclock-bench-streaming-v1"));
        w.key("runs").beginObject();
        for (const auto &[run, json] : snapshots)
            w.key(run).raw(json);
        w.endObject().endObject();
        std::FILE *f = std::fopen(metricsOut.c_str(), "wb");
        if (!f)
            fatal("cannot open " + metricsOut + " for writing");
        if (std::fwrite(w.str().data(), 1, w.str().size(), f) !=
                w.str().size() ||
            std::fclose(f) != 0)
            fatal("short write to " + metricsOut);
        std::printf("wrote per-run metrics to %s\n",
                    metricsOut.c_str());
    }
    return 0;
}

/**
 * @file
 * End-to-end command-line tool mirroring the paper's workflow:
 * record a trace (here: synthesize one from a Table 2 app profile, or
 * load one from a file), then analyze it offline with AsyncClock or
 * the EventRacer-style baseline and print the race report and
 * resource usage.
 *
 * Usage:
 *   trace_analyzer gen <AppName> <out.trace> [scale] [--binary]
 *   trace_analyzer analyze <in.trace> [--detector=asyncclock|eventracer]
 *                  [--model=looper|async]
 *                  [--window-ms=N] [--chains=fifo|greedy]
 *                  [--no-reclaim] [--all-races]
 *                  [--progress[=N]] [--trace-out=PATH]
 *                  [--metrics-out=PATH]
 *
 * gen accepts the Table 2 looper app names (workload/workload.hh) and
 * the async task-graph profiles (AsyncTree, AsyncPipeline,
 * AsyncFanOut; workload/async_workload.hh), which produce
 * async-dialect traces.
 *
 * analyze auto-detects text vs binary traces by magic, and picks its
 * causality model from the trace's dialect tag; --model is an
 * assertion (a mismatch is an error), not an override — running the
 * looper rules over a task graph would be meaningless. The detector
 * always streams the trace from the file without materializing the
 * op vector (O(1) trace memory); --verify and --predict reload the
 * file for replay.
 *
 * Observability (all off by default, near-zero cost when off):
 * --progress prints a heartbeat line to stderr every N ops (default
 * 100000); --trace-out writes a Chrome trace-event JSON file of the
 * run's phases (load in Perfetto / chrome://tracing); --metrics-out
 * writes the end-of-run metrics snapshot as JSON; --serve=PORT
 * scrapes the live run over HTTP (/metrics in Prometheus text
 * format, /metrics.json, /healthz, /progress); --events-out writes a
 * structured JSONL log of run lifecycle events (degradation-ladder
 * rungs, decode skips);
 * --phase-timing attributes per-op cost to decode / model-apply /
 * clock-join / race-check / GC-sweep phases.
 *
 * Example:
 *   ./build/examples/trace_analyzer gen Firefox /tmp/firefox.trace 0.02
 *   ./build/examples/trace_analyzer analyze /tmp/firefox.trace
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/engine.hh"
#include "daemon/daemon.hh"
#include "graph/eventracer.hh"
#include "obs/event_log.hh"
#include "obs/obs.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"
#include "predict/predict.hh"
#include "report/export.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "support/format.hh"
#include "support/signal.hh"
#include "trace/fault.hh"
#include "trace/trace_io.hh"
#include "verify/verifier.hh"
#include "workload/async_workload.hh"
#include "workload/workload.hh"

using namespace asyncclock;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  trace_analyzer gen <AppName> <out.trace> [scale] [--binary]\n"
        "  trace_analyzer analyze <in.trace> [options]\n"
        "  trace_analyzer daemon [daemon options]\n"
        "  trace_analyzer feed <in.trace> --port=P --session=ID\n"
        "                   [feed options]\n"
        "gen: AppName is a Table 2 looper profile (e.g. Firefox) or an\n"
        "  async task-graph profile (AsyncTree|AsyncPipeline|\n"
        "  AsyncFanOut); async profiles write async-dialect traces\n"
        "options:\n"
        "  --detector=asyncclock|eventracer   (default asyncclock)\n"
        "  --model=looper|async  causality model; inferred from the\n"
        "                   trace's dialect tag, so this flag only\n"
        "                   asserts the expectation (mismatch = error)\n"
        "  --window-ms=N    looper time window, 0 = off (default\n"
        "                   120000); async traces have no window\n"
        "  --chains=fifo|greedy               (default fifo)\n"
        "  --no-reclaim     disable heirless-event reclamation\n"
        "  --all-races      disable the user-induced and\n"
        "                   commutativity filters\n"
        "  --json           print the report as JSON\n"
        "  --verify[=N]     replay-verify candidate races (at most N\n"
        "                   classes; default all): flip each class\n"
        "                   representative's order and diff the state\n"
        "  --verify-max-ops=N  skip verification above N trace ops\n"
        "                   (the closure is quadratic; default 50000)\n"
        "  --predict[=N]    infer races the observed schedule hid:\n"
        "                   re-run the clocks under the weakened\n"
        "                   (schedule-independent) ordering, then\n"
        "                   replay-verify every candidate before it\n"
        "                   reaches the report (at most N classes;\n"
        "                   default all); implies --verify\n"
        "  --predict-window=N  per-variable candidate window (default\n"
        "                   64, 0 = unbounded); evictions counted\n"
        "  --predict-max-candidates=N  global candidate cap (default\n"
        "                   256, 0 = unbounded); drops counted\n"
        "  --progress[=N]   heartbeat line on stderr every N ops\n"
        "                   (default 100000)\n"
        "  --trace-out=PATH write Chrome trace-event JSON (Perfetto)\n"
        "  --metrics-out=PATH write end-of-run metrics JSON\n"
        "  --serve=PORT     serve live telemetry on 127.0.0.1:PORT\n"
        "                   (0 = kernel-assigned): /metrics is\n"
        "                   Prometheus text format, plus\n"
        "                   /metrics.json /healthz /progress\n"
        "  --serve-linger-ms=N  keep the telemetry server up N ms\n"
        "                   after the run finishes (default 0)\n"
        "  --events-out=PATH  write structured lifecycle events\n"
        "                   (pressure rungs, decode skips) as JSON\n"
        "                   lines\n"
        "  --phase-timing   attribute per-op cost to decode /\n"
        "                   model-apply / clock-join / race-check /\n"
        "                   gc-sweep phases (table at end of run;\n"
        "                   histograms when metrics are on)\n"
        "robustness:\n"
        "  --max-record-errors=N  skip up to N corrupt records before\n"
        "                   failing (default 0: first error fails)\n"
        "  --mem-budget=N[K|M|G]  degradation ladder budget for\n"
        "                   detector metadata (default: uncapped)\n"
        "  --report-out=PATH      also write the race report to PATH\n"
        "  --inject=SPEC    deterministic fault injection;\n"
        "                   SPEC is comma-separated key=value:\n"
        "%s"
        "daemon options (always-on multi-session analysis service):\n"
        "  --port=N         listen on 127.0.0.1:N (default 0 =\n"
        "                   kernel-assigned; printed at startup)\n"
        "  --state-dir=PATH session spools/meta/reports\n"
        "                   (default ./asyncclockd-state)\n"
        "  --workers=N      analysis worker threads (default 2)\n"
        "  --http-threads=N HTTP handler threads (default 4)\n"
        "  --max-sessions=N admission cap (default 64)\n"
        "  --mem-budget=N[K|M|G]  global resident-state budget; the\n"
        "                   LRU ladder evicts cold sessions (rebuilt\n"
        "                   from their spools) to stay under it\n"
        "                   (default: uncapped)\n"
        "  --idle-timeout-ms=N  evict sessions idle this long\n"
        "                   (default 0 = never)\n"
        "  --watchdog-ms=N  poison a session whose pump slice stalls\n"
        "                   this long (default 30000, 0 = off)\n"
        "  --queue-chunks=N per-session ingest queue depth (default 8)\n"
        "  --admission-timeout-ms=N  ingest wait before 429\n"
        "                   (default 250)\n"
        "  --window-ms=N --all-races --events-out=PATH\n"
        "                   as for analyze (the window applies to\n"
        "                   looper sessions only)\n"
        "feed options (daemon client; drives one session):\n"
        "  --port=P --session=ID  daemon endpoint + session id\n"
        "  --chunk-bytes=N  ingest chunk size (default 65536)\n"
        "  --report-out=PATH  write the fetched report here\n"
        "  --no-finish      leave the session unfinished (drain tests)\n"
        "  --interleave-file=PATH  bytes for sess-interleave faults\n"
        "  --inject=SPEC    session-level faults (sess-disconnect=N,\n"
        "                   sess-dup=N, sess-interleave=N)\n",
        trace::faultSpecHelp());
    return 2;
}

/** Report @p arg ("--flag=VALUE") as a usage error; always false. */
bool
badValue(const char *cmd, const std::string &arg)
{
    std::size_t eq = arg.find('=');
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", cmd,
                 arg.c_str() + eq + 1, arg.substr(0, eq).c_str());
    return false;
}

/**
 * Parse the VALUE of @p arg ("--flag=VALUE") into @p out: decimal
 * digits only, no larger than @p max. A bad value is a usage error
 * (printed; false), never a silent default.
 */
template <typename T>
bool
numberFlag(const char *cmd, const std::string &arg, T &out,
           std::uint64_t max = std::numeric_limits<T>::max())
{
    std::uint64_t v = 0;
    if (!parseU64(arg.substr(arg.find('=') + 1), v) || v > max)
        return badValue(cmd, arg);
    out = static_cast<T>(v);
    return true;
}

/** Parse a byte count: digits plus at most one K/M/G suffix. */
bool
parseBytes(std::string text, std::uint64_t &out)
{
    unsigned shift = 0;
    switch (text.empty() ? '\0' : text.back()) {
      case 'K': case 'k': shift = 10; break;
      case 'M': case 'm': shift = 20; break;
      case 'G': case 'g': shift = 30; break;
    }
    if (shift > 0)
        text.pop_back();
    std::uint64_t v = 0;
    if (!parseU64(text, v) || v > (UINT64_MAX >> shift))
        return false;
    out = v << shift;
    return true;
}

/** numberFlag() for a parseBytes() value. */
bool
bytesFlag(const char *cmd, const std::string &arg, std::uint64_t &out)
{
    return parseBytes(arg.substr(arg.find('=') + 1), out) ||
           badValue(cmd, arg);
}

/** Write @p data to @p path, fatal() on failure. */
void
writeTextFile(const std::string &path, const std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open " + path + " for writing");
    if (std::fwrite(data.data(), 1, data.size(), f) != data.size() ||
        std::fclose(f) != 0)
        fatal("short write to " + path);
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    bool binary = false;
    double scale = 0.05;
    bool haveScale = false;
    for (int i = 4; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--binary") {
            binary = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "gen: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            char *end = nullptr;
            scale = std::strtod(arg.c_str(), &end);
            if (end == arg.c_str() || *end != '\0' || scale <= 0) {
                std::fprintf(stderr, "gen: bad scale '%s'\n",
                             arg.c_str());
                return usage();
            }
            haveScale = true;
        }
    }
    for (const workload::AsyncProfile &ap :
         workload::asyncProfiles()) {
        if (ap.name != argv[2])
            continue;
        workload::AsyncProfile prof = ap;
        // Async profiles are sized in root tasks: scale multiplies
        // the profile's default (1.0 = as-published), unlike the
        // looper path's absolute event-count scale.
        double s = haveScale ? scale : 1.0;
        prof.rootTasks = std::max(
            1u,
            static_cast<std::uint32_t>(prof.rootTasks * s + 0.5));
        std::printf("generating %s (async dialect, %u root task(s), "
                    "%u executor(s))...\n",
                    prof.name.c_str(), prof.rootTasks,
                    prof.executors);
        workload::GeneratedAsyncApp app =
            workload::generateAsyncApp(prof);
        std::string problem = app.trace.validate(true);
        if (!problem.empty())
            fatal("generated trace invalid: " + problem);
        if (binary)
            trace::saveBinaryTraceFile(app.trace, argv[3]);
        else
            trace::saveTraceFile(app.trace, argv[3]);
        std::printf("wrote %s (%s): %s\n", argv[3],
                    binary ? "binary" : "text",
                    app.trace.stats().summary().c_str());
        return 0;
    }
    // Seeded predictive-tier shapes (DESIGN.md section 16): fixed
    // patterns, so they ignore the scale argument.
    struct NamedPattern
    {
        const char *name;
        trace::Trace (*make)();
    };
    static const NamedPattern kPredictPatterns[] = {
        {"PredictLockShadow", workload::lockShadowedPattern},
        {"PredictQueueSiblings", workload::queueSiblingsPattern},
        {"PredictFifoForced", workload::fifoForcedPattern},
    };
    for (const NamedPattern &pat : kPredictPatterns) {
        if (std::string(pat.name) != argv[2])
            continue;
        std::printf("generating %s (predictive-tier pattern)...\n",
                    pat.name);
        trace::Trace ptr_ = pat.make();
        std::string problem = ptr_.validate(true);
        if (!problem.empty())
            fatal("generated trace invalid: " + problem);
        if (binary)
            trace::saveBinaryTraceFile(ptr_, argv[3]);
        else
            trace::saveTraceFile(ptr_, argv[3]);
        std::printf("wrote %s (%s): %s\n", argv[3],
                    binary ? "binary" : "text",
                    ptr_.stats().summary().c_str());
        return 0;
    }
    workload::AppProfile profile =
        workload::profileByName(argv[2], scale);
    std::printf("generating %s at scale %.3f (~%u looper events)...\n",
                profile.name.c_str(), scale, profile.looperEvents);
    workload::GeneratedApp app = workload::generateApp(profile);
    std::string problem = app.trace.validate(true);
    if (!problem.empty())
        fatal("generated trace invalid: " + problem);
    if (binary)
        trace::saveBinaryTraceFile(app.trace, argv[3]);
    else
        trace::saveTraceFile(app.trace, argv[3]);
    std::printf("wrote %s (%s): %s\n", argv[3],
                binary ? "binary" : "text",
                app.trace.stats().summary().c_str());
    return 0;
}

int
cmdAnalyze(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string detectorName = "asyncclock";
    std::string modelArg;
    core::DetectorConfig cfg;
    report::FilterConfig filters;
    bool json = false;
    bool verify = false;
    std::uint32_t verifyMaxClasses = 0;
    std::uint32_t verifyMaxOps = 50000;
    bool predict = false;
    std::uint32_t predictMaxClasses = 0;
    std::uint32_t predictWindow = 64;
    std::uint32_t predictMaxCandidates = 256;
    std::uint64_t progressEvery = 0;
    int servePort = -1;  // -1 = off; 0 = kernel-assigned
    std::uint64_t serveLingerMs = 0;
    std::string traceOut;
    std::string metricsOut;
    std::string eventsOut;
    std::string reportOut;
    std::string injectSpec;
    trace::SourceErrorPolicy policy;
    constexpr const char *kCmd = "analyze";
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--detector=", 0) == 0) {
            detectorName = arg.substr(11);
        } else if (arg.rfind("--model=", 0) == 0) {
            modelArg = arg.substr(8);
            core::ModelKind ignored;
            if (!core::parseModelName(modelArg, ignored)) {
                std::fprintf(stderr,
                             "--model: unknown model '%s' (want "
                             "looper|async)\n",
                             modelArg.c_str());
                return 2;
            }
        } else if (arg.rfind("--window-ms=", 0) == 0) {
            ok = numberFlag(kCmd, arg, cfg.windowMs);
        } else if (arg == "--chains=greedy") {
            cfg.chainMode = core::ChainMode::Greedy;
        } else if (arg == "--chains=fifo") {
            cfg.chainMode = core::ChainMode::Fifo;
        } else if (arg == "--no-reclaim") {
            cfg.reclaimHeirless = false;
            cfg.multiPathReduction = false;
        } else if (arg == "--all-races") {
            filters.userInducedOnly = false;
            filters.commutativityFilter = false;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg.rfind("--verify=", 0) == 0) {
            verify = true;
            ok = numberFlag(kCmd, arg, verifyMaxClasses);
        } else if (arg.rfind("--verify-max-ops=", 0) == 0) {
            ok = numberFlag(kCmd, arg, verifyMaxOps);
        } else if (arg == "--predict") {
            predict = true;
        } else if (arg.rfind("--predict=", 0) == 0) {
            predict = true;
            ok = numberFlag(kCmd, arg, predictMaxClasses);
        } else if (arg.rfind("--predict-window=", 0) == 0) {
            ok = numberFlag(kCmd, arg, predictWindow);
        } else if (arg.rfind("--predict-max-candidates=", 0) == 0) {
            ok = numberFlag(kCmd, arg, predictMaxCandidates);
        } else if (arg == "--progress") {
            progressEvery = 100000;
        } else if (arg.rfind("--progress=", 0) == 0) {
            ok = numberFlag(kCmd, arg, progressEvery);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            metricsOut = arg.substr(14);
        } else if (arg.rfind("--serve=", 0) == 0) {
            ok = numberFlag(kCmd, arg, servePort, 65535);
        } else if (arg.rfind("--serve-linger-ms=", 0) == 0) {
            ok = numberFlag(kCmd, arg, serveLingerMs);
        } else if (arg.rfind("--events-out=", 0) == 0) {
            eventsOut = arg.substr(13);
        } else if (arg == "--phase-timing") {
            cfg.phaseTiming = true;
        } else if (arg.rfind("--max-record-errors=", 0) == 0) {
            ok = numberFlag(kCmd, arg, policy.maxRecordErrors);
        } else if (arg.rfind("--mem-budget=", 0) == 0) {
            ok = bytesFlag(kCmd, arg, cfg.memBudgetBytes);
        } else if (arg.rfind("--report-out=", 0) == 0) {
            reportOut = arg.substr(13);
        } else if (arg.rfind("--inject=", 0) == 0) {
            injectSpec = arg.substr(9);
        } else {
            std::fprintf(stderr, "analyze: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
        if (!ok)
            return 2;
    }
    if (predict && !verify) {
        // Prediction without verification would be unsound (a weak-
        // order candidate is only a hypothesis until replay confirms
        // it), so the flag is an implication, not an error.
        std::fprintf(stderr,
                     "--predict implies --verify (predicted "
                     "candidates are always replay-verified); "
                     "enabling\n");
        verify = true;
    }

    trace::FaultConfig faults;
    if (!injectSpec.empty()) {
        Expected<trace::FaultConfig> parsed =
            trace::parseFaultSpec(injectSpec);
        if (!parsed) {
            std::fprintf(stderr, "--inject: %s\n",
                         parsed.status().toString().c_str());
            return 2;
        }
        faults = parsed.value();
    }

    // Observability: a registry when anything consumes metrics
    // (--metrics-out, --serve, or --events-out, whose warn tap counts
    // into the registry), a tracer iff --trace-out. All must outlive
    // the detector and checker (their snapshot callbacks read into
    // those objects), so they live here and everything below holds
    // nullable pointers.
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    obs::ObsContext octx;
    if (!metricsOut.empty() || servePort >= 0 || !eventsOut.empty()) {
        octx.metrics = &registry;
        // Fresh per-run clock-substrate numbers (join counts and
        // sizes) under "clock.*".
        clock::resetClockStats();
        clock::registerClockStats(registry);
    }
    if (!traceOut.empty())
        octx.tracer = &tracer;
    // Structured event log + warn tap. The tap routes every
    // warn-family call (including rate-limit-suppressed ones) into
    // log.warnings_* counters and, when --events-out is on, into the
    // event log; declared after `events` so it detaches first.
    std::unique_ptr<obs::EventLog> events;
    if (!eventsOut.empty()) {
        events = obs::EventLog::open(eventsOut);
        if (!events)
            fatal("cannot open " + eventsOut + " for writing");
        octx.events = events.get();
    }
    std::unique_ptr<obs::WarnTap> warnTap;
    if (octx.metrics)
        warnTap =
            std::make_unique<obs::WarnTap>(registry, events.get());

    report::FastTrackChecker checker;

    auto opened = trace::tryOpenTraceSource(argv[2], policy, faults);
    if (!opened) {
        std::fprintf(stderr, "error: %s\n",
                     opened.status().toString().c_str());
        return 1;
    }
    trace::TraceSource &source = opened.value().source();
    std::printf("streaming %s (%s format)\n", argv[2],
                opened.value().binary ? "binary" : "text");
    std::unique_ptr<report::Detector> detector;
    core::DetectorEngine *acDetector = nullptr;
    // Causality model: the trace's dialect tag is authoritative
    // (headers carry it in both text and binary form, so streaming
    // sources know it before the first op). --model only asserts the
    // caller's expectation — running the looper rules over a task
    // graph (or vice versa) would infer nonsense, so a mismatch is an
    // error, never a silent override.
    const trace::Dialect dialect = source.meta().dialect();
    const core::ModelKind model = core::modelForDialect(dialect);
    if (!modelArg.empty()) {
        core::ModelKind requested = core::ModelKind::Looper;
        core::parseModelName(modelArg, requested);
        if (requested != model) {
            std::fprintf(
                stderr, "error: %s\n",
                Status::error(
                    ErrCode::ParseError,
                    strf("--model=%s does not match the trace's %s "
                         "dialect (which requires the %s model)",
                         modelArg.c_str(), trace::dialectName(dialect),
                         core::modelName(model)))
                    .toString()
                    .c_str());
            return 1;
        }
    }
    if (detectorName == "asyncclock") {
        auto ac = std::make_unique<core::DetectorEngine>(
            model, source, checker, cfg);
        ac->attachObs(octx);
        acDetector = ac.get();
        detector = std::move(ac);
    } else if (detectorName == "eventracer") {
        if (model != core::ModelKind::Looper) {
            std::fprintf(
                stderr, "error: %s\n",
                Status::error(ErrCode::Unsupported,
                              "the eventracer baseline only "
                              "understands the looper dialect")
                    .toString()
                    .c_str());
            return 1;
        }
        detector = std::make_unique<graph::EventRacerDetector>(
            source, checker, graph::EventRacerConfig{});
    } else {
        return usage();
    }

    MemStats mem;
    if (octx.metrics) {
        obs::registerMemStats(*octx.metrics, mem);
        octx.metrics->counterFn("run.ops_processed",
                                [&d = *detector] {
                                    return d.opsProcessed();
                                });
    }
    obs::ProgressMeter meter(progressEvery);

    // Live telemetry endpoint. The publisher runs on this (pipeline)
    // thread — registry callbacks read detector-owned fields, so
    // snapshots must come from here; the server thread only ever
    // serves published (frozen) snapshots.
    auto makeSample = [&](std::uint64_t ops) {
        obs::ProgressSample s;
        s.ops = ops;
        s.liveBytes = mem.liveTotal();
        s.peakBytes = mem.peakTotal();
        s.races = checker.racesFound();
        return s;
    };
    std::unique_ptr<obs::SnapshotPublisher> publisher;
    std::unique_ptr<obs::TelemetryServer> server;
    if (servePort >= 0) {
        publisher = std::make_unique<obs::SnapshotPublisher>(registry);
        server = std::make_unique<obs::TelemetryServer>(*publisher);
        if (!server->start(static_cast<std::uint16_t>(servePort)))
            return 1;
        std::printf("telemetry: serving on "
                    "http://127.0.0.1:%u/metrics\n",
                    unsigned(server->port()));
        // Publish an initial snapshot so the endpoint is useful
        // before the first interval elapses.
        publisher->publish(makeSample(0));
        // A served run is a long-lived process: SIGINT/SIGTERM must
        // drain it (same exit path the daemon uses), not kill it
        // mid-write.
        support::installShutdownHandlers();
    }

    auto start = std::chrono::steady_clock::now();
    std::uint64_t n = 0;
    bool interrupted = false;
    while (detector->processNext()) {
        if ((++n % 1024) == 0) {
            detector->sampleMemory(mem);
            if (publisher)
                publisher->publishIfDue(makeSample(n));
            if (server && support::shutdownRequested()) {
                interrupted = true;
                break;
            }
        }
        if (meter.due(n)) {
            detector->sampleMemory(mem);
            meter.report(makeSample(n));
        }
    }
    detector->sampleMemory(mem);
    if (interrupted) {
        // Signal-driven drain: publish the last numbers, stop the
        // listener promptly (self-pipe wakeup, no poll race), and
        // leave with the conventional interrupted status. The partial
        // analysis is discarded — a report from a half-read trace
        // would be misleading.
        publisher->publish(makeSample(n));
        server->stop();
        std::fprintf(stderr,
                     "interrupted by signal %d after %llu op(s); "
                     "partial analysis discarded\n",
                     support::shutdownSignal(),
                     (unsigned long long)n);
        return 130;
    }
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (octx.metrics)
        octx.metrics->gauge("run.elapsed_us")
            .set(static_cast<std::int64_t>(elapsed * 1e6));
    if (publisher) {
        // Final snapshot with the end-of-run numbers, then linger so
        // a scraper can still collect it before shutdown.
        publisher->publish(makeSample(n));
        if (serveLingerMs > 0) {
            std::printf("telemetry: lingering %llu ms before "
                        "shutdown...\n",
                        (unsigned long long)serveLingerMs);
            std::fflush(stdout);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(serveLingerMs));
        }
        server->stop();
    }
    // Structured post-mortems, most specific first. None of these
    // abort: a damaged trace or a blown error budget ends the run
    // with a diagnostic and a nonzero exit.
    if (!source.ok()) {
        std::fprintf(stderr, "trace stream failed: %s\n",
                     source.status().toString().c_str());
        return 1;
    }
    if (acDetector && !acDetector->runStatus().isOk()) {
        std::fprintf(stderr, "analysis failed: %s\n",
                     acDetector->runStatus().toString().c_str());
        return 1;
    }

    std::printf("\nanalysis (%s, model=%s): %.3fs, peak metadata %s\n",
                detectorName.c_str(), core::modelName(model), elapsed,
                humanBytes(mem.peakTotal()).c_str());
    std::printf("%s", mem.summary().c_str());
    if (cfg.phaseTiming && acDetector && n > 0) {
        const std::uint64_t *ph = acDetector->phaseTotalsNs();
        std::uint64_t totalNs = 0;
        for (std::size_t i = 0; i < core::kNumPhases; ++i)
            totalNs += ph[i];
        std::printf("per-phase latency attribution (%llu ops, "
                    "%.3f ms measured):\n",
                    (unsigned long long)n, totalNs / 1e6);
        for (std::size_t i = 0; i < core::kNumPhases; ++i) {
            std::printf(
                "  %-12s %12.3f ms  %5.1f%%  (%7.1f ns/op)\n",
                core::phaseName(static_cast<core::Phase>(i)),
                ph[i] / 1e6,
                totalNs > 0 ? 100.0 * ph[i] / totalNs : 0.0,
                static_cast<double>(ph[i]) / n);
        }
    }

    report::RaceAnalyzer analyzer(source.meta());
    report::ReportSummary summary = [&] {
        obs::ScopedSpan span(octx.tracer, obs::kMainTrack,
                             "report_export");
        return analyzer.analyze(checker.races(), filters);
    }();

    // Caveat notes: anything that makes this report less than
    // authoritative is stated in the report itself. The wording lives
    // in core::appendRunNotes, shared with the daemon so both render
    // byte-identical degraded-run reports.
    core::appendRunNotes(summary.notes, source.recordsSkipped(),
                         acDetector ? &acDetector->counters()
                                    : nullptr);
    if (!injectSpec.empty())
        summary.notes.push_back("fault injection active: " +
                                injectSpec);

    // ----- replay verification (--verify) ---------------------------
    report::TriageReport triage;
    verify::VerifySummary vsum;
    // Verification and prediction both need a materialized trace, so
    // they reload the file cleanly (fault injection damages the
    // in-memory stream, never the file); flipping orders inside a
    // half-decoded op vector would verify a program that never ran.
    // The reload is strict: a file whose corrupt records the decode
    // budget skipped leaves every class UNVERIFIED and runs no
    // prediction, and the detector's report still stands.
    Expected<trace::Trace> replayTr = trace::Trace();
    if (verify || predict)
        replayTr = trace::tryLoadTrace(argv[2]);
    const std::string reloadFailed =
        replayTr ? ""
                 : "cannot reload the trace for replay: " +
                       replayTr.status().toString();
    if (verify) {
        // Candidates are the checker's races under the same
        // user-induced filter as the report; commutativity-filtered
        // pairs stay in, so replay cross-checks the whitelist.
        std::vector<report::RaceReport> candidates;
        for (const report::RaceReport &race : checker.races()) {
            if (filters.userInducedOnly &&
                (!analyzer.userInduced(race.prevSite) ||
                 !analyzer.userInduced(race.curSite))) {
                continue;
            }
            candidates.push_back(race);
        }
        triage = report::buildTriage(candidates);
        verify::VerifyConfig vcfg;
        vcfg.maxClasses = verifyMaxClasses;
        vcfg.maxOps = verifyMaxOps;
        vcfg.obs = octx;
        vsum = replayTr
                   ? verify::verifyTriage(triage, replayTr.value(), vcfg)
                   : verify::leaveUnverified(
                         triage, "trace reload failed",
                         reloadFailed + "; all classes left UNVERIFIED");
        std::printf("\nverification: %llu replay(s) in %.3fs\n",
                    (unsigned long long)vsum.replays, vsum.wallSec);
        for (const std::string &note : vsum.notes)
            std::fprintf(stderr, "verify note: %s\n", note.c_str());
    }

    // ----- predictive race inference (--predict) --------------------
    predict::PredictResult pres;
    if (predict && !replayTr) {
        pres.summary.notes.push_back(reloadFailed +
                                     "; prediction skipped");
    } else if (predict) {
        predict::PredictConfig pcfg;
        pcfg.bounds.window = predictWindow;
        pcfg.bounds.maxCandidates = predictMaxCandidates;
        pcfg.maxClasses = predictMaxClasses;
        pcfg.maxOps = verifyMaxOps;
        pcfg.obs = octx;
        // The funnel subtracts everything the detector observed, so
        // it gets the unfiltered race list: a framework-noise race is
        // still an observed pair, not a prediction.
        pres = predict::runPrediction(replayTr.value(),
                                      checker.races(), pcfg);
        std::printf("\nprediction: %llu replay(s) in %.3fs\n",
                    (unsigned long long)pres.summary.replays,
                    pres.summary.wallSec);
    }
    for (const std::string &note : pres.summary.notes)
        std::fprintf(stderr, "predict note: %s\n", note.c_str());

    if (!traceOut.empty()) {
        tracer.writeFile(traceOut);
        std::printf("wrote trace events to %s\n", traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        writeTextFile(metricsOut, registry.snapshot().toJson());
        std::printf("wrote metrics to %s\n", metricsOut.c_str());
    }

    if (json) {
        std::string jsonText;
        if (predict) {
            report::PredictionExport pe;
            pe.triage = &pres.triage;
            pe.candidates = pres.summary.candidates;
            pe.observed = pres.summary.observed;
            pe.hidden = pres.summary.hidden;
            pe.shadowed = pres.summary.shadowed;
            pe.windowDrops = pres.summary.windowDrops;
            pe.capDrops = pres.summary.capDrops;
            pe.malformedDropped = pres.summary.malformedDropped;
            pe.recallScored = pres.summary.recallScored;
            pe.weakRaces = pres.summary.weakRaces;
            pe.observedHits = pres.summary.observedHits;
            pe.combinedHits = pres.summary.combinedHits;
            pe.observedRecall = pres.summary.observedRecall;
            pe.combinedRecall = pres.summary.combinedRecall;
            jsonText =
                report::toJson(summary, triage, pe, source.meta());
        } else {
            jsonText =
                verify ? report::toJson(summary, triage, source.meta())
                       : report::toJson(summary, source.meta());
        }
        std::printf("%s\n", jsonText.c_str());
        if (!reportOut.empty()) {
            // Same machine-diffable copy the text path writes; the
            // confirmation goes to stderr so stdout stays pipeable.
            writeTextFile(reportOut, jsonText + "\n");
            std::fprintf(stderr, "wrote report to %s\n",
                         reportOut.c_str());
        }
        return 0;
    }
    std::string reportText =
        report::renderReportText(analyzer, summary);
    if (verify) {
        // Verdict lines carry no timings, so two runs over the same
        // trace produce byte-identical reports (CI diffs them).
        const trace::TraceMeta &vmeta = source.meta();
        reportText += triage.summary() + "\n";
        for (const report::TriageClass &cls : triage.classes)
            reportText += "  " + report::describeClass(vmeta, cls) + "\n";
        if (predict) {
            // Distinct "predicted" section, same deterministic
            // contract: classes ranked, no timings, byte-identical
            // across runs.
            reportText += pres.summary.summary() + "\n";
            for (const report::TriageClass &cls :
                 pres.triage.classes) {
                reportText +=
                    "  " + report::describeClass(vmeta, cls) + "\n";
            }
            std::string recall = pres.summary.recallLine();
            if (!recall.empty())
                reportText += recall + "\n";
        }
    }
    std::printf("\n%s", reportText.c_str());
    if (!reportOut.empty()) {
        // Machine-diffable copy (CI compares repeated runs' reports,
        // and daemon reports against single-shot ones, byte for
        // byte).
        writeTextFile(reportOut, reportText);
        std::printf("wrote report to %s\n", reportOut.c_str());
    }
    return 0;
}

// ----- daemon mode ----------------------------------------------------

int
cmdDaemon(int argc, char **argv)
{
    daemon::DaemonConfig dcfg;
    dcfg.stateDir = "./asyncclockd-state";
    int port = 0;
    std::string eventsOut;
    constexpr const char *kCmd = "daemon";
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--port=", 0) == 0) {
            ok = numberFlag(kCmd, arg, port, 65535);
        } else if (arg.rfind("--state-dir=", 0) == 0) {
            dcfg.stateDir = arg.substr(12);
        } else if (arg.rfind("--workers=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.workers);
        } else if (arg.rfind("--http-threads=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.httpThreads);
        } else if (arg.rfind("--max-sessions=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.maxSessions);
        } else if (arg.rfind("--mem-budget=", 0) == 0) {
            ok = bytesFlag(kCmd, arg, dcfg.memBudgetBytes);
        } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.idleTimeoutMs);
        } else if (arg.rfind("--watchdog-ms=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.watchdogMs);
        } else if (arg.rfind("--queue-chunks=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.queueChunks);
        } else if (arg.rfind("--admission-timeout-ms=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.admissionTimeoutMs);
        } else if (arg.rfind("--window-ms=", 0) == 0) {
            ok = numberFlag(kCmd, arg, dcfg.detector.windowMs);
        } else if (arg == "--all-races") {
            dcfg.filters.userInducedOnly = false;
            dcfg.filters.commutativityFilter = false;
        } else if (arg.rfind("--events-out=", 0) == 0) {
            eventsOut = arg.substr(13);
        } else if (arg == "--predict" ||
                   arg.rfind("--predict", 0) == 0) {
            // Prediction replays flipped schedules against a
            // materialized trace; daemon sessions stream and evict,
            // so there is no trace to replay. Explicit refusal beats
            // a generic unknown-option error.
            std::fprintf(stderr,
                         "daemon: --predict is not supported in "
                         "daemon sessions (prediction needs a "
                         "materialized trace to replay); use "
                         "'trace_analyzer analyze --predict'\n");
            return 2;
        } else {
            std::fprintf(stderr, "daemon: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
        if (!ok)
            return 2;
    }
    std::unique_ptr<obs::EventLog> events;
    if (!eventsOut.empty()) {
        events = obs::EventLog::open(eventsOut);
        if (!events)
            fatal("cannot open " + eventsOut + " for writing");
        dcfg.events = events.get();
    }

    support::installShutdownHandlers();
    daemon::Daemon d(dcfg);
    if (Status st = d.init(); !st) {
        std::fprintf(stderr, "daemon: %s\n", st.toString().c_str());
        return 1;
    }
    if (!d.start(static_cast<std::uint16_t>(port)))
        return 1;
    std::printf("asyncclockd: serving on http://127.0.0.1:%u "
                "(state dir %s, %zu session(s) recovered)\n",
                unsigned(d.port()), dcfg.stateDir.c_str(),
                d.sessionCount());
    std::fflush(stdout);

    support::waitForShutdown();
    std::fprintf(stderr,
                 "asyncclockd: signal %d received; draining...\n",
                 support::shutdownSignal());
    d.drain();
    std::fprintf(stderr, "asyncclockd: drained; exiting\n");
    return 0;
}

// ----- feed: the daemon's command-line client -------------------------

struct HttpClientResponse
{
    int status = 0;
    std::string body;
};

/**
 * One HTTP/1.1 request against the local daemon. When
 * truncateBodyTo < body.size(), only that prefix is written and the
 * socket is closed mid-body — the sess-disconnect fault. Returns
 * false on connect/short-response failure (always, for truncated
 * sends).
 */
bool
httpRequest(std::uint16_t port, const std::string &method,
            const std::string &target, const std::string &body,
            HttpClientResponse &out,
            std::size_t truncateBodyTo = ~std::size_t(0))
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }
    std::string head = method + " " + target + " HTTP/1.1\r\n" +
                       "Host: 127.0.0.1\r\n" +
                       strf("Content-Length: %zu\r\n", body.size()) +
                       "Connection: close\r\n\r\n";
    std::string payload =
        head + body.substr(0, std::min(truncateBodyTo, body.size()));
    std::size_t sent = 0;
    while (sent < payload.size()) {
        ssize_t n = ::send(fd, payload.data() + sent,
                           payload.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    if (truncateBodyTo < body.size()) {
        ::close(fd);  // deliberate mid-body disconnect
        return false;
    }
    std::string raw;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12)
        return false;
    out.status =
        static_cast<int>(std::strtol(raw.c_str() + 9, nullptr, 10));
    std::size_t split = raw.find("\r\n\r\n");
    out.body = split == std::string::npos ? "" : raw.substr(split + 4);
    return true;
}

/** Extract "key":NUMBER from a flat JSON object (the daemon's info
 * bodies; no nesting, no escapes in numeric fields). */
std::uint64_t
jsonUint(const std::string &json, const std::string &key)
{
    std::size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr,
                         10);
}

int
cmdFeed(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string tracePath = argv[2];
    int port = 0;
    std::string sessionId;
    std::size_t chunkBytes = 64 * 1024;
    std::string reportOut;
    std::string interleavePath;
    std::string injectSpec;
    bool doFinish = true;
    constexpr const char *kCmd = "feed";
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--port=", 0) == 0) {
            ok = numberFlag(kCmd, arg, port, 65535);
        } else if (arg.rfind("--session=", 0) == 0) {
            sessionId = arg.substr(10);
        } else if (arg.rfind("--chunk-bytes=", 0) == 0) {
            ok = numberFlag(kCmd, arg, chunkBytes) &&
                 (chunkBytes > 0 || badValue(kCmd, arg));
        } else if (arg.rfind("--report-out=", 0) == 0) {
            reportOut = arg.substr(13);
        } else if (arg.rfind("--interleave-file=", 0) == 0) {
            interleavePath = arg.substr(18);
        } else if (arg.rfind("--inject=", 0) == 0) {
            injectSpec = arg.substr(9);
        } else if (arg == "--no-finish") {
            doFinish = false;
        } else {
            std::fprintf(stderr, "feed: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
        if (!ok)
            return 2;
    }
    if (port <= 0 || sessionId.empty()) {
        std::fprintf(stderr,
                     "feed: --port=P and --session=ID required\n");
        return 2;
    }
    trace::FaultConfig faults;
    if (!injectSpec.empty()) {
        Expected<trace::FaultConfig> parsed =
            trace::parseFaultSpec(injectSpec);
        if (!parsed) {
            std::fprintf(stderr, "--inject: %s\n",
                         parsed.status().toString().c_str());
            return 2;
        }
        faults = parsed.value();
    }
    if (faults.sessInterleaveAtChunk > 0 && interleavePath.empty()) {
        std::fprintf(stderr, "feed: sess-interleave needs "
                             "--interleave-file=PATH\n");
        return 2;
    }

    auto slurp = [](const std::string &path, std::string &out) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false;
        out.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
        return true;
    };
    std::string data;
    if (!slurp(tracePath, data))
        fatal("cannot read " + tracePath);
    std::string interleave;
    if (!interleavePath.empty() && !slurp(interleavePath, interleave))
        fatal("cannot read " + interleavePath);

    const std::uint16_t p = static_cast<std::uint16_t>(port);
    const std::string base = "/v1/sessions/" + sessionId;
    HttpClientResponse resp;

    // Create — or, after a daemon restart, rejoin: a 409 duplicate
    // means the daemon already holds our spool, so resync the offset
    // from its info instead of starting over.
    std::uint64_t offset = 0;
    if (!httpRequest(p, "POST", "/v1/sessions?id=" + sessionId, "",
                     resp))
        fatal("feed: cannot reach daemon on port " +
              std::to_string(port));
    if (resp.status == 409) {
        if (!httpRequest(p, "GET", base, "", resp) ||
            resp.status != 200)
            fatal("feed: session exists but info failed");
        offset = jsonUint(resp.body, "spooled_bytes");
        std::fprintf(stderr,
                     "feed: rejoining %s at offset %llu\n",
                     sessionId.c_str(), (unsigned long long)offset);
    } else if (resp.status != 201) {
        std::fprintf(stderr, "feed: create failed (%d): %s",
                     resp.status, resp.body.c_str());
        return 1;
    }

    std::uint64_t chunkIndex = 0;
    while (offset < data.size()) {
        ++chunkIndex;
        std::string chunk = data.substr(
            offset, std::min<std::size_t>(chunkBytes,
                                          data.size() - offset));
        const std::string target =
            base + "/trace?offset=" + std::to_string(offset);

        if (faults.sessDupCreateAt == chunkIndex) {
            // Session fault: duplicate create mid-stream. The daemon
            // must answer 409 and leave the live session untouched.
            HttpClientResponse dup;
            if (!httpRequest(p, "POST",
                             "/v1/sessions?id=" + sessionId, "", dup) ||
                dup.status != 409) {
                std::fprintf(stderr,
                             "feed: duplicate create got %d, want "
                             "409\n",
                             dup.status);
                return 1;
            }
            std::fprintf(stderr,
                         "feed: duplicate create correctly refused\n");
        }
        if (faults.sessDisconnectAtChunk == chunkIndex) {
            // Session fault: drop the connection mid-body, then
            // retransmit from the same offset — the daemon must not
            // have spooled the torn bytes.
            httpRequest(p, "POST", target, chunk, resp,
                        chunk.size() / 2);
            std::fprintf(stderr,
                         "feed: disconnected mid-chunk %llu; "
                         "retransmitting\n",
                         (unsigned long long)chunkIndex);
        }
        std::string payload = chunk;
        if (faults.sessInterleaveAtChunk == chunkIndex) {
            // Session fault: splice in bytes from the other dialect.
            // The daemon must quarantine this session only.
            payload = interleave.substr(
                0, std::min(interleave.size(), chunkBytes));
            std::fprintf(stderr,
                         "feed: interleaving %zu foreign byte(s) at "
                         "chunk %llu\n",
                         payload.size(),
                         (unsigned long long)chunkIndex);
        }

        if (!httpRequest(p, "POST", target, payload, resp))
            fatal("feed: daemon connection lost");
        if (resp.status == 429) {
            // Backpressure: honor it and retry the same chunk.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            --chunkIndex;
            continue;
        }
        if (resp.status == 410) {
            std::fprintf(stderr, "feed: session quarantined: %s",
                         resp.body.c_str());
            return 3;
        }
        if (resp.status != 200) {
            std::fprintf(stderr, "feed: ingest failed (%d): %s",
                         resp.status, resp.body.c_str());
            return 1;
        }
        offset += payload.size();
    }

    if (!doFinish) {
        std::printf("feed: %s: %llu byte(s) sent, left unfinished\n",
                    sessionId.c_str(), (unsigned long long)offset);
        return 0;
    }
    if (!httpRequest(p, "POST", base + "/finish", "", resp) ||
        resp.status != 200) {
        std::fprintf(stderr, "feed: finish failed (%d): %s",
                     resp.status, resp.body.c_str());
        return resp.status == 410 ? 3 : 1;
    }

    // Poll for the report; 202 means the workers are still pumping.
    for (int attempt = 0; attempt < 600; ++attempt) {
        if (!httpRequest(p, "GET", base + "/report", "", resp))
            fatal("feed: daemon connection lost");
        if (resp.status == 202) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            continue;
        }
        if (resp.status == 410) {
            std::fprintf(stderr, "feed: session quarantined: %s",
                         resp.body.c_str());
            return 3;
        }
        if (resp.status != 200) {
            std::fprintf(stderr, "feed: report failed (%d): %s",
                         resp.status, resp.body.c_str());
            return 1;
        }
        if (!reportOut.empty())
            writeTextFile(reportOut, resp.body);
        else
            std::printf("%s", resp.body.c_str());
        return 0;
    }
    std::fprintf(stderr, "feed: report still pending after 60s\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "gen") == 0)
        return cmdGen(argc, argv);
    if (std::strcmp(argv[1], "analyze") == 0)
        return cmdAnalyze(argc, argv);
    if (std::strcmp(argv[1], "daemon") == 0)
        return cmdDaemon(argc, argv);
    if (std::strcmp(argv[1], "feed") == 0)
        return cmdFeed(argc, argv);
    return usage();
}

#include "harness/runs.hh"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "clock/policy.hh"
#include "core/engine.hh"
#include "daemon/daemon.hh"
#include "harness/decorators.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "trace/trace_io.hh"

namespace asyncclock::perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** The clock.* layer counts, read from clockStats(). */
void
addClockMetrics(std::map<std::string, double> &m)
{
    const clock::ClockStats &s = clock::clockStats();
    auto rd = [](const std::atomic<std::uint64_t> &v) {
        return static_cast<double>(v.load(std::memory_order_relaxed));
    };
    // Buckets are log2 of the join source's entry count; 8 is 256.
    double wide = 0;
    for (unsigned b = 8; b < clock::ClockStats::kJoinBuckets; ++b)
        wide += rd(s.joinSizeBuckets[b]);
    const double joins = rd(s.joins);
    const double visited = rd(s.joinEntriesVisited);
    m["clock.joins"] = joins;
    m["clock.join_entries_visited"] = visited;
    m["clock.entries_per_join"] = joins > 0 ? visited / joins : 0;
    m["clock.wide_joins"] = wide;
    m["clock.join_fast_paths"] = rd(s.joinFastPaths);
    m["clock.deep_copies"] = rd(s.deepCopies);
    m["clock.shared_copies"] = rd(s.sharedCopies);
}

/** Self time of every non-root span over the root's duration: 1.0
 * when the named layers cover the whole traced wall time. */
double
closure(const SpanLog &spans, const std::string &root)
{
    std::map<std::string, double> self = spans.selfSeconds();
    double covered = 0;
    for (const auto &[name, s] : self) {
        if (name != root)
            covered += s;
    }
    const double total = covered + self[root];
    return total > 0 ? covered / total : 0;
}

/** The trace_analyzer pump: every op, a memory sample per block. */
void
pumpPlain(core::DetectorEngine &engine, MemStats &mem)
{
    std::uint64_t n = 0;
    while (engine.processNext()) {
        if ((++n % kSampleEvery) == 0)
            engine.sampleMemory(mem);
    }
    engine.sampleMemory(mem);
}

/**
 * The same pump with every call timed. Each block of kSampleEvery ops
 * is a "process" span (the summed processNext times) with aggregate
 * "decode" and "check" children from the decorators; each memory
 * sample is a "mem_sample" span. A processNext call during which
 * counters().gcSweeps advanced gets a "gc" child holding its time
 * above the median call time.
 */
void
pumpTraced(core::DetectorEngine &engine, MemStats &mem,
           const TimedSource &source, const TimedChecker &checker,
           SpanLog &spans, std::int32_t run)
{
    std::vector<std::uint32_t> callNs;
    std::vector<std::pair<std::size_t, std::int32_t>> gcCalls;
    auto sample = [&] {
        const std::uint64_t t0 = nowNs();
        engine.sampleMemory(mem);
        spans.add("mem_sample", run, t0, nowNs() - t0);
    };
    for (bool more = true; more;) {
        const std::uint64_t blockStart = nowNs();
        const std::uint64_t decodeNs = source.ns();
        const std::uint64_t decodeCalls = source.calls();
        const std::uint64_t checkNs = checker.ns();
        const std::uint64_t checkCalls = checker.calls();
        const std::size_t firstCall = callNs.size();
        std::vector<std::size_t> blockGc;
        std::uint64_t blockNs = 0;
        std::uint64_t ops = 0;
        while (ops < kSampleEvery) {
            const std::uint64_t sweeps = engine.counters().gcSweeps;
            const std::uint64_t t0 = nowNs();
            more = engine.processNext();
            const std::uint64_t ns = nowNs() - t0;
            blockNs += ns;
            callNs.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(ns, UINT32_MAX)));
            if (engine.counters().gcSweeps != sweeps)
                blockGc.push_back(callNs.size() - 1);
            if (!more)
                break;
            ++ops;
        }
        const std::int32_t block = spans.add(
            "process", run, blockStart, blockNs, callNs.size() - firstCall);
        spans.add("decode", block, blockStart, source.ns() - decodeNs,
                  source.calls() - decodeCalls);
        spans.add("check", block, blockStart, checker.ns() - checkNs,
                  checker.calls() - checkCalls);
        for (std::size_t call : blockGc)
            gcCalls.push_back({call, block});
        if (more)
            sample();
    }
    sample();

    if (callNs.empty())
        return;
    std::vector<std::uint32_t> sorted = callNs;
    auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
    std::nth_element(sorted.begin(), mid, sorted.end());
    const std::uint64_t median = *mid;
    for (const auto &[call, block] : gcCalls) {
        const std::uint64_t ns = callNs[call];
        spans.add("gc", block, 0, ns > median ? ns - median : 0);
    }
}

} // namespace

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

Iteration
runEngine(const TraceInput &in, SpanLog *spans)
{
    Iteration it;
    clock::resetClockStats();
    std::istringstream stream(in.bytes);
    trace::StreamingBinarySource binary(stream);
    if (!binary.ok()) {
        it.failure = in.id + ": " + binary.status().toString();
        return it;
    }
    report::FastTrackChecker fasttrack;
    TimedSource timedSource(binary);
    TimedChecker timedChecker(fasttrack);
    trace::TraceSource &source =
        spans ? static_cast<trace::TraceSource &>(timedSource) : binary;
    report::AccessChecker &checker =
        spans ? static_cast<report::AccessChecker &>(timedChecker)
              : fasttrack;
    core::DetectorEngine engine(
        core::modelForDialect(binary.meta().dialect()), source, checker);
    MemStats mem;

    const std::uint64_t start = nowNs();
    const std::int32_t run = spans ? spans->add("run", -1, start, 0) : -1;
    if (spans)
        pumpTraced(engine, mem, timedSource, timedChecker, *spans, run);
    else
        pumpPlain(engine, mem);
    if (!binary.ok()) {
        it.failure = in.id + ": trace stream failed: " +
                     binary.status().toString();
        return it;
    }
    if (!engine.runStatus().isOk()) {
        it.failure = in.id + ": analysis failed: " +
                     engine.runStatus().toString();
        return it;
    }
    const std::uint64_t renderStart = nowNs();
    report::RaceAnalyzer analyzer(binary.meta());
    report::ReportSummary summary = analyzer.analyze(checker.races());
    core::appendRunNotes(summary.notes, binary.recordsSkipped(),
                         &engine.counters());
    it.reports.push_back(report::renderReportText(analyzer, summary));
    const std::uint64_t end = nowNs();
    it.harmful.push_back(summary.harmful);

    std::map<std::string, double> &m = it.metrics;
    m["wall_s"] = seconds(end - start);
    if (spans) {
        spans->add("render", run, renderStart, end - renderStart);
        spans->setDuration(run, end - start);
        std::map<std::string, double> self = spans->selfSeconds();
        m["trace.decode_s"] = self["decode"];
        m["core.model_self_s"] = self["process"];
        m["core.gc_s"] = self["gc"];
        m["core.mem_sample_s"] = self["mem_sample"];
        m["report.check_s"] = self["check"];
        m["report.render_s"] = self["render"];
        m["core.process_s"] = self["process"] + self["decode"] +
                              self["check"] + self["gc"];
        m["report.accesses"] = static_cast<double>(timedChecker.calls());
        m["bench.closure"] = closure(*spans, "run");
    }
    m["trace.ops"] = static_cast<double>(engine.opsProcessed());
    m["trace.bytes"] = static_cast<double>(in.bytes.size());

    const core::DetectorCounters &c = engine.counters();
    m["core.gc_sweeps"] = static_cast<double>(c.gcSweeps);
    m["core.walk_steps"] = static_cast<double>(c.walkSteps);
    m["core.events_live_peak"] = static_cast<double>(c.eventsLivePeak);
    m["core.chains_created"] = static_cast<double>(c.chainsCreated);
    m["core.chain_reuse_ratio"] =
        c.eventsSeen > 0 ? static_cast<double>(c.chainsReused) /
                               static_cast<double>(c.eventsSeen)
                         : 0;
    m["core.reclaimed"] =
        static_cast<double>(c.reclaimedRefcount + c.reclaimedMultiPath);
    m["core.window_invalidated"] =
        static_cast<double>(c.invalidatedByWindow);
    m["core.events_seen"] = static_cast<double>(c.eventsSeen);
    m["core.peak_metadata_mb"] =
        static_cast<double>(mem.peakTotal()) / kMiB;
    m["mem.event_meta_peak_mb"] =
        static_cast<double>(mem.peak(MemCat::EventMeta)) / kMiB;
    m["mem.async_clock_peak_mb"] =
        static_cast<double>(mem.peak(MemCat::AsyncClock)) / kMiB;
    m["mem.var_state_peak_mb"] =
        static_cast<double>(mem.peak(MemCat::VarState)) / kMiB;
    m["mem.other_peak_mb"] =
        static_cast<double>(mem.peak(MemCat::Other)) / kMiB;
    m["report.races"] = static_cast<double>(checker.races().size());
    m["report.checker_mb"] =
        static_cast<double>(checker.byteSize()) / kMiB;
    addClockMetrics(m);
    return it;
}

Iteration
runDaemon(const std::vector<TraceInput> &ins, const std::string &stateDir,
          SpanLog *spans)
{
    namespace fs = std::filesystem;
    Iteration it;
    std::error_code ec;
    fs::remove_all(stateDir, ec);

    daemon::DaemonConfig cfg;
    cfg.stateDir = stateDir;
    cfg.workers = 0;
    cfg.memBudgetBytes = kDaemonBudgetBytes;
    std::uint64_t residentPeak = 0;
    std::uint64_t stateBytes = 0;
    {
        daemon::Daemon d(cfg);
        if (Status st = d.init(); !st) {
            it.failure = "daemon init: " + st.toString();
            return it;
        }
        clock::resetClockStats();
        const std::uint64_t start = nowNs();
        const std::int32_t run =
            spans ? spans->add("run", -1, start, 0) : -1;

        // Time @p fn as a span of @p layer when tracing.
        auto timed = [&](const char *layer, auto &&fn) {
            const std::uint64_t t0 = spans ? nowNs() : 0;
            fn();
            if (spans)
                spans->add(layer, run, t0, nowNs() - t0);
        };
        // One API call; false (with the failure noted) unless it
        // answers @p want.
        auto request = [&](const char *layer, const char *method,
                           const std::string &path,
                           const std::string &query, std::string body,
                           int want, std::string *out = nullptr) {
            obs::HttpRequest req;
            req.method = method;
            req.path = path;
            req.query = query;
            req.body = std::move(body);
            obs::HttpResponse resp;
            timed(layer, [&] { resp = d.handle(req); });
            if (resp.status == want) {
                if (out)
                    *out = std::move(resp.body);
                return true;
            }
            if (it.failure.empty())
                it.failure = std::string(method) + " " + path + "?" +
                             query + ": status " +
                             std::to_string(resp.status) + ", want " +
                             std::to_string(want) + ": " + resp.body;
            return false;
        };
        auto pumpAndHousekeep = [&] {
            timed("pump", [&] { d.pumpAllForTest(); });
            timed("housekeep", [&] { d.housekeepForTest(); });
            residentPeak = std::max<std::uint64_t>(
                residentPeak,
                static_cast<std::uint64_t>(std::max<std::int64_t>(
                    0,
                    d.registry().gauge("daemon.resident_bytes").value())));
        };

        for (const TraceInput &in : ins) {
            if (!request("ingest", "POST", "/v1/sessions", "id=" + in.id,
                         "", 201))
                return it;
        }
        std::vector<std::size_t> sent(ins.size(), 0);
        for (bool pending = true; pending;) {
            pending = false;
            for (std::size_t i = 0; i < ins.size(); ++i) {
                const std::string &bytes = ins[i].bytes;
                if (sent[i] >= bytes.size())
                    continue;
                const std::size_t chunk =
                    (bytes.size() + kDaemonChunks - 1) / kDaemonChunks;
                const std::size_t len =
                    std::min(chunk, bytes.size() - sent[i]);
                const std::string base = "/v1/sessions/" + ins[i].id;
                if (!request("ingest", "POST", base + "/trace",
                             "offset=" + std::to_string(sent[i]),
                             bytes.substr(sent[i], len), 200))
                    return it;
                sent[i] += len;
                if (sent[i] < bytes.size())
                    pending = true;
                else if (!request("ingest", "POST", base + "/finish", "",
                                  "", 200))
                    return it;
            }
            pumpAndHousekeep();
        }
        for (const TraceInput &in : ins) {
            std::string text;
            const std::string path = "/v1/sessions/" + in.id + "/report";
            // 202 = still pending: pump once more, then ask again.
            if (!request("fetch", "GET", path, "", "", 200, &text)) {
                it.failure.clear();
                pumpAndHousekeep();
                if (!request("fetch", "GET", path, "", "", 200, &text))
                    return it;
            }
            it.reports.push_back(std::move(text));
        }
        const std::uint64_t end = nowNs();

        std::map<std::string, double> &m = it.metrics;
        m["wall_s"] = seconds(end - start);
        if (spans) {
            spans->setDuration(run, end - start);
            std::map<std::string, double> self = spans->selfSeconds();
            m["daemon.ingest_s"] = self["ingest"];
            m["daemon.pump_s"] = self["pump"];
            m["daemon.housekeep_s"] = self["housekeep"];
            m["bench.closure"] = closure(*spans, "run");
        }
        double ops = 0, bytes = 0, evictions = 0, resumes = 0, races = 0;
        for (const TraceInput &in : ins) {
            ops += static_cast<double>(in.ops);
            bytes += static_cast<double>(in.bytes.size());
            daemon::SessionInfo info = d.findSession(in.id)->info();
            evictions += static_cast<double>(info.evictions);
            resumes += static_cast<double>(info.resumes);
            races += static_cast<double>(info.racesFound);
        }
        m["trace.ops"] = ops;
        m["trace.bytes"] = bytes;
        m["daemon.evictions"] = evictions;
        m["daemon.resumes"] = resumes;
        m["report.races"] = races;
        addClockMetrics(m);
        for (const fs::directory_entry &e :
             fs::recursive_directory_iterator(stateDir, ec)) {
            if (e.is_regular_file(ec))
                stateBytes += e.file_size(ec);
        }
    }
    it.metrics["daemon.state_mb"] = static_cast<double>(stateBytes) / kMiB;
    it.metrics["daemon.resident_peak_mb"] =
        static_cast<double>(residentPeak) / kMiB;
    fs::remove_all(stateDir, ec);
    return it;
}

} // namespace asyncclock::perfbench

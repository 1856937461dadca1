/**
 * @file
 * The benchmark driver: sets up one workload from a seed, measures it
 * for a fixed time, checks every report, and prints the metrics.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --golden FILE [--work-dir DIR] [--spans-out FILE]
 *
 * Set-up generates and encodes the workload's traces. One checked
 * warm-up iteration follows, then iterations repeat until S seconds
 * have passed. Set-up is repeated kSetupReps times before every
 * iteration, checked to give the same bytes, and the fastest is one
 * sample; setup_s is the median of the samples, so it samples the same
 * stretch of time as wall_s. peak_rss_mb is the median peak RSS of the
 * untraced iterations, the peak restarted before each.
 *
 * --trace 0 times whole iterations only (the end-to-end metrics).
 * --trace 1 alternates traced iterations (layer decorators and
 * per-call timers on, spans kept in memory and written to --spans-out
 * at exit) with untraced ones (the per-layer metrics);
 * bench.trace_overhead is the traced over the untraced median wall
 * time. Every reported value is the median over the iterations.
 *
 * Checks, each failing the iteration it happens in: source, engine and
 * daemon statuses are ok; every planted harmful race group is
 * reported; every report equals the reference (the first iteration's
 * report, and the committed digest in FILE at the default seed); on
 * daemon_evict every session's report equals a single-shot analysis of
 * the same trace; on traced iterations the layer self times cover the
 * traced wall time within kClosureTolerance.
 *
 * Human-readable lines go to stderr; the last line of stdout is one
 * JSON object {"correct", "attempted", "failed", "values"}, which
 * perfbench/run.py turns into the result BENCHMARK.json describes.
 * Exit code 0 when every check passed, 1 when one failed, 2 on bad
 * arguments.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/decorators.hh"
#include "harness/runs.hh"
#include "harness/spans.hh"
#include "harness/workloads.hh"

using namespace asyncclock::perfbench;

namespace {

/** Largest share of a traced iteration's wall time the layer spans
 * may leave uncovered. */
constexpr double kClosureTolerance = 0.05;

/** Set-ups timed per setup_s sample; the fastest counts. */
constexpr unsigned kSetupReps = 3;

struct Args
{
    Workload workload = Workload::LooperK9mail;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string golden;
    std::string workDir = ".";
    std::string spansOut;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "looper_k9mail|async_fanout|daemon_evict --seed N "
                 "--seconds S --trace 0|1 --golden FILE "
                 "[--work-dir DIR] [--spans-out FILE]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            haveWorkload = parseWorkload(val, a.workload);
            if (!haveWorkload)
                return false;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "1") == 0;
        } else if (key == "--golden") {
            a.golden = val;
        } else if (key == "--work-dir") {
            a.workDir = val;
        } else if (key == "--spans-out") {
            a.spansOut = val;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return haveWorkload && argc % 2 == 1 && a.seconds > 0 &&
           !a.golden.empty();
}

/** Restart the kernel's peak-RSS mark (VmHWM) at the current RSS;
 * false where the kernel does not allow it. */
bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5" << std::flush;
    return static_cast<bool>(f);
}

/** This process's peak RSS (VmHWM) in MiB, or 0 if unknown. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.starts_with("VmHWM:"))
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** The committed digest of @p workload at the default seed, or 0. */
std::uint64_t
goldenDigest(const std::string &path, const char *workload)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        std::uint64_t seed = 0;
        std::string hex;
        if (line.starts_with("#") || !(fields >> name >> seed >> hex))
            continue;
        if (name == workload && seed == kDefaultSeed)
            return std::strtoull(hex.c_str(), nullptr, 16);
    }
    return 0;
}

std::string
joined(const std::vector<std::string> &parts)
{
    std::string out;
    for (const std::string &p : parts)
        out += p;
    return out;
}

/** The report oracle shared by every iteration of one run. */
class Oracle
{
  public:
    Oracle(const std::vector<TraceInput> &inputs, std::uint64_t golden)
        : inputs_(inputs), golden_(golden)
    {
    }

    /** Pin the reference reports (single-shot analyses, or the first
     * iteration's). Returns "" or why they are not acceptable. */
    std::string
    setReference(const Iteration &ref)
    {
        reference_ = ref.reports;
        if (!ref.failure.empty())
            return ref.failure;
        std::string why = harmfulMissing(ref);
        if (!why.empty())
            return why;
        const std::uint64_t digest = fnv1a(joined(reference_));
        std::fprintf(stderr, "report digest %016" PRIx64 "\n", digest);
        if (golden_ != 0 && digest != golden_) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "report digest %016" PRIx64
                          " != committed %016" PRIx64,
                          digest, golden_);
            return buf;
        }
        return "";
    }

    /** "" when @p it passes every report check. */
    std::string
    check(const Iteration &it) const
    {
        if (!it.failure.empty())
            return it.failure;
        std::string why = harmfulMissing(it);
        if (!why.empty())
            return why;
        if (it.reports != reference_)
            return "report differs from the reference";
        return "";
    }

  private:
    std::string
    harmfulMissing(const Iteration &it) const
    {
        for (std::size_t i = 0; i < it.harmful.size(); ++i) {
            if (it.harmful[i] < inputs_[i].harmfulPlanted)
                return inputs_[i].id + ": " +
                       std::to_string(it.harmful[i]) + " of " +
                       std::to_string(inputs_[i].harmfulPlanted) +
                       " planted harmful race group(s) reported";
        }
        return "";
    }

    const std::vector<TraceInput> &inputs_;
    std::uint64_t golden_;
    std::vector<std::string> reference_;
};

/** The result line: every value this run measured, by name; the
 * wrapper picks the ones BENCHMARK.json lists. */
void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::map<std::string, double> &values)
{
    std::string out = correct ? "{\"correct\": true" : "{\"correct\": false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"values\": {";
    const char *sep = "";
    for (const auto &[name, v] : values) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", sep, name.c_str(),
                      v);
        out += buf;
        sep = ", ";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage();
    const bool isDaemon = args.workload == Workload::DaemonEvict;
    const std::string stateDir =
        args.workDir + "/daemon-state-" + std::to_string(::getpid());
    std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ", %.0f s, trace %d\n",
                 workloadName(args.workload), args.seed, args.seconds,
                 args.trace ? 1 : 0);

    // ----- set-up: generate + encode, timed ------------------------
    const std::vector<InputSpec> specs = planInputs(args.workload, args.seed);
    std::vector<double> setupTimes;
    std::vector<TraceInput> inputs;
    // One set-up sample: the fastest of kSetupReps timed set-ups, so a
    // transient stall of the host does not count as set-up work. False
    // when one of them did not reproduce the inputs.
    auto setUp = [&] {
        double fastest = 0;
        bool same = true;
        for (unsigned r = 0; r < kSetupReps; ++r) {
            const std::uint64_t t0 = nowNs();
            std::vector<TraceInput> made = makeInputs(specs);
            const double s = static_cast<double>(nowNs() - t0) / 1e9;
            fastest = r == 0 ? s : std::min(fastest, s);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                same = same && made[i].bytes == inputs[i].bytes;
            inputs = std::move(made);
        }
        setupTimes.push_back(fastest);
        return same;
    };
    setUp();
    std::uint64_t ops = 0;
    for (const TraceInput &in : inputs)
        ops += in.ops;

    auto runOnce = [&](SpanLog *spans) {
        return isDaemon ? runDaemon(inputs, stateDir, spans)
                        : runEngine(inputs.front(), spans);
    };

    // ----- references ----------------------------------------------
    const std::uint64_t golden =
        args.seed == kDefaultSeed
            ? goldenDigest(args.golden, workloadName(args.workload))
            : 0;
    Oracle oracle(inputs, golden);
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string firstFailure;
    auto note = [&](const std::string &why) {
        ++attempted;
        if (why.empty())
            return;
        ++failed;
        if (firstFailure.empty())
            firstFailure = why;
        std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    };
    double setupJoins = 0;
    if (args.seed == kDefaultSeed && golden == 0)
        note(std::string("no committed digest for ") +
             workloadName(args.workload) + " in " + args.golden);
    if (isDaemon) {
        // Single-shot analyses of every session's trace: the daemon's
        // oracle and the base of daemon.replay_factor.
        Iteration ref;
        for (const TraceInput &in : inputs) {
            Iteration one = runEngine(in, nullptr);
            if (ref.failure.empty())
                ref.failure = one.failure;
            ref.reports.insert(ref.reports.end(), one.reports.begin(),
                               one.reports.end());
            ref.harmful.insert(ref.harmful.end(), one.harmful.begin(),
                               one.harmful.end());
            setupJoins += one.metrics["clock.joins"];
        }
        note(oracle.setReference(ref));
        // Warm-up: checked, not measured.
        note(oracle.check(runOnce(nullptr)));
    } else {
        // The warm-up iteration is the reference.
        note(oracle.setReference(runOnce(nullptr)));
    }

    // ----- measured iterations -------------------------------------
    std::vector<double> walls;         // untraced wall_s
    std::vector<double> peaks;         // untraced peak RSS, MiB
    bool peakReset = true;
    std::map<std::string, std::vector<double>> layers;  // traced
    std::ofstream spansFile;
    if (args.trace && !args.spansOut.empty())
        spansFile.open(args.spansOut, std::ios::trunc);
    std::vector<SpanLog> traces;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(args.seconds * 1e9);
    for (unsigned i = 0; nowNs() < deadline || walls.empty() ||
                         (args.trace && layers.empty());
         ++i) {
        const bool traced = args.trace && i % 2 == 0;
        const bool sameInputs = setUp();
        // Hand freed heap back and restart the peak, so an untraced
        // iteration's peak RSS is that of its own analysis (inputs
        // included), not of set-up, the references or other iterations.
        ::malloc_trim(0);
        if (!traced)
            peakReset = resetPeakRss() && peakReset;
        SpanLog spans;
        Iteration it = runOnce(traced ? &spans : nullptr);
        std::string why = sameInputs ? oracle.check(it)
                                     : "set-up gave different traces";
        if (why.empty() && traced) {
            const double c = it.metrics["bench.closure"];
            if (c < 1 - kClosureTolerance || c > 1 + 1e-9) {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "layer spans cover %.4f of the traced "
                              "wall time",
                              c);
                why = buf;
            }
        }
        note(why);
        if (!traced) {
            walls.push_back(it.metrics["wall_s"]);
            peaks.push_back(peakRssMb());
            continue;
        }
        for (const auto &[name, v] : it.metrics)
            layers[name].push_back(v);
        traces.push_back(std::move(spans));
    }
    // Spans stay in memory while measuring; written out only now.
    if (spansFile) {
        for (std::size_t i = 0; i < traces.size(); ++i)
            traces[i].writeJsonl(spansFile, static_cast<unsigned>(i));
    }

    // ----- report --------------------------------------------------
    std::map<std::string, double> values;
    const double wall = median(walls);
    values["wall_s"] = wall;
    values["ops_per_s"] = wall > 0 ? static_cast<double>(ops) / wall : 0;
    values["peak_rss_mb"] = median(peaks);
    if (!peakReset)
        std::fprintf(stderr, "perfbench: cannot restart the peak RSS; "
                             "peak_rss_mb is the whole process's\n");
    values["setup_s"] = median(setupTimes);
    for (const auto &[name, v] : layers)
        values[name] = median(v);
    values["failure_share"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    if (args.trace) {
        const double tracedWall = values["wall_s"] = median(layers["wall_s"]);
        values["bench.trace_overhead"] = wall > 0 ? tracedWall / wall : 0;
        if (isDaemon && setupJoins > 0)
            values["daemon.replay_factor"] =
                values["clock.joins"] / setupJoins;
        std::fprintf(stderr,
                     "bases: trace_overhead = traced wall %.4f s / "
                     "untraced wall %.4f s; entries_per_join over "
                     "%.0f joins; chain_reuse_ratio over %.0f event "
                     "starts; replay_factor over %.0f single-shot "
                     "joins; layer spans cover %.4f of traced wall\n",
                     tracedWall, wall, values["clock.joins"],
                     values["core.events_seen"], setupJoins,
                     values["bench.closure"]);
    }
    std::fprintf(stderr,
                 "%zu iteration(s) attempted, %zu failed; %zu untraced, "
                 "%zu traced\n",
                 attempted, failed, walls.size(), traces.size());
    for (const auto &[name, v] : values)
        std::fprintf(stderr, "  %-28s %16.6f\n", name.c_str(), v);
    if (failed > 0)
        std::fprintf(stderr, "first failure: %s\n", firstFailure.c_str());
    printResult(failed == 0, attempted, failed, values);
    return failed == 0 ? 0 : 1;
}

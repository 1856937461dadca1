/**
 * @file
 * Run-wide metrics registry: named counters, gauges, and fixed-bucket
 * histograms with O(1) hot-path updates.
 *
 * The registry is the one place a run's quantitative state lives.
 * Producers obtain a metric once (create-or-get by name, under a
 * lock) and then update it lock-free: every update is a single
 * relaxed atomic RMW, so the same metric types serve the
 * single-threaded detector hot path and the sharded checker's worker
 * threads. Consumers call snapshot() at any time and get a
 * consistent-enough view (each value is read atomically; there is no
 * cross-metric barrier, by design — observability must not serialize
 * the pipeline).
 *
 * Besides owned metrics, the registry accepts *callback* metrics:
 * a name bound to a function evaluated at snapshot time. This is how
 * the pre-existing poll-only structs (core::DetectorCounters,
 * MemStats) migrate onto the registry without touching their hot
 * paths — the detector keeps bumping plain struct fields, and the
 * registry reads them when somebody asks.
 *
 * Snapshots serialize to a stable JSON schema
 * ("asyncclock-metrics-v1", names sorted) so end-of-run reports are
 * diffable and machine-readable.
 *
 * Metrics may carry *labels* (name{model="async",phase="decode"}) so
 * per-model / per-phase / per-shard series coexist in one registry.
 * A labeled series is addressed by its canonical series name — base
 * name plus a '{k="v",...}' block with keys sorted — built by
 * seriesName(). Registries that never use labels keep emitting the
 * byte-stable v1 JSON; the moment one labeled series exists the
 * snapshot switches to the "asyncclock-metrics-v2" schema, which
 * keeps the v1 sections for unlabeled names and adds a "series"
 * section carrying the parsed label sets. toPrometheus() renders any
 * snapshot in Prometheus text exposition format 0.0.4 for live
 * scraping (see obs/telemetry.hh).
 */

#ifndef ASYNCCLOCK_OBS_METRICS_HH
#define ASYNCCLOCK_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace asyncclock::obs {

/** One metric dimension set: (key, value) pairs. Order on input is
 * irrelevant — seriesName() sorts by key. */
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/**
 * Canonical series name for @p name under @p labels:
 * `name{k1="v1",k2="v2"}` with keys sorted and '"'/'\\' in values
 * backslash-escaped. Empty @p labels yields @p name unchanged. The
 * canonical form is the registry key, so the same (name, labels) pair
 * always resolves to the same metric object.
 */
std::string seriesName(const std::string &name, LabelSet labels);

/** Split a canonical series name into base name and labels. Returns
 * false (outputs untouched) when @p full carries no label block;
 * panics on a malformed block (registry keys are always built by
 * seriesName, so damage means a bug). */
bool splitSeries(const std::string &full, std::string &base,
                 LabelSet &labels);

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Point-in-time signed level (queue depth, live bytes, ...). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Fixed-bucket histogram: cumulative-style upper bounds fixed at
 * creation (ascending; an implicit +inf overflow bucket is appended),
 * plus count/sum/min/max. observe() is a handful of relaxed atomics —
 * safe from any thread.
 */
class Histogram
{
  public:
    /** @p bounds are inclusive upper bounds, strictly ascending. */
    explicit Histogram(std::vector<std::uint64_t> bounds);

    void observe(std::uint64_t v);

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }
    /** bounds().size() + 1 buckets; the last is overflow. */
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    /** 0 when count() == 0. */
    std::uint64_t min() const;
    std::uint64_t max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
};

/** Point-in-time copy of one histogram. */
struct HistogramSnapshot
{
    std::string name;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
};

/** Point-in-time copy of a whole registry, canonical series names
 * sorted. Labeled series appear under their canonical name
 * (`name{k="v"}`). */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** True when any series carries labels (selects the v2 JSON
     * schema). */
    bool hasLabels() const;

    /** Stable machine-readable report. Schema
     * "asyncclock-metrics-v1" (byte-stable with pre-label registries)
     * when no series is labeled; "asyncclock-metrics-v2" — v1's
     * sections for unlabeled names plus a "series" section with
     * parsed label sets — as soon as one is. */
    std::string toJson() const;

    /** Prometheus text exposition format 0.0.4: metric names
     * sanitized ('.' -> '_') under an "asyncclock_" namespace, one
     * TYPE comment per family, histograms as cumulative _bucket/
     * _sum/_count series with `le` merged into the label set. */
    std::string toPrometheus() const;

    /** Multi-line human-readable dump (counters and gauges only). */
    std::string summary() const;
};

/**
 * The registry. Creation (counter()/gauge()/histogram()/...Fn()) is
 * mutex-guarded; returned references stay valid for the registry's
 * lifetime, so hot paths look metrics up once and update through the
 * reference. Callback metrics must outlive the last snapshot() —
 * detach a producer before destroying it, or stop snapshotting.
 */
class MetricsRegistry
{
  public:
    /** Create-or-get; the same name always yields the same object. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @p bounds are ignored when the histogram already exists. */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds);

    /** Labeled variants: create-or-get the series
     * `name{labels...}`. The same (name, labels) pair — in any label
     * order — yields the same object. */
    Counter &counter(const std::string &name, const LabelSet &labels);
    Gauge &gauge(const std::string &name, const LabelSet &labels);
    Histogram &histogram(const std::string &name,
                         const LabelSet &labels,
                         std::vector<std::uint64_t> bounds);

    /** Register a counter evaluated at snapshot time. */
    void counterFn(const std::string &name,
                   std::function<std::uint64_t()> fn);
    /** Register a gauge evaluated at snapshot time. */
    void gaugeFn(const std::string &name,
                 std::function<std::int64_t()> fn);

    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::function<std::uint64_t()>> counterFns_;
    std::map<std::string, std::function<std::int64_t()>> gaugeFns_;
};

} // namespace asyncclock::obs

namespace asyncclock {
class MemStats;

namespace obs {

/** Publish @p stats as "mem.live.<cat>" / "mem.peak.<cat>" (plus
 * ".total") callback gauges. @p stats must outlive the registry's
 * last snapshot(). */
void registerMemStats(MetricsRegistry &reg, const MemStats &stats);

} // namespace obs
} // namespace asyncclock

#endif // ASYNCCLOCK_OBS_METRICS_HH

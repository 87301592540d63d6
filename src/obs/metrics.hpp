// Metrics registry — the counter/gauge/histogram vocabulary every layer of
// the pipeline reports into (docs/OBSERVABILITY.md). The registry plays the
// role hardware performance counters play on the real chip: cheap monotonic
// accumulators that exporters drain, either at the end of a run or live via
// the snapshot exporter (obs/exporter.hpp).
//
// Metrics may carry a small label set ({{"backend","pippenger"}},
// {{"worker","3"}}) giving per-dimension series under one name. Label order
// is irrelevant: the registry keys entries by the flattened export name
// `name{k1="v1",k2="v2"}` with keys sorted, so every (name, label-set) pair
// has exactly one stable identity across exports.
//
// Handles returned by Registry::counter()/gauge()/histogram() stay valid for
// the registry's lifetime (entries are never erased; reset() only zeroes
// values), so call sites may cache references in function-local statics.
//
// Thread safety: counters and gauges are lock-free atomics (relaxed order —
// they are statistics, not synchronisation); histogram and registry
// operations take a mutex. The batch engine's worker pool (src/engine/)
// reports into the same process-global registry as the single-threaded
// pipeline, so every entry point here must tolerate concurrent use.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fourq::obs {

// Dimension labels for one metric series, e.g. {{"kind","sm"},{"worker","3"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

// `name{k1="v1",k2="v2"}` with keys sorted; `name` unchanged when labels are
// empty. This string is the registry key and the JSONL "metric" field.
std::string flatten_name(const std::string& name, const Labels& labels);

class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  // Raises the gauge to `v` if above the current value (atomic high-water
  // mark, e.g. engine.queue.depth.max).
  void set_max(double v);
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

// Point-in-time copy of one histogram, safe to inspect without any lock.
// quantile() estimates percentiles by walking the cumulative bucket counts
// and interpolating linearly inside the target bucket; the first and last
// non-empty buckets are tightened to the observed min/max, so the estimate
// is exact at q=0/q=1 and bounded by one bucket's width in between (a
// factor-2 log scale bounds relative error by ~2x worst case, far less for
// smooth distributions).
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  // (inclusive upper bound, per-bucket count); the final entry's bound is
  // +inf (overflow bucket).
  std::vector<std::pair<double, uint64_t>> buckets;

  double quantile(double q) const;
};

// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the first
// N buckets; one overflow bucket catches everything above the last bound.
// Timing metrics should use the shared log-2 scale (latency_bounds_us /
// Registry::latency_histogram) so quantiles are comparable across series.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  // `count` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor, int count);
  // Shared log-2 microsecond scale: 1us .. ~8.4s in 24 buckets + overflow.
  static const std::vector<double>& latency_bounds_us();

  void observe(double x);
  uint64_t count() const;
  double sum() const;
  size_t num_buckets() const { return counts_.size(); }
  uint64_t bucket_count(size_t i) const;
  // Upper bound of bucket i; the overflow bucket reports +inf.
  double upper_bound(size_t i) const;
  const std::vector<double>& bounds() const { return bounds_; }
  HistogramStats stats() const;
  double quantile(double q) const { return stats().quantile(q); }
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;  // bounds_.size() + 1 entries
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// One entry of Registry::snapshot(): structured view of a single series,
// from which both renderings (JSONL and table) are derived.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;         // bare metric name
  Labels labels;            // sorted by key
  std::string export_name;  // flatten_name(name, labels)
  double value = 0;         // counters/gauges
  HistogramStats hist;      // histograms only
};

// Named metric store. Lookup creates on first use. Iteration order is the
// flattened-name order, so exports are deterministic.
class Registry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  // A second acquisition of an existing histogram must pass either empty
  // `bounds` (pure lookup) or the exact creation bounds; anything else is a
  // caller bug and trips FOURQ_CHECK (two call sites silently disagreeing
  // about bucket shape would corrupt every derived quantile).
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});
  // histogram() on the shared log-2 microsecond scale (latency_bounds_us).
  Histogram& latency_histogram(const std::string& name, const Labels& labels = {});

  // Zeroes every metric but keeps all entries (handles stay valid).
  void reset();

  // Structured point-in-time copy of every series, counters before gauges
  // before histograms, each group in flattened-name order.
  std::vector<MetricSnapshot> snapshot() const;

  // One JSON object per line: {"metric":EXPORT_NAME,"type":T,"value":V} for
  // counters/gauges (plus "labels" when present); histograms add
  // "count","sum","min","max","p50".."p999","buckets", followed by one
  // gauge line per quantile (metric `name.pNN{labels}`) so perf_regress
  // can gate percentiles directly.
  std::string to_jsonl() const;
  // Fixed-width human-readable listing.
  std::string to_table() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> v;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

}  // namespace fourq::obs

#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace fourq::obs {

namespace {

using json::format_number;

Labels sorted_labels(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
  }
  out += "}";
  return out;
}

constexpr double kQuantiles[4] = {0.5, 0.9, 0.99, 0.999};
constexpr const char* kQuantileSuffix[4] = {".p50", ".p90", ".p99", ".p999"};

}  // namespace

std::string flatten_name(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = sorted_labels(labels);
  std::string out = name + "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + json_escape(v) + "\"";
  }
  out += "}";
  return out;
}

void Gauge::set_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t c = buckets[i].second;
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      double lo = i == 0 ? 0.0 : buckets[i - 1].first;
      double hi = buckets[i].first;
      if (std::isinf(hi)) hi = max;
      // First non-empty bucket necessarily contains the observed minimum,
      // the last the maximum — tighten the interpolation edges to them.
      if (cum == 0) lo = std::max(lo, min);
      if (cum + c == count) hi = std::min(hi, max);
      double frac = (target - static_cast<double>(cum)) / static_cast<double>(c);
      double est = lo + (hi - lo) * frac;
      return std::clamp(est, min, max);
    }
    cum += c;
  }
  return max;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor, int count) {
  FOURQ_CHECK_MSG(start > 0 && factor > 1.0 && count > 0,
                  "exponential_bounds: need start > 0, factor > 1, count > 0");
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

const std::vector<double>& Histogram::latency_bounds_us() {
  static const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 24);
  return bounds;
}

void Histogram::observe(double x) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  ++counts_[i];
  if (count_ == 0 || x < min_) min_ = x;
  if (count_ == 0 || x > max_) max_ = x;
  ++count_;
  sum_ += x;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

uint64_t Histogram::bucket_count(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[i];
}

double Histogram::upper_bound(size_t i) const {
  return i < bounds_.size() ? bounds_[i] : std::numeric_limits<double>::infinity();
}

HistogramStats Histogram::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramStats s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.buckets.reserve(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i)
    s.buckets.emplace_back(i < bounds_.size() ? bounds_[i]
                                              : std::numeric_limits<double>::infinity(),
                           counts_[i]);
  return s;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[flatten_name(name, labels)];
  if (!slot.v) {
    slot.name = name;
    slot.labels = sorted_labels(labels);
    slot.v = std::make_unique<Counter>();
  }
  return *slot.v;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[flatten_name(name, labels)];
  if (!slot.v) {
    slot.name = name;
    slot.labels = sorted_labels(labels);
    slot.v = std::make_unique<Gauge>();
  }
  return *slot.v;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds,
                               const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[flatten_name(name, labels)];
  if (!slot.v) {
    slot.name = name;
    slot.labels = sorted_labels(labels);
    slot.v = std::make_unique<Histogram>(std::move(bounds));
  } else if (!bounds.empty()) {
    FOURQ_CHECK_MSG(bounds == slot.v->bounds(),
                    "histogram \"" + name +
                        "\" re-acquired with different bounds; pass empty bounds to look "
                        "up an existing histogram");
  }
  return *slot.v;
}

Histogram& Registry::latency_histogram(const std::string& name, const Labels& labels) {
  return histogram(name, Histogram::latency_bounds_us(), labels);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c.v->reset();
  for (auto& [key, g] : gauges_) g.v->reset();
  for (auto& [key, h] : histograms_) h.v->reset();
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, c] : counters_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.name = c.name;
    s.labels = c.labels;
    s.export_name = key;
    s.value = static_cast<double>(c.v->value());
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.name = g.name;
    s.labels = g.labels;
    s.export_name = key;
    s.value = g.v->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.name = h.name;
    s.labels = h.labels;
    s.export_name = key;
    s.hist = h.v->stats();
    out.push_back(std::move(s));
  }
  return out;
}

std::string Registry::to_jsonl() const {
  std::string out;
  for (const MetricSnapshot& s : snapshot()) {
    out += "{\"metric\":\"" + json_escape(s.export_name) + "\"";
    if (!s.labels.empty()) out += ",\"labels\":" + labels_json(s.labels);
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":" + format_number(s.value) + "}\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":" + format_number(s.value) + "}\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        out += ",\"type\":\"histogram\",\"count\":" + std::to_string(s.hist.count) +
               ",\"sum\":" + format_number(s.hist.sum) + ",\"min\":" + format_number(s.hist.min) +
               ",\"max\":" + format_number(s.hist.max);
        for (int qi = 0; qi < 4; ++qi)
          out += std::string(",\"") + (kQuantileSuffix[qi] + 1) +
                 "\":" + format_number(s.hist.quantile(kQuantiles[qi]));
        out += ",\"buckets\":[";
        for (size_t i = 0; i < s.hist.buckets.size(); ++i) {
          if (i) out += ",";
          out += "{\"le\":";
          double ub = s.hist.buckets[i].first;
          out += std::isinf(ub) ? "\"inf\"" : format_number(ub);
          out += ",\"count\":" + std::to_string(s.hist.buckets[i].second) + "}";
        }
        out += "]}\n";
        // One gauge line per quantile under the stable name `name.pNN{...}`
        // so perf_regress baselines can gate percentiles like any value.
        for (int qi = 0; qi < 4; ++qi) {
          out += "{\"metric\":\"" +
                 json_escape(flatten_name(s.name + kQuantileSuffix[qi], s.labels)) +
                 "\",\"type\":\"gauge\",\"value\":" +
                 format_number(s.hist.quantile(kQuantiles[qi])) + "}\n";
        }
        break;
      }
    }
  }
  return out;
}

std::string Registry::to_table() const {
  std::string out;
  char line[256];
  for (const MetricSnapshot& s : snapshot()) {
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        std::snprintf(line, sizeof line, "%-52s %16llu  counter\n", s.export_name.c_str(),
                      static_cast<unsigned long long>(s.value));
        break;
      case MetricSnapshot::Kind::kGauge:
        std::snprintf(line, sizeof line, "%-52s %16.4f  gauge\n", s.export_name.c_str(),
                      s.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        std::snprintf(line, sizeof line,
                      "%-52s %16llu  histogram (sum %.4g, p50 %.4g, p99 %.4g)\n",
                      s.export_name.c_str(),
                      static_cast<unsigned long long>(s.hist.count), s.hist.sum,
                      s.hist.quantile(0.5), s.hist.quantile(0.99));
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace fourq::obs

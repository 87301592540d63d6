// Shared pieces of the benchmark: clock, order statistics, the metric list
// printed at exit, and the benchmark's own span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "calibration.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps the compiler from discarding a computed value.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest-ranked sample with at least ten samples above it, and its
// percentile rank (share of samples at or below it). Needs 11 samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

inline Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const size_t i = v.size() - 11;
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
  return t;
}

// Median over `blocks` timed blocks of the cost of one operation, in ns at
// the reference host speed (calibration.hpp). fn() performs `ops`
// operations; each block repeats it enough times to last about `block_ms`.
template <class Fn>
double ns_per_op(Fn&& fn, double ops, int blocks = 15, double block_ms = 2.0) {
  int64_t t0 = now_ns();
  fn();
  const double once = static_cast<double>(std::max<int64_t>(1, now_ns() - t0));
  const int reps = std::max(1, static_cast<int>(block_ms * 1e6 / once));
  std::vector<double> per_op;
  per_op.reserve(static_cast<size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const double slow = slowdown(host_kernel_ns());
    t0 = now_ns();
    for (int r = 0; r < reps; ++r) fn();
    const double ns = static_cast<double>(now_ns() - t0);
    per_op.push_back(ns / slow / (reps * ops));
  }
  return median(per_op);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool available = true;  // false: the source is compiled out
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    slot(name) = Metric{name, value, unit, true};
  }
  void unavailable(const std::string& name, const std::string& unit) {
    slot(name) = Metric{name, 0.0, unit, false};
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : list_)
      if (m.name == name) return &m;
    return nullptr;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  Metric& slot(const std::string& name) {
    for (Metric& m : list_)
      if (m.name == name) return m;
    list_.push_back(Metric{name, 0.0, "", true});
    return list_.back();
  }
  std::vector<Metric> list_;
};

// The benchmark's own spans: one per call it makes into a library module,
// nested under a root span per top-level call. Held in memory, written at
// exit. A null Tracer* means an untraced run and records nothing.
struct SpanRecord {
  const char* name;
  int64_t start_ns, end_ns;
  int32_t parent;  // index into Tracer::spans, -1 for a root
  uint32_t call;   // burst, batch or MSM call id (cycle index)
  double scale;    // host time -> reference-speed time for this call
  double ns() const { return static_cast<double>(end_ns - start_ns) * scale; }
};

class Tracer {
 public:
  explicit Tracer(const std::string& scope) : scope_(scope) { spans_.reserve(1 << 16); }
  int32_t begin(const char* name, uint32_t call) {
    spans_.push_back(SpanRecord{name, now_ns(), 0, open_, call, 1.0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void end(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    open_ = spans_[static_cast<size_t>(id)].parent;
  }
  // Sets the reference-speed scale of every span recorded since `first`.
  void rescale_from(size_t first, double scale) {
    for (size_t i = first; i < spans_.size(); ++i) spans_[i].scale = scale;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::string& scope() const { return scope_; }

  // Reference-speed time of the spans named `name` whose call id satisfies
  // pred.
  template <class Pred>
  double total_ns(const std::string& name, Pred pred) const {
    double t = 0;
    for (const SpanRecord& s : spans_)
      if (name == s.name && pred(s.call)) t += s.ns();
    return t;
  }
  double total_ns(const std::string& name) const {
    return total_ns(name, [](uint32_t) { return true; });
  }
  size_t count(const std::string& name) const {
    size_t n = 0;
    for (const SpanRecord& s : spans_) n += name == s.name;
    return n;
  }

 private:
  std::string scope_;  // workload whose traffic these spans cover
  std::vector<SpanRecord> spans_;
  int32_t open_ = -1;
};

class Span {
 public:
  Span(Tracer* t, const char* name, uint32_t call = 0)
      : t_(t), id_(t ? t->begin(name, call) : -1) {}
  ~Span() {
    if (t_) t_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int32_t id_;
};

}  // namespace perfbench

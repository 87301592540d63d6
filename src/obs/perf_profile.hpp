// fourq.perf.v1 — hardware-counter profile artifacts built from the span
// tracer (docs/OBSERVABILITY.md).
//
// A profile is the span tracer's per-path aggregate (SpanTracer::profile()):
// one PerfSpanStat per *span path* (the ;-joined chain of ancestor names
// within one thread, e.g. "profile.flat_sm;asic.simulate_flat"), keeping
// sample counts, means and standard deviations of wall time and of every
// perfctr counter. Repeated runs of the same workload therefore turn
// directly into noise bars: each repetition contributes one more sample per
// path. The artifact states its counter source explicitly ("hardware" /
// "software" / "unavailable") so a zero is never mistaken for a measurement.
//
// On top of the aggregate:
//   perf_profile_json / parse_perf_profile  — the artifact itself
//   perf_diff / perf_diff_text — align two artifacts by span path and
//     report per-phase deltas with standard-error noise bars
//     (`fourqc perf diff A B`)
//   perf_folded — collapsed-stack flamegraph export ("a;b;c value" lines,
//     self time per path), consumable by flamegraph.pl / speedscope
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/perfctr.hpp"

namespace fourq::obs {

// Streaming mean/stddev accumulator (sum + sum of squares is plenty at the
// sample counts profiles see; values are microseconds or counter deltas).
struct PerfAccum {
  uint64_t n = 0;
  double sum = 0;
  double sumsq = 0;

  void add(double v) {
    ++n;
    sum += v;
    sumsq += v * v;
  }
  double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
  // Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double stddev() const;
  // Standard error of the mean — the noise bar on this path's estimate.
  double stderr_mean() const;
  // Reconstructs the accumulator from published (n, mean, stddev) — used by
  // the artifact parser so diffing needs no raw samples.
  static PerfAccum from_stats(uint64_t n, double mean, double stddev);
};

// One span path's aggregate. Counter accumulators only collect samples from
// spans that actually carried counters, tracked by perf_n.
struct PerfSpanStat {
  std::string path;   // "parent;child;..." within one thread
  std::string name;   // leaf name
  int depth = 0;
  PerfAccum wall_us;
  uint64_t perf_n = 0;  // spans with counters attached
  PerfAccum cycles, instructions, cache_refs, cache_misses, branch_misses, task_clock_ns;

  // Folds one completed span in; `perf` counts only when its source is not
  // kUnavailable (counters were live for the whole span).
  void add(double wall, const PerfDelta& perf = {});

  double ipc() const;              // total instructions / total cycles
  double cache_miss_rate() const;  // total misses / total references
};

struct PerfProfile {
  // Best source observed across all spans: "hardware", "software", or
  // "unavailable" (the artifact's explicit degradation marker).
  std::string counters = "unavailable";
  std::vector<PerfSpanStat> spans;  // sorted by path
};

// The fourq.perf.v1 document (one JSON object, trailing newline included).
std::string perf_profile_json(const PerfProfile& p, const std::string& machine_hash = "");

// Parses a fourq.perf.v1 document; returns false and sets *err on malformed
// input or a wrong schema.
bool parse_perf_profile(const std::string& text, PerfProfile* out, std::string* err);

// Collapsed-stack flamegraph: one "path self_value\n" line per span path,
// where self_value is the path's total minus its direct children's totals
// (cycles when the profile has hardware counters, else wall microseconds).
std::string perf_folded(const PerfProfile& p);

// One aligned row of a differential profile.
struct PerfDiffRow {
  std::string path;
  bool in_base = false, in_current = false;
  double base_mean = 0, cur_mean = 0;   // of the compared metric
  uint64_t base_n = 0, cur_n = 0;
  double delta_pct = 0;                 // 100 * (cur - base) / base
  double noise = 0;                     // combined standard error, metric units
  bool significant = false;             // |cur - base| > 2 * noise
};

struct PerfDiffReport {
  std::string metric;  // "cycles" (both hardware) or "wall_us" (fallback)
  std::vector<PerfDiffRow> rows;  // union of paths, sorted
};

// Aligns two profiles by span path. Compares mean cycles per path when both
// artifacts carry hardware counters, mean wall microseconds otherwise.
PerfDiffReport perf_diff(const PerfProfile& base, const PerfProfile& current);

std::string perf_diff_text(const PerfDiffReport& r);

}  // namespace fourq::obs

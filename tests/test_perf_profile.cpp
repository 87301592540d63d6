// fourq.perf.v1 profile tests: span-path aggregation, artifact
// round-trip, flamegraph folding, differential reports, and the perfctr
// sampling layer's degradation contract (hardware -> software ->
// unavailable must never turn into silent zeros).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/perf_profile.hpp"
#include "obs/perfctr.hpp"

namespace fourq {
namespace {

using obs::PerfAccum;
using obs::PerfProfile;
using obs::PerfSpanStat;

// Synthetic profiles with exact durations: each sample goes through
// PerfSpanStat::add, the same fold SpanTracer::end() applies to a closing
// span, keyed by its ;-joined path.
struct ProfileBuilder {
  std::map<std::string, PerfSpanStat> stats;
  obs::PerfSource best = obs::PerfSource::kUnavailable;

  ProfileBuilder& span(const std::string& path, double wall_us,
                       const obs::PerfDelta& perf = {}) {
    PerfSpanStat& st = stats[path];
    if (st.path.empty()) {
      size_t cut = path.rfind(';');
      st.path = path;
      st.name = cut == std::string::npos ? path : path.substr(cut + 1);
      st.depth = static_cast<int>(std::count(path.begin(), path.end(), ';'));
    }
    st.add(wall_us, perf);
    if (perf.source > best) best = perf.source;
    return *this;
  }
  PerfProfile profile() const {
    PerfProfile p;
    p.counters = obs::perf_source_name(best);
    for (const auto& [path, st] : stats) p.spans.push_back(st);
    return p;
  }
};

obs::PerfDelta hw(uint64_t cycles, uint64_t instructions) {
  obs::PerfDelta d;
  d.cycles = cycles;
  d.instructions = instructions;
  d.cache_refs = 100;
  d.cache_misses = 10;
  d.source = obs::PerfSource::kHardware;
  return d;
}

// Two repetitions of run{phase_a, phase_b} on one thread, plus an unrelated
// top-level span on a second thread.
ProfileBuilder two_reps() {
  ProfileBuilder b;
  b.span("run;phase_a", 30).span("run;phase_b", 40).span("run", 100);
  b.span("run;phase_a", 34).span("run;phase_b", 44).span("run", 120);
  b.span("io", 7);
  return b;
}

TEST(PerfAccum, StatsAndReconstruction) {
  PerfAccum a;
  for (double v : {10.0, 12.0, 14.0}) a.add(v);
  EXPECT_EQ(a.n, 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 12.0);
  EXPECT_NEAR(a.stddev(), 2.0, 1e-9);
  EXPECT_NEAR(a.stderr_mean(), 2.0 / std::sqrt(3.0), 1e-9);

  PerfAccum b = PerfAccum::from_stats(a.n, a.mean(), a.stddev());
  EXPECT_EQ(b.n, a.n);
  EXPECT_NEAR(b.mean(), a.mean(), 1e-9);
  EXPECT_NEAR(b.stddev(), a.stddev(), 1e-6);

  PerfAccum empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stderr_mean(), 0.0);
}

TEST(PerfProfile, PathReconstructionAcrossThreads) {
  // The tracer resolves each span's path from its own thread's open stack:
  // the second thread's top-level span is a root even while `run` is open
  // on the first.
  obs::SpanTracer t;
  for (int rep = 0; rep < 2; ++rep) {
    obs::ScopedSpan run(t, "run");
    { obs::ScopedSpan a(t, "phase_a"); }
    { obs::ScopedSpan b(t, "phase_b"); }
    if (rep == 0) std::thread([&t] { obs::ScopedSpan io(t, "io"); }).join();
  }
  PerfProfile p = t.profile();
  ASSERT_EQ(p.spans.size(), 4u);  // sorted by path
  EXPECT_EQ(p.spans[0].path, "io");
  EXPECT_EQ(p.spans[1].path, "run");
  EXPECT_EQ(p.spans[2].path, "run;phase_a");
  EXPECT_EQ(p.spans[3].path, "run;phase_b");
  EXPECT_EQ(p.spans[0].wall_us.n, 1u);

  // Both repetitions aggregate into one path with noise statistics.
  const PerfSpanStat& a = p.spans[2];
  EXPECT_EQ(a.name, "phase_a");
  EXPECT_EQ(a.depth, 1);
  EXPECT_EQ(a.wall_us.n, 2u);
  PerfProfile synthetic = two_reps().profile();
  const PerfSpanStat& fixed = synthetic.spans[2];
  EXPECT_EQ(fixed.path, "run;phase_a");
  EXPECT_DOUBLE_EQ(fixed.wall_us.mean(), 32.0);
  EXPECT_GT(fixed.wall_us.stddev(), 0.0);

  // No counters attached anywhere -> the artifact says so explicitly.
  EXPECT_EQ(p.counters, "unavailable");
  EXPECT_EQ(a.perf_n, 0u);
}

TEST(PerfProfile, SubMicrosecondSiblingsKeepTheirParents) {
  // Spans far shorter than the microsecond clock: sibling `b` routinely
  // starts in the same microsecond `a` ended, so a path rebuilt from start
  // times can file `b`'s child under `a`. Paths resolved at begin() cannot.
  obs::SpanTracer t;
  constexpr int kReps = 2000;
  for (int i = 0; i < kReps; ++i) {
    {
      obs::ScopedSpan a(t, "a");
      obs::ScopedSpan x(t, "x");
    }
    {
      obs::ScopedSpan b(t, "b");
      obs::ScopedSpan y(t, "y");
    }
  }
  PerfProfile p = t.profile();
  std::vector<std::string> paths;
  for (const PerfSpanStat& s : p.spans) {
    paths.push_back(s.path);
    EXPECT_EQ(s.wall_us.n, static_cast<uint64_t>(kReps)) << s.path;
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"a", "a;x", "b", "b;y"}));
}

TEST(PerfProfile, HardwareCountersAggregate) {
  PerfProfile p = ProfileBuilder().span("run", 100, hw(1000, 2000))
                      .span("run", 100, hw(3000, 6000))
                      .profile();
  EXPECT_EQ(p.counters, "hardware");
  ASSERT_EQ(p.spans.size(), 1u);
  const PerfSpanStat& s = p.spans[0];
  EXPECT_EQ(s.perf_n, 2u);
  EXPECT_DOUBLE_EQ(s.cycles.mean(), 2000.0);
  EXPECT_DOUBLE_EQ(s.ipc(), 2.0);  // 8000 instructions / 4000 cycles
  EXPECT_DOUBLE_EQ(s.cache_miss_rate(), 0.1);
}

TEST(PerfProfile, JsonRoundTrip) {
  PerfProfile p = two_reps().span("run", 110, hw(5000, 9000)).profile();
  std::string doc = obs::perf_profile_json(p, "beef");

  // It is one well-formed JSON object with provenance.
  std::string jerr;
  obs::json::ValuePtr v = obs::json::parse(doc, &jerr);
  ASSERT_TRUE(jerr.empty()) << jerr;
  EXPECT_EQ(v->at("schema").string(), "fourq.perf.v1");
  EXPECT_EQ(v->at("provenance").at("machine_hash").string(), "beef");

  PerfProfile q;
  std::string err;
  ASSERT_TRUE(obs::parse_perf_profile(doc, &q, &err)) << err;
  EXPECT_EQ(q.counters, p.counters);
  ASSERT_EQ(q.spans.size(), p.spans.size());
  for (size_t i = 0; i < p.spans.size(); ++i) {
    EXPECT_EQ(q.spans[i].path, p.spans[i].path);
    EXPECT_EQ(q.spans[i].wall_us.n, p.spans[i].wall_us.n);
    EXPECT_NEAR(q.spans[i].wall_us.mean(), p.spans[i].wall_us.mean(), 1e-6);
    EXPECT_NEAR(q.spans[i].wall_us.stddev(), p.spans[i].wall_us.stddev(), 1e-3);
    EXPECT_EQ(q.spans[i].perf_n, p.spans[i].perf_n);
  }

  // Malformed input and wrong schema both fail with a message.
  PerfProfile bad;
  EXPECT_FALSE(obs::parse_perf_profile("{\"schema\":\"fourq.metrics.v1\"}", &bad, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(obs::parse_perf_profile("not json", &bad, &err));
}

TEST(PerfProfile, FoldedSelfTime) {
  PerfProfile p = two_reps().profile();
  std::string folded = obs::perf_folded(p);

  // Each line is "path self_value"; `run` self time excludes its children:
  // total 220 - (64 + 84) = 72 us across the two repetitions.
  EXPECT_NE(folded.find("io 7"), std::string::npos);
  EXPECT_NE(folded.find("run 72"), std::string::npos);
  EXPECT_NE(folded.find("run;phase_a 64"), std::string::npos);
  EXPECT_NE(folded.find("run;phase_b 84"), std::string::npos);
  // Well-formed collapsed-stack lines: non-empty, exactly one trailing value.
  size_t pos = 0;
  int lines = 0;
  while (pos < folded.size()) {
    size_t nl = folded.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    std::string line = folded.substr(pos, nl - pos);
    pos = nl + 1;
    ++lines;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(sp, 0u) << line;
  }
  EXPECT_EQ(lines, 4);
}

TEST(PerfDiff, AlignedDeltasAndNoise) {
  ProfileBuilder base_b, cur_b;
  // Same workload measured 3x each; phase_a doubles, phase_b is unchanged,
  // "gone" exists only in base and "new" only in current.
  for (int rep = 0; rep < 3; ++rep) {
    base_b.span("phase_a", 100).span("phase_b", 50).span("gone", 10);
    cur_b.span("phase_a", 200).span("phase_b", 50).span("new", 10);
  }
  PerfProfile base = base_b.profile();
  PerfProfile cur = cur_b.profile();

  obs::PerfDiffReport r = obs::perf_diff(base, cur);
  EXPECT_EQ(r.metric, "wall_us");  // no hardware counters on either side
  ASSERT_EQ(r.rows.size(), 4u);    // union of paths, sorted

  for (const obs::PerfDiffRow& row : r.rows) {
    if (row.path == "phase_a") {
      EXPECT_TRUE(row.in_base && row.in_current);
      EXPECT_NEAR(row.delta_pct, 100.0, 1e-9);
      EXPECT_TRUE(row.significant);  // zero variance -> zero noise
    } else if (row.path == "phase_b") {
      EXPECT_NEAR(row.delta_pct, 0.0, 1e-9);
      EXPECT_FALSE(row.significant);
    } else if (row.path == "gone") {
      EXPECT_TRUE(row.in_base);
      EXPECT_FALSE(row.in_current);
    } else if (row.path == "new") {
      EXPECT_FALSE(row.in_base);
      EXPECT_TRUE(row.in_current);
    } else {
      ADD_FAILURE() << "unexpected path " << row.path;
    }
  }

  // Text report names the metric and flags the regression.
  std::string text = obs::perf_diff_text(r);
  EXPECT_NE(text.find("phase_a"), std::string::npos);
  EXPECT_NE(text.find("SLOWER"), std::string::npos);
  EXPECT_NE(text.find("NEW"), std::string::npos);
  EXPECT_NE(text.find("GONE"), std::string::npos);

  // JSON report parses and carries the same verdicts.
  std::string jerr;
  obs::json::ValuePtr v = obs::json::parse(obs::perf_diff_json(r), &jerr);
  ASSERT_TRUE(jerr.empty()) << jerr;
  EXPECT_EQ(v->at("schema").string(), "fourq.perfdiff.v1");
  EXPECT_EQ(v->at("metric").string(), "wall_us");
  EXPECT_EQ(v->at("rows").arr.size(), 4u);

  // With hardware counters on both sides, the compared metric is cycles.
  PerfProfile hb = ProfileBuilder().span("x", 10, hw(100, 200)).profile();
  PerfProfile hc = ProfileBuilder().span("x", 10, hw(150, 300)).profile();
  obs::PerfDiffReport hr = obs::perf_diff(hb, hc);
  EXPECT_EQ(hr.metric, "cycles");
  ASSERT_EQ(hr.rows.size(), 1u);
  EXPECT_NEAR(hr.rows[0].delta_pct, 50.0, 1e-9);
}

TEST(PerfCtr, DeltaSaturatesAndDerivedRates) {
  obs::PerfSample a, b;
  a.cycles = 1000;
  a.instructions = 500;
  a.task_clock_ns = 10;
  a.source = obs::PerfSource::kHardware;
  b.cycles = 4000;
  b.instructions = 6500;
  b.task_clock_ns = 5;  // multiplex-scaling wobble: end < begin saturates to 0
  b.source = obs::PerfSource::kHardware;
  obs::PerfDelta d = obs::perf_delta(a, b);
  EXPECT_EQ(d.cycles, 3000u);
  EXPECT_EQ(d.instructions, 6000u);
  EXPECT_EQ(d.task_clock_ns, 0u);
  EXPECT_DOUBLE_EQ(d.ipc(), 2.0);
  EXPECT_EQ(d.source, obs::PerfSource::kHardware);

  // The delta's source is the weaker of the two samples.
  b.source = obs::PerfSource::kSoftware;
  EXPECT_EQ(obs::perf_delta(a, b).source, obs::PerfSource::kSoftware);

  EXPECT_STREQ(obs::perf_source_name(obs::PerfSource::kUnavailable), "unavailable");
  EXPECT_STREQ(obs::perf_source_name(obs::PerfSource::kSoftware), "software");
  EXPECT_STREQ(obs::perf_source_name(obs::PerfSource::kHardware), "hardware");
}

TEST(PerfCtr, DisabledSamplingReadsUnavailable) {
  obs::perf_set_enabled(false);
  obs::PerfSample s = obs::perf_read_thread();
  EXPECT_EQ(s.source, obs::PerfSource::kUnavailable);
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.task_clock_ns, 0u);
  EXPECT_FALSE(obs::perf_enabled());
}

TEST(PerfCtr, EnabledSamplingDegradesExplicitly) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::perf_set_enabled(true);
  obs::PerfSample first = obs::perf_read_thread();
  // Whatever the kernel allowed (hardware, software fallback, or nothing in
  // a locked-down container), the sample must say so and the per-thread
  // source must agree with it.
  EXPECT_EQ(first.source, obs::perf_thread_source());
  if (first.source == obs::PerfSource::kUnavailable) {
    obs::perf_set_enabled(false);
    GTEST_SKIP() << "perf_event_open unavailable here — degradation verified";
  }
  // Counters are cumulative: burn some CPU, read again, the clock advanced.
  volatile double sink = 1.0;
  for (int i = 0; i < 2000000; ++i) sink = sink * 1.0000001 + 1e-9;
  obs::PerfSample second = obs::perf_read_thread();
  obs::PerfDelta d = obs::perf_delta(first, second);
  EXPECT_NE(d.source, obs::PerfSource::kUnavailable);
  EXPECT_GT(d.task_clock_ns, 0u);
  if (first.source == obs::PerfSource::kHardware) {
    EXPECT_GT(d.cycles, 0u);
  }
  obs::perf_set_enabled(false);
}

}  // namespace
}  // namespace fourq

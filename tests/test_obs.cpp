// Telemetry layer tests: metric semantics, span nesting, Chrome trace
// export well-formedness, the JSON reader (with a seeded fuzz loop over
// every artifact reader), and the golden event-stream
// check — SimStats derived from the published cycle events must equal the
// simulator's own stats on the Table I loop body.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "asic/simulator.hpp"
#include "common/rng.hpp"
#include "curve/point.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/perf_profile.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace fourq {
namespace {

using obs::Registry;
using obs::SpanTracer;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Metrics, CounterSemantics) {
  Registry reg;
  obs::Counter& c = reg.counter("a.calls");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup by the same name returns the same instance.
  EXPECT_EQ(&reg.counter("a.calls"), &c);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // handle survives reset with value zeroed
  c.inc(7);
  EXPECT_EQ(reg.counter("a.calls").value(), 7u);
}

TEST(Metrics, GaugeSemantics) {
  Registry reg;
  obs::Gauge& g = reg.gauge("makespan");
  g.set(25);
  g.set(23.5);
  EXPECT_DOUBLE_EQ(g.value(), 23.5);
  reg.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBuckets) {
  Registry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow
  for (double x : {0.5, 1.0, 5.0, 50.0, 1000.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1056.5);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0.5 and the inclusive bound 1.0
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.upper_bound(1), 10.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST(Metrics, JsonlExportParses) {
  Registry reg;
  reg.counter("sim.cycles").inc(1973);
  reg.gauge("sched.makespan").set(25);
  reg.histogram("span.dur", {10.0, 100.0}).observe(42.0);

  std::string err;
  auto lines = obs::json::parse_lines(reg.to_jsonl(), &err);
  ASSERT_TRUE(err.empty()) << err;
  // counter + gauge + histogram + 4 derived quantile gauges (p50/p90/p99/p999)
  ASSERT_EQ(lines.size(), 7u);
  for (const auto& v : lines) {
    ASSERT_TRUE(v->is_object());
    EXPECT_TRUE(v->has("metric"));
    EXPECT_TRUE(v->has("type"));
  }
  // The derived quantile lines carry the histogram's only sample.
  bool saw_p99 = false;
  for (const auto& v : lines)
    if (v->at("metric").string() == "span.dur.p99") {
      EXPECT_EQ(v->at("type").string(), "gauge");
      EXPECT_DOUBLE_EQ(v->at("value").number(), 42.0);
      saw_p99 = true;
    }
  EXPECT_TRUE(saw_p99);
  // Counters sort before gauges before histograms within the export.
  bool found = false;
  for (const auto& v : lines)
    if (v->at("metric").string() == "sim.cycles") {
      EXPECT_EQ(v->at("type").string(), "counter");
      EXPECT_DOUBLE_EQ(v->at("value").number(), 1973.0);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, LabeledSeriesIdentity) {
  Registry reg;
  obs::Counter& a = reg.counter("msm.calls", {{"backend", "straus"}});
  obs::Counter& b = reg.counter("msm.calls", {{"backend", "pippenger"}});
  obs::Counter& plain = reg.counter("msm.calls");
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &plain);
  a.inc(3);
  b.inc(5);
  plain.inc(8);

  // Label order is irrelevant: the sorted flattened name is the identity.
  obs::Counter& two = reg.counter("q", {{"worker", "1"}, {"kind", "sm"}});
  EXPECT_EQ(&reg.counter("q", {{"kind", "sm"}, {"worker", "1"}}), &two);
  EXPECT_EQ(obs::flatten_name("q", {{"worker", "1"}, {"kind", "sm"}}),
            "q{kind=\"sm\",worker=\"1\"}");
  EXPECT_EQ(obs::flatten_name("q", {}), "q");

  // Every labeled series exports under its own flattened name.
  std::string err;
  auto lines = obs::json::parse_lines(reg.to_jsonl(), &err);
  ASSERT_TRUE(err.empty()) << err;
  std::map<std::string, double> by_name;
  for (const auto& v : lines) by_name[v->at("metric").string()] = v->at("value").number();
  EXPECT_DOUBLE_EQ(by_name.at("msm.calls{backend=\"straus\"}"), 3.0);
  EXPECT_DOUBLE_EQ(by_name.at("msm.calls{backend=\"pippenger\"}"), 5.0);
  EXPECT_DOUBLE_EQ(by_name.at("msm.calls"), 8.0);

  // snapshot() carries the structured label set alongside the export name.
  bool found = false;
  for (const obs::MetricSnapshot& s : reg.snapshot())
    if (s.export_name == "msm.calls{backend=\"straus\"}") {
      EXPECT_EQ(s.name, "msm.calls");
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "backend");
      EXPECT_EQ(s.labels[0].second, "straus");
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, HistogramBoundsConflictRejected) {
  Registry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 10.0});
  // Pure lookup (empty bounds) and exact-match bounds both return the
  // original instance.
  EXPECT_EQ(&reg.histogram("lat", {}), &h);
  EXPECT_EQ(&reg.histogram("lat", {1.0, 10.0}), &h);
  // Different bounds for the same series is a caller bug.
  EXPECT_THROW(reg.histogram("lat", {5.0, 50.0}), std::logic_error);
  EXPECT_THROW(reg.histogram("lat", {1.0, 10.0, 100.0}), std::logic_error);

  // reset() keeps the handle valid and the bucket shape intact.
  h.observe(3.0);
  reg.reset();
  EXPECT_EQ(h.count(), 0u);
  ASSERT_EQ(h.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h.bounds()[1], 10.0);
  EXPECT_EQ(&reg.histogram("lat", {1.0, 10.0}), &h);  // same bounds still accepted
  h.observe(2.0);
  EXPECT_EQ(reg.histogram("lat", {}).count(), 1u);
}

TEST(Metrics, QuantileKnownAnswers) {
  // Single observation: every quantile is that value.
  {
    obs::Histogram h(obs::Histogram::latency_bounds_us());
    h.observe(137.0);
    for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 137.0);
  }
  // Uniform 1..10000 on the shared log-2 scale: interpolation keeps the
  // estimate within one bucket (factor 2), and q=0/q=1 are exact.
  {
    obs::Histogram h(obs::Histogram::latency_bounds_us());
    for (int i = 1; i <= 10000; ++i) h.observe(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10000.0);
    struct Case {
      double q, exact;
    } cases[] = {{0.5, 5000.0}, {0.9, 9000.0}, {0.99, 9900.0}, {0.999, 9990.0}};
    for (const Case& c : cases) {
      double est = h.quantile(c.q);
      EXPECT_GT(est, c.exact / 2.0) << "q=" << c.q;
      EXPECT_LT(est, c.exact * 2.0) << "q=" << c.q;
    }
    // Monotone in q.
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
    EXPECT_LE(h.quantile(0.99), h.quantile(0.999));
  }
  // Heavy tail: most mass at the bottom, a few large outliers. p50 must stay
  // near the mass, p99.9 near the outliers, and estimates clamp to [min,max].
  {
    obs::Histogram h(obs::Histogram::latency_bounds_us());
    for (int i = 0; i < 990; ++i) h.observe(10.0);
    for (int i = 0; i < 10; ++i) h.observe(100000.0);
    EXPECT_LE(h.quantile(0.5), 16.0);
    EXPECT_GE(h.quantile(0.999), 50000.0);
    EXPECT_LE(h.quantile(0.999), 100000.0);
    EXPECT_GE(h.quantile(0.0), 10.0);
  }
  // Empty histogram degrades to zero.
  {
    obs::Histogram h({1.0, 2.0});
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  }
}

TEST(Flight, CapacityAndEviction) {
  obs::FlightRecorder f(1024);
  const size_t baseline_mem = f.memory_bytes();

  for (int i = 0; i < 10000; ++i)
    f.record(obs::FlightKind::kTask, "engine.task.sm", static_cast<uint64_t>(i), 5, i % 8);
  EXPECT_EQ(f.recorded(), 10000u);
  EXPECT_EQ(f.capacity(), 1024u);
  EXPECT_EQ(f.size(), 1024u);            // bounded by capacity
  EXPECT_EQ(f.evicted(), 10000u - 1024u);
  // Fixed memory: the ring never grows past its initial allocation (the only
  // growth allowed is the bounded name table).
  EXPECT_LE(f.memory_bytes(), baseline_mem + 4096);

  // Ring holds the *newest* events, oldest first.
  std::vector<obs::FlightRecorder::Event> ev = f.snapshot();
  ASSERT_EQ(ev.size(), 1024u);
  EXPECT_EQ(ev.front().t_us, 10000u - 1024u);
  EXPECT_EQ(ev.back().t_us, 9999u);
  EXPECT_EQ(ev.back().name, "engine.task.sm");

  // The Chrome trace carries the ring's bookkeeping in otherData.
  std::string err;
  obs::json::ValuePtr v = obs::json::parse(f.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v->at("traceEvents").arr.size(), 1024u);
  const obs::json::Value& other = v->at("otherData");
  EXPECT_DOUBLE_EQ(other.at("capacity").number(), 1024.0);
  EXPECT_DOUBLE_EQ(other.at("recorded").number(), 10000.0);
  EXPECT_DOUBLE_EQ(other.at("evicted").number(), 10000.0 - 1024.0);

  f.reset();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.recorded(), 0u);
  EXPECT_EQ(f.capacity(), 1024u);
}

// Spans and engine tasks are stamped on one clock (mono_us), so a span and
// a task recorded back to back sit side by side in the Chrome trace, each
// on its own track.
TEST(Flight, SpansAndTasksShareOneClock) {
  obs::Telemetry tel;
  {
    obs::ScopedSpan s(tel.spans, "engine.run");
  }
  const int worker = 3;
  tel.flight.record(obs::FlightKind::kTask, "engine.task.verify", obs::mono_us(), 7, worker);

  std::string err;
  obs::json::ValuePtr v = obs::json::parse(tel.flight.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const obs::json::Value& events = v->at("traceEvents");
  ASSERT_EQ(events.arr.size(), 2u);
  const obs::json::Value& span = events.at(0);
  const obs::json::Value& task = events.at(1);
  EXPECT_EQ(span.at("name").string(), "engine.run");
  EXPECT_EQ(task.at("name").string(), "engine.task.verify");
  for (const obs::json::Value* e : {&span, &task}) EXPECT_EQ(e->at("ph").string(), "X");
  EXPECT_EQ(span.at("pid").number(), 1.0);
  EXPECT_EQ(span.at("tid").number(), 1.0);  // the tracer's first thread
  EXPECT_EQ(task.at("pid").number(), 2.0);
  EXPECT_EQ(task.at("tid").number(), static_cast<double>(worker));
  EXPECT_EQ(task.at("dur").number(), 7.0);
  EXPECT_LT(std::fabs(task.at("ts").number() - span.at("ts").number()), 1e6)
      << "span ts " << span.at("ts").number() << ", task ts " << task.at("ts").number();
}

TEST(Spans, ThreadChurnReleasesBookkeeping) {
  obs::Telemetry tel;
  SpanTracer& t = tel.spans;
  {
    obs::ScopedSpan s(t, "main.anchor");
  }
  const size_t base_threads = t.tracked_threads();

  // 64 short-lived workers, each tracing properly nested spans. After every
  // thread has exited, its bookkeeping must be gone — a tracer that keyed
  // stacks by std::thread::id would both leak entries and cross-wire reused
  // ids here.
  for (int round = 0; round < 4; ++round) {
    std::vector<std::thread> workers;
    for (int i = 0; i < 16; ++i)
      workers.emplace_back([&t] {
        obs::ScopedSpan outer(t, "worker.outer");
        obs::ScopedSpan inner(t, "worker.inner");
      });
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(t.tracked_threads(), base_threads);
  EXPECT_EQ(t.open_stacks(), 0u);
  EXPECT_EQ(t.count("worker.outer"), 64u);
  EXPECT_EQ(t.count("worker.inner"), 64u);
  EXPECT_EQ(t.abandoned_spans(), 0u);

  // A thread that exits with spans still open abandons them instead of
  // leaving an orphaned stack behind.
  std::thread leaker([&t] { t.begin("worker.leak"); });
  leaker.join();
  EXPECT_EQ(t.tracked_threads(), base_threads);
  EXPECT_EQ(t.open_stacks(), 0u);
  EXPECT_EQ(t.abandoned_spans(), 1u);
  EXPECT_EQ(t.count("worker.leak"), 0u);  // never completed

  // The tracer still works for surviving threads and the trace stays valid.
  {
    obs::ScopedSpan s(t, "main.after");
  }
  EXPECT_EQ(t.count("main.after"), 1u);
  std::string err;
  obs::json::parse(tel.flight.chrome_trace_json(), &err);
  EXPECT_TRUE(err.empty()) << err;
}

// Every span folds into its path's aggregate as it closes, so the tracer's
// memory is bounded by the number of distinct paths: a million spans must
// not grow the process (the old per-span store kept ~145 bytes each).
TEST(Spans, MemoryFlatAcrossAMillionSpans) {
  auto max_rss_kb = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<long>(ru.ru_maxrss);
  };
  obs::Telemetry tel;
  SpanTracer& t = tel.spans;
  for (int i = 0; i < 1000; ++i) {  // warm up: the path and thread exist
    t.begin("memory.outer.span");
    t.end();
  }
  const long before = max_rss_kb();
  constexpr int kSpans = 1000000;
  for (int i = 0; i < kSpans; ++i) {
    t.begin("memory.outer.span");
    t.end();
  }
  const long grown_kb = max_rss_kb() - before;
  EXPECT_LE(grown_kb, 8 * 1024) << "max RSS grew " << grown_kb << " KB over " << kSpans
                                << " spans";
  EXPECT_EQ(t.count("memory.outer.span"), static_cast<size_t>(kSpans) + 1000);
  EXPECT_EQ(tel.flight.recorded(), static_cast<uint64_t>(kSpans) + 1000);
  EXPECT_LE(tel.flight.size(), tel.flight.capacity());
}

TEST(Provenance, HeaderShape) {
  obs::Provenance p = obs::make_provenance("fourq.metrics.v1", "0f3a");
  EXPECT_EQ(p.schema, "fourq.metrics.v1");
  EXPECT_EQ(p.version, 1);
  EXPECT_EQ(p.machine_hash, "0f3a");
  EXPECT_FALSE(p.git_sha.empty());
  // ISO-8601 Zulu: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(p.timestamp_utc.size(), 20u);
  EXPECT_EQ(p.timestamp_utc[10], 'T');
  EXPECT_EQ(p.timestamp_utc.back(), 'Z');

  std::string err;
  obs::json::ValuePtr v = obs::json::parse(obs::provenance_json(p), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v->at("schema").string(), "fourq.metrics.v1");
  EXPECT_EQ(v->at("git_sha").string(), p.git_sha);
  EXPECT_EQ(v->at("machine_hash").string(), "0f3a");
  EXPECT_DOUBLE_EQ(v->at("version").number(), 1.0);

  // The JSONL header form ends with exactly one newline and is a lone line.
  std::string line = obs::provenance_line("fourq.bench.v1");
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  auto lines = obs::json::parse_lines(line, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_FALSE(lines[0]->has("metric"));  // perf_regress skips it
}

TEST(Exporter, SnapshotRoundTrip) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "fourq_obs_exporter_test";
  fs::remove_all(dir);

  obs::Telemetry tel;
  tel.metrics.counter("engine.worker.tasks", {{"worker", "0"}}).inc(17);
  obs::Histogram& h = tel.metrics.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i * 10));
  tel.flight.record(obs::FlightKind::kTask, "engine.task.sm", obs::mono_us(), 5, 2);

  obs::ExporterOptions opt;
  opt.dir = dir.string();
  opt.machine_hash = "cafe";
  obs::SnapshotExporter exp(tel, opt);
  ASSERT_TRUE(exp.write_snapshot());

  // One file per kind of telemetry, and none of the retired formats.
  for (const char* f : {"metrics.jsonl", "trace.json"}) EXPECT_TRUE(fs::exists(dir / f)) << f;
  for (const char* f : {"metrics.prom", "flight.json", "metrics.json"})
    EXPECT_FALSE(fs::exists(dir / f)) << f;

  // metrics.jsonl: provenance header + labeled series with quantiles.
  std::string err;
  std::vector<obs::json::ValuePtr> lines =
      obs::validate_metrics_jsonl(read_file(dir / "metrics.jsonl"), &err);
  ASSERT_FALSE(lines.empty()) << err;
  EXPECT_EQ(lines[0]->at("schema").string(), "fourq.metrics.v1");
  EXPECT_EQ(lines[0]->at("machine_hash").string(), "cafe");
  bool saw_counter = false, saw_hist = false;
  for (const auto& m : lines) {
    if (!m->has("metric")) continue;
    if (m->at("metric").string() == "engine.worker.tasks{worker=\"0\"}") {
      EXPECT_EQ(m->at("labels").at("worker").string(), "0");
      EXPECT_DOUBLE_EQ(m->at("value").number(), 17.0);
      saw_counter = true;
    }
    if (m->at("metric").string() == "engine.queue.wait_us{kind=\"sm\"}") {
      EXPECT_EQ(m->at("type").string(), "histogram");
      EXPECT_DOUBLE_EQ(m->at("count").number(), 100.0);
      double p50 = m->at("p50").number();
      double p99 = m->at("p99").number();
      EXPECT_GT(p50, 250.0);   // exact median 505 on a factor-2 scale
      EXPECT_LT(p50, 1010.0);
      EXPECT_GE(p99, p50);
      EXPECT_LE(p99, 1000.0);  // clamped to the observed max
      saw_hist = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);

  // trace.json is the flight ring's Chrome trace, holding the recorded task.
  obs::json::ValuePtr trace = obs::json::parse(read_file(dir / "trace.json"), &err);
  ASSERT_TRUE(trace) << err;
  const obs::json::Value& events = trace->at("traceEvents");
  ASSERT_EQ(events.arr.size(), 1u);
  EXPECT_EQ(events.at(0).at("name").string(), "engine.task.sm");
  EXPECT_EQ(events.at(0).at("ph").string(), "X");
  EXPECT_EQ(events.at(0).at("tid").number(), 2.0);

  // A second snapshot replaces the first (atomic rename kept the previous
  // file readable throughout).
  ASSERT_TRUE(exp.write_snapshot());
  EXPECT_EQ(exp.snapshots_written(), 2u);

  fs::remove_all(dir);
}

TEST(Spans, NestingDepths) {
  obs::Telemetry tel;
  SpanTracer& t = tel.spans;
  t.begin("outer");
  EXPECT_EQ(t.open_depth(), 1);
  {
    obs::ScopedSpan inner(t, "inner");
    EXPECT_EQ(t.open_depth(), 2);
  }
  t.end();
  EXPECT_EQ(t.open_depth(), 0);

  // One aggregate per path; depth reflects nesting at begin.
  obs::PerfProfile p = t.profile();
  ASSERT_EQ(p.spans.size(), 2u);
  EXPECT_EQ(p.spans[0].path, "outer");
  EXPECT_EQ(p.spans[0].depth, 0);
  EXPECT_EQ(p.spans[1].path, "outer;inner");
  EXPECT_EQ(p.spans[1].name, "inner");
  EXPECT_EQ(p.spans[1].depth, 1);
  EXPECT_EQ(p.spans[0].wall_us.n, 1u);
  EXPECT_EQ(p.spans[1].wall_us.n, 1u);
  EXPECT_GE(p.spans[0].wall_us.sum, p.spans[1].wall_us.sum);

  // The raw spans live in the flight ring, in completion order (children
  // first); the parent encloses the child on the timeline.
  std::string err;
  obs::json::ValuePtr v = obs::json::parse(tel.flight.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const obs::json::Value& events = v->at("traceEvents");
  ASSERT_EQ(events.arr.size(), 2u);
  EXPECT_EQ(events.at(0).at("name").string(), "inner");
  EXPECT_EQ(events.at(1).at("name").string(), "outer");
  EXPECT_GE(events.at(1).at("dur").number(), events.at(0).at("dur").number());
  EXPECT_LE(events.at(1).at("ts").number(), events.at(0).at("ts").number());

  t.reset();
  EXPECT_TRUE(t.profile().spans.empty());
  EXPECT_EQ(t.count("outer"), 0u);
}

TEST(Spans, ChromeTraceJsonWellFormed) {
  obs::Telemetry tel;
  SpanTracer& t = tel.spans;
  t.begin("phase \"a\"\n");  // name needing escaping
  t.begin("child");
  t.end();
  t.end();

  std::string err;
  obs::json::ValuePtr v = obs::json::parse(tel.flight.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(v->is_object());
  const obs::json::Value& events = v->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.arr.size(), 2u);
  for (size_t i = 0; i < events.arr.size(); ++i) {
    const obs::json::Value& e = events.at(i);
    EXPECT_EQ(e.at("ph").string(), "X");
    EXPECT_EQ(e.at("cat").string(), "fourq");
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("dur"));
  }
  // The escaped name must round-trip through the parser (spans export in
  // completion order, so the outer span is last).
  EXPECT_EQ(events.at(1).at("name").string(), "phase \"a\"\n");

  // Engine tasks become trace events too, on their own process track.
  tel.flight.record(obs::FlightKind::kTask, "engine.task.sm", obs::mono_us(), 5, 0);
  v = obs::json::parse(tel.flight.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(v->at("traceEvents").arr.size(), 3u);
  EXPECT_EQ(v->at("traceEvents").at(2).at("ph").string(), "X");
  EXPECT_EQ(v->at("traceEvents").at(2).at("pid").number(), 2.0);
  EXPECT_EQ(v->at("traceEvents").at(0).at("pid").number(), 1.0);
}

TEST(Macros, GlobalRegistryWiring) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  uint64_t before = obs::global().metrics.counter("test.macro.calls").value();
  FOURQ_COUNTER_INC("test.macro.calls");
  FOURQ_COUNTER_ADD("test.macro.calls", 2);
  FOURQ_GAUGE_SET("test.macro.gauge", 3.5);
  {
    FOURQ_SPAN("test.macro.span");
  }
  EXPECT_EQ(obs::global().metrics.counter("test.macro.calls").value(), before + 3);
  EXPECT_DOUBLE_EQ(obs::global().metrics.gauge("test.macro.gauge").value(), 3.5);
  EXPECT_EQ(obs::global().spans.count("test.macro.span"), 1u);
}

// Golden check: run the Table I loop body through the cycle-accurate
// simulator with a recording sink, then rebuild SimStats purely from the
// event stream. Both views must agree exactly, and the event-derived cycle
// count must equal the scheduled program length.
TEST(EventStream, LoopBodyStatsMatchEvents) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileResult r = sched::compile_program(body.program, {});

  curve::PointR1 q = curve::dbl(curve::to_r1(curve::deterministic_point(31)));
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(32)));
  trace::InputBindings b;
  b.emplace_back(body.q_inputs[0], q.X);
  b.emplace_back(body.q_inputs[1], q.Y);
  b.emplace_back(body.q_inputs[2], q.Z);
  b.emplace_back(body.q_inputs[3], q.Ta);
  b.emplace_back(body.q_inputs[4], q.Tb);
  b.emplace_back(body.table_inputs[0], e.xpy);
  b.emplace_back(body.table_inputs[1], e.ymx);
  b.emplace_back(body.table_inputs[2], e.z2);
  b.emplace_back(body.table_inputs[3], e.dt2);

  obs::RecordingSink sink;
  asic::SimResult sim = asic::simulate(r.sm, b, trace::EvalContext{}, &sink);

  ASSERT_FALSE(sink.events.empty());
  asic::SimStats derived = asic::stats_from_events(sink.events);
  EXPECT_EQ(derived, sim.stats);

  int kcycles = 0;
  for (const obs::CycleEvent& ev : sink.events)
    if (ev.kind == obs::SimEventKind::kCycle) ++kcycles;
  EXPECT_EQ(kcycles, sim.stats.cycles);
  EXPECT_EQ(sim.stats.cycles, r.sm.cycles());

  // Port limits observed by the event-derived maxima.
  EXPECT_LE(sim.stats.max_reads_in_cycle, r.sm.cfg.rf_read_ports);
  EXPECT_LE(sim.stats.max_writes_in_cycle, r.sm.cfg.rf_write_ports);
  EXPECT_GE(sim.stats.max_writes_in_cycle, 1);
  EXPECT_EQ(sim.stats.mul_issues, 15);
}

TEST(EventStream, UtilisationAndStalls) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileResult r = sched::compile_program(body.program, {});
  obs::RecordingSink sink;
  trace::InputBindings b;
  curve::PointR1 q = curve::dbl(curve::to_r1(curve::deterministic_point(7)));
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(8)));
  b.emplace_back(body.q_inputs[0], q.X);
  b.emplace_back(body.q_inputs[1], q.Y);
  b.emplace_back(body.q_inputs[2], q.Z);
  b.emplace_back(body.q_inputs[3], q.Ta);
  b.emplace_back(body.q_inputs[4], q.Tb);
  b.emplace_back(body.table_inputs[0], e.xpy);
  b.emplace_back(body.table_inputs[1], e.ymx);
  b.emplace_back(body.table_inputs[2], e.z2);
  b.emplace_back(body.table_inputs[3], e.dt2);
  asic::SimResult sim = asic::simulate(r.sm, b, trace::EvalContext{}, &sink);

  EXPECT_GT(sim.stats.mul_utilisation(), 0.0);
  EXPECT_LE(sim.stats.mul_utilisation(), 1.0);
  EXPECT_GT(sim.stats.addsub_utilisation(), 0.0);
  // Stalls + issue cycles bound: a stall cycle by definition issues nothing.
  EXPECT_LE(sim.stats.stall_cycles + std::max(sim.stats.mul_issues, sim.stats.addsub_issues),
            sim.stats.cycles);
}

TEST(Json, EscapeRoundTripsControlAndHighBytes) {
  // The exporters embed caller-supplied names (span names, task names,
  // metric labels) in JSON; json_escape must make any byte string safe and
  // the reader must invert it exactly.
  const std::string nasty = std::string("line\nbreak \"quoted\" ctrl") +
                            '\x01' + " high" + '\xb1' + '\xff' + " tab\t";
  std::string doc = "{\"s\":\"" + obs::json_escape(nasty) + "\"}";
  std::string err;
  obs::json::ValuePtr v = obs::json::parse(doc, &err);
  ASSERT_TRUE(err.empty()) << err << " in " << doc;
  EXPECT_EQ(v->at("s").string(), nasty);

  // The same bytes as a span name survive the Chrome trace export.
  obs::Telemetry tel;
  tel.spans.begin(nasty);
  tel.spans.end();
  err.clear();
  obs::json::ValuePtr trace = obs::json::parse(tel.flight.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(trace->at("traceEvents").at(0).at("name").string(), nasty);

  // ... and as an engine task name in a ring of its own.
  obs::FlightRecorder f;
  f.record(obs::FlightKind::kTask, nasty, 1, 0);
  err.clear();
  obs::json::ValuePtr flight = obs::json::parse(f.chrome_trace_json(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(flight->at("traceEvents").arr.size(), 1u);
  EXPECT_EQ(flight->at("traceEvents").at(0).at("name").string(), nasty);
}

TEST(Exporter, StaleTmpFilesCleanedOnNextExport) {
  // A process killed mid-export leaves `<name>.tmp` behind (write_snapshot
  // writes to a temp file then renames). The next export must sweep them so
  // a crash can't strand junk in the telemetry directory forever.
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "fourq_obs_staletmp_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "metrics.jsonl.tmp") << "{\"partial\":";
  std::ofstream(dir / "trace.json.tmp") << "garbage";

  obs::Telemetry tel;
  tel.metrics.counter("engine.jobs.sm").inc(3);
  obs::ExporterOptions opt;
  opt.dir = dir.string();
  obs::SnapshotExporter exp(tel, opt);
  ASSERT_TRUE(exp.write_snapshot());

  int tmp_left = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".tmp") ++tmp_left;
  EXPECT_EQ(tmp_left, 0);
  // The real exports landed and the stale partial did not shadow them.
  EXPECT_TRUE(fs::exists(dir / "metrics.jsonl"));
  std::string err;
  EXPECT_FALSE(obs::validate_metrics_jsonl(read_file(dir / "metrics.jsonl"), &err).empty())
      << err;
  fs::remove_all(dir);
}

TEST(Exporter, TruncatedMetricsJsonRejected) {
  // fourqc stats loads metrics.jsonl through validate_metrics_jsonl; a file
  // truncated by a crash or full disk must fail loudly (exit 1 in the CLI),
  // never parse as a smaller-but-valid document — not even when the cut
  // falls exactly on a line boundary.
  obs::Telemetry tel;
  tel.metrics.counter("engine.jobs.sm").inc(42);
  tel.metrics.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).observe(9.0);
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "fourq_obs_truncate_test";
  fs::remove_all(dir);
  obs::ExporterOptions opt;
  opt.dir = dir.string();
  obs::SnapshotExporter exp(tel, opt);
  ASSERT_TRUE(exp.write_snapshot());
  const std::string full = read_file(dir / "metrics.jsonl");
  fs::remove_all(dir);

  std::string err;
  EXPECT_FALSE(obs::validate_metrics_jsonl(full, &err).empty()) << err;

  err.clear();
  EXPECT_TRUE(obs::validate_metrics_jsonl(full.substr(0, full.size() * 3 / 5), &err).empty());
  EXPECT_FALSE(err.empty());

  // Every whole-line prefix, and the file minus its final newline.
  for (size_t nl = full.find('\n'); nl + 1 < full.size(); nl = full.find('\n', nl + 1)) {
    err.clear();
    EXPECT_TRUE(obs::validate_metrics_jsonl(full.substr(0, nl + 1), &err).empty()) << nl;
    EXPECT_FALSE(err.empty());
  }
  err.clear();
  EXPECT_TRUE(obs::validate_metrics_jsonl(full.substr(0, full.size() - 1), &err).empty());
  EXPECT_FALSE(err.empty());

  err.clear();
  EXPECT_TRUE(obs::validate_metrics_jsonl("", &err).empty());
  EXPECT_FALSE(err.empty());

  // Well-formed JSON with the wrong schema is rejected too.
  err.clear();
  EXPECT_TRUE(
      obs::validate_metrics_jsonl("{\"schema\":\"fourq.perf.v1\",\"lines\":0}\n", &err)
          .empty());
  EXPECT_FALSE(err.empty());
}

TEST(Json, ParserBasics) {
  std::string err;
  obs::json::ValuePtr v =
      obs::json::parse("{\"a\":[1,2.5,-3e2],\"b\":{\"s\":\"x\\ny\"},\"t\":true,\"n\":null}",
                       &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_DOUBLE_EQ(v->at("a").at(1).number(), 2.5);
  EXPECT_DOUBLE_EQ(v->at("a").at(2).number(), -300.0);
  EXPECT_EQ(v->at("b").at("s").string(), "x\ny");
  EXPECT_EQ(v->at("t").type, obs::json::Type::kBool);
  EXPECT_EQ(v->at("n").type, obs::json::Type::kNull);

  obs::json::parse("{\"a\":", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  obs::json::parse("[1,]", &err);
  EXPECT_FALSE(err.empty());
}

// The strict parser reads back every finite number the obs writers format:
// integers exactly, anything else as the %.12g text says.
TEST(Json, FormattedNumbersReadBack) {
  for (double v : {0.0, 1.0, -1.0, 42.0, -123456789012345.0, 999999999999999.0, 1e15, 1e-300,
                   1e300, 0.1, -2.5e-7, 123456.789}) {
    const std::string s = obs::json::format_number(v);
    std::string err;
    obs::json::ValuePtr n = obs::json::parse(s, &err);
    ASSERT_TRUE(n) << s << ": " << err;
    EXPECT_EQ(n->number(), v) << s;
  }
  Rng rng(20261019);
  for (int i = 0; i < 2000; ++i) {
    uint64_t bits = rng.next_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    const std::string s = obs::json::format_number(v);
    obs::json::ValuePtr n = obs::json::parse(s);
    ASSERT_TRUE(n) << s;
    EXPECT_EQ(n->number(), std::strtod(s.c_str(), nullptr)) << s;
  }
}

TEST(Json, NestingDepthIsCapped) {
  // The parser recurses once per array or object: 256 levels parse, one
  // more is an error, and a 200,000-level document fails the same way
  // instead of overflowing the stack.
  auto nested = [](size_t depth) { return std::string(depth, '[') + std::string(depth, ']'); };
  std::string err;
  EXPECT_TRUE(obs::json::parse(nested(256), &err)) << err;
  EXPECT_FALSE(obs::json::parse(nested(257), &err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(obs::json::parse(std::string(200000, '['), &err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_TRUE(obs::json::parse_lines(objects + "\n", &err).empty());
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

TEST(Json, FuzzedArtifactsReturnAValueOrAnError) {
  // Seeded fuzz loop over every artifact reader (json::parse, parse_lines,
  // parse_perf_profile, validate_metrics_jsonl): each truncation and 3000
  // byte flips of real artifacts (a metrics.jsonl snapshot, a perf.json
  // profile, and the flight ring's Chrome trace with and without an engine
  // task), plus deep nesting.
  // Every input yields a value or an error message; none throws or crashes.
  obs::Telemetry tel;
  tel.metrics.counter("engine.jobs.sm").inc(42);
  tel.metrics.gauge("engine.lanes.occupancy", {{"kind", "sm"}}).set(0.75);
  tel.metrics.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).observe(9.0);
  {
    obs::ScopedSpan outer(tel.spans, "engine.run");
    obs::ScopedSpan inner(tel.spans, "engine.wave \"x\"\n");
  }
  const std::string spans_trace = tel.flight.chrome_trace_json();
  tel.flight.record(obs::FlightKind::kTask, "engine.task.sm", obs::mono_us(), 5, 0);
  const std::vector<std::string> artifacts = {
      obs::metrics_jsonl(tel.metrics, "0f3a"), obs::perf_profile_json(tel.spans.profile(), "beef"),
      tel.flight.chrome_trace_json(), spans_trace};
  {
    std::string err;
    EXPECT_FALSE(obs::validate_metrics_jsonl(artifacts[0], &err).empty()) << err;
    obs::PerfProfile prof;
    EXPECT_TRUE(obs::parse_perf_profile(artifacts[1], &prof, &err)) << err;
    EXPECT_TRUE(obs::json::parse(artifacts[2], &err)) << err;
    EXPECT_TRUE(obs::json::parse(artifacts[3], &err)) << err;
  }
  // Span counts and depths that no integer field holds are errors.
  for (const char* bad : {"1e300", "-1", "0.5", "inf"}) {
    for (const char* key : {"\"depth\":", "\"n\":"}) {
      std::string t = artifacts[1];
      const size_t at = t.find(key) + std::strlen(key);
      t.replace(at, t.find_first_of(",}", at) - at, bad);
      obs::PerfProfile prof;
      std::string err;
      EXPECT_FALSE(obs::parse_perf_profile(t, &prof, &err)) << key << bad;
      EXPECT_FALSE(err.empty());
    }
  }
  size_t inputs = 0;
  auto feed = [&](const std::string& text) {
    ++inputs;
    std::string err;
    ASSERT_NO_THROW({
      const bool parsed = obs::json::parse(text, &err) != nullptr;
      EXPECT_EQ(parsed, err.empty()) << text;
      err.clear();
      const bool lines = !obs::json::parse_lines(text, &err).empty();
      EXPECT_TRUE(lines || !err.empty() || text.find_first_not_of(" \t\r\n") == std::string::npos)
          << text;
      err.clear();
      obs::PerfProfile prof;
      const bool profile = obs::parse_perf_profile(text, &prof, &err);
      EXPECT_TRUE(profile || !err.empty()) << text;
      err.clear();
      const bool metrics = !obs::validate_metrics_jsonl(text, &err).empty();
      EXPECT_TRUE(metrics || !err.empty()) << text;
    });
  };
  const char kBytes[] = "[]{}\",:\\u0123456789eE+-.tfn \n\x00\x7f\xff";
  Rng rng(20260811);
  for (const std::string& art : artifacts) {
    for (size_t n = 0; n < art.size(); n += 1 + n / 256) feed(art.substr(0, n));
    for (int i = 0; i < 3000; ++i) {
      std::string t = art;
      const uint64_t flips = 1 + rng.next_below(3);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t at = static_cast<size_t>(rng.next_below(t.size()));
        t[at] = rng.next_below(2) ? kBytes[rng.next_below(sizeof(kBytes) - 1)]
                                  : static_cast<char>(rng.next_below(256));
      }
      feed(t);
    }
  }
  // Numbers outside RFC 8259's grammar, or beyond a double's range, are
  // errors wherever they stand.
  for (const char* num : {"inf", "-infinity", "+1", "0x10", "01", "1e999", ".5", "1.", "-", "1e"}) {
    const std::string bad = num;
    for (const std::string& t : {bad, "[" + bad + "]", "{\"a\":" + bad + "}"}) {
      std::string err;
      EXPECT_EQ(obs::json::parse(t, &err), nullptr) << t;
      EXPECT_FALSE(err.empty()) << t;
      feed(t);
    }
  }
  for (const char* open : {"[", "{\"a\":", "[{\"b\":"})
    for (size_t depth : {255u, 256u, 257u, 100000u}) {
      std::string t;
      for (size_t d = 0; d < depth; ++d) t += open;
      feed(t);
      feed(t + "\n");
    }
  EXPECT_GT(inputs, 12000u);
}

}  // namespace
}  // namespace fourq

// Concurrency stress for the telemetry pipeline, built to run under
// ThreadSanitizer (the CI tsan leg runs every test labeled "engine"):
// 8 threads hammer labeled counters, shared latency histograms, nested
// spans and the flight recorder while a snapshot exporter repeatedly drains
// the registry and a reader renders the span profile and Chrome trace from
// yet other threads. Final counts must be exact — relaxed atomics are fine
// for statistics, lost updates are not.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace fourq {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 4000;

TEST(ObsStress, ConcurrentMetricsFlightAndExporter) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "fourq_obs_stress_export";
  fs::remove_all(dir);

  obs::Telemetry tel;
  obs::ExporterOptions xopt;
  xopt.dir = dir.string();
  xopt.interval_ms = 10;  // force many concurrent snapshot() drains
  obs::SnapshotExporter exporter(tel, xopt);
  exporter.start();

  std::atomic<bool> go{false}, done{false};
  // Reads the span aggregate and the ring's Chrome trace while they change.
  std::thread reader([&tel, &done] {
    size_t renders = 0;
    while (!done.load(std::memory_order_acquire) || renders == 0) {
      obs::PerfProfile p = tel.spans.profile();
      std::string err;
      obs::json::parse(tel.flight.chrome_trace_json(), &err);
      EXPECT_TRUE(err.empty()) << err;
      EXPECT_LE(p.spans.size(), 2u);
      ++renders;
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&tel, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      obs::Registry& reg = tel.metrics;
      const obs::Labels wl{{"worker", std::to_string(t)}};
      obs::Counter& own = reg.counter("stress.ops", wl);
      obs::Counter& shared = reg.counter("stress.total");
      obs::Gauge& gauge = reg.gauge("stress.last", wl);
      obs::Histogram& hist = reg.latency_histogram("stress.lat_us", {{"kind", "mixed"}});
      for (int i = 0; i < kOpsPerThread; ++i) {
        own.inc();
        shared.inc();
        gauge.set(static_cast<double>(i));
        hist.observe(static_cast<double>(1 + (i * 37 + t) % 100000));
        tel.flight.record(obs::FlightKind::kTask, "stress.task",
                          static_cast<uint64_t>(i), 1, t);
        if (i % 512 == 0) {
          obs::ScopedSpan span(tel.spans, "stress.span");
          obs::ScopedSpan inner(tel.spans, "stress.inner");
        }
      }
    });
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  exporter.stop();

  // Exact accounting: no update may be lost under contention.
  obs::Registry& reg = tel.metrics;
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(reg.counter("stress.total").value(), kTotal);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.counter("stress.ops", {{"worker", std::to_string(t)}}).value(),
              static_cast<uint64_t>(kOpsPerThread))
        << "worker " << t;
  obs::HistogramStats hs =
      reg.latency_histogram("stress.lat_us", {{"kind", "mixed"}}).stats();
  EXPECT_EQ(hs.count, kTotal);
  EXPECT_GE(hs.quantile(0.99), hs.quantile(0.5));

  // The flight recorder counted every event (explicit records plus the spans
  // the tracer mirrors into it) and stayed within its fixed cap.
  constexpr uint64_t kSpans =
      static_cast<uint64_t>(kThreads) * ((kOpsPerThread + 511) / 512);
  EXPECT_EQ(tel.flight.recorded(), kTotal + 2 * kSpans);
  EXPECT_LE(tel.flight.size(), tel.flight.capacity());

  // Spans balanced across all threads; their bookkeeping died with them.
  EXPECT_EQ(tel.spans.open_stacks(), 0u);
  EXPECT_EQ(tel.spans.tracked_threads(), 0u);
  EXPECT_EQ(tel.spans.count("stress.span"), static_cast<size_t>(kSpans));
  obs::PerfProfile prof = tel.spans.profile();
  ASSERT_EQ(prof.spans.size(), 2u);
  EXPECT_EQ(prof.spans[0].path, "stress.span");
  EXPECT_EQ(prof.spans[0].wall_us.n, kSpans);
  EXPECT_EQ(prof.spans[1].path, "stress.span;stress.inner");
  EXPECT_EQ(prof.spans[1].wall_us.n, kSpans);

  // The exporter ran concurrently and its final flush is well-formed.
  EXPECT_GE(exporter.snapshots_written(), 2u);
  std::ifstream in(dir / "metrics.jsonl", std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  std::vector<obs::json::ValuePtr> lines = obs::validate_metrics_jsonl(ss.str(), &err);
  ASSERT_FALSE(lines.empty()) << err;
  EXPECT_EQ(lines[0]->at("schema").string(), "fourq.metrics.v1");
  bool saw_total = false;
  for (const auto& m : lines)
    if (m->has("metric") && m->at("metric").string() == "stress.total") {
      EXPECT_DOUBLE_EQ(m->at("value").number(), static_cast<double>(kTotal));
      saw_total = true;
    }
  EXPECT_TRUE(saw_total);

  fs::remove_all(dir);
}

TEST(ObsStress, RegistryCreationRace) {
  // Threads race to create the *same* labeled series; exactly one instance
  // may win, and every thread's increments must land on it.
  obs::Registry reg;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&reg, &go] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        reg.counter("race.calls", {{"backend", std::to_string(i % 4)}}).inc();
        reg.latency_histogram("race.lat", {{"kind", "x"}}).observe(1.0 + i);
      }
    });
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  uint64_t total = 0;
  for (int b = 0; b < 4; ++b)
    total += reg.counter("race.calls", {{"backend", std::to_string(b)}}).value();
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * 200);
  EXPECT_EQ(reg.latency_histogram("race.lat", {{"kind", "x"}}).count(),
            static_cast<uint64_t>(kThreads) * 200);
}

}  // namespace
}  // namespace fourq

// Snapshot exporter — a background thread that periodically drains the
// telemetry context into scrape-ready files:
//
//   <dir>/metrics.prom   Prometheus text exposition (labeled series,
//                        cumulative histogram buckets, quantile gauges)
//   <dir>/metrics.json   one `fourq.metrics.v1` document (provenance +
//                        structured metrics + quantiles)
//   <dir>/metrics.jsonl  registry JSONL behind a provenance header, the
//                        format tools/perf_regress gates against
//   <dir>/flight.json    `fourq.flight.v1` tail of the flight recorder
//
// Every write is atomic (tmp file + rename), so a scraper reading on its
// own schedule never sees a torn snapshot. `fourqc batch` starts one when
// $FOURQ_OBS_EXPORT_DIR is set; `fourqc stats` pretty-prints or tails the
// result.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/json.hpp"

namespace fourq::obs {

struct Telemetry;

// Parses and validates one fourq.metrics.v1 document (the exporter's
// metrics.json output): schema tag, provenance, and per-metric shape by
// type. Returns the parsed document, or nullptr with *err set — this is
// how `fourqc stats` detects a truncated or corrupt snapshot and exits
// non-zero instead of reporting garbage.
json::ValuePtr validate_metrics_json_v1(const std::string& text, std::string* err);

struct ExporterOptions {
  std::string dir;         // created if missing
  int interval_ms = 1000;  // refresh period of the background thread
  std::string machine_hash;  // stamped into every snapshot's provenance
};

class SnapshotExporter {
 public:
  SnapshotExporter(Telemetry& telemetry, ExporterOptions opt);
  ~SnapshotExporter();
  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  // Launches the background thread (idempotent). The first snapshot is
  // written immediately, then every interval_ms until stop().
  void start();
  // Stops the thread and writes one final snapshot so short runs always
  // leave fresh files behind.
  void stop();

  // Writes all four files once; returns false (with a message on stderr)
  // when the directory cannot be created or written. Safe from any thread.
  bool write_snapshot();

  uint64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  const ExporterOptions& options() const { return opt_; }

  // Builds a fourq.metrics.v1 document from the current registry state
  // (also used by write_snapshot); exposed so tests and future serving
  // layers can render without touching the filesystem.
  std::string metrics_json_v1() const;

 private:
  void run();

  Telemetry* telemetry_;
  ExporterOptions opt_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::atomic<uint64_t> snapshots_{0};
};

}  // namespace fourq::obs

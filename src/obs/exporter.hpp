// Snapshot exporter — a background thread that periodically drains the
// telemetry context into two files, one per kind of telemetry:
//
//   <dir>/metrics.jsonl  metrics_jsonl() below: the format tools/perf_regress
//                        gates against and `fourqc stats` validates
//   <dir>/trace.json     the flight ring's spans and engine tasks as a
//                        Chrome trace (FlightRecorder::chrome_trace_json)
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
#include <vector>

#include "obs/json.hpp"

namespace fourq::obs {

struct Telemetry;
class Registry;

// A fourq.metrics.v1 snapshot in JSON lines: a provenance header that also
// states how many metric lines follow ("lines"), then Registry::to_jsonl().
// The exporter and every fourqc metrics.jsonl writer render through this.
std::string metrics_jsonl(const Registry& reg, const std::string& machine_hash = "");

// Checks a metrics_jsonl() document: the header's schema and provenance,
// the shape of every metric line by type, and the header's line count, so
// a file cut at any byte — even at a line boundary — is rejected. Returns
// the parsed lines (header first), or an empty vector with *err set.
std::vector<json::ValuePtr> validate_metrics_jsonl(const std::string& text, std::string* err);

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

  // Writes both files once; returns false (with a message on stderr)
  // when the directory cannot be created or written. Safe from any thread.
  bool write_snapshot();

  uint64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  const ExporterOptions& options() const { return opt_; }

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

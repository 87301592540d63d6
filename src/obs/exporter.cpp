#include "obs/exporter.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace fourq::obs {

namespace {

namespace fs = std::filesystem;

// tmp-file + rename so concurrent readers never observe a half-written
// snapshot (rename within one directory is atomic on POSIX).
bool atomic_write(const fs::path& path, const std::string& content) {
  fs::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out << content;
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

}  // namespace

std::string metrics_jsonl(const Registry& reg, const std::string& machine_hash) {
  std::string body = reg.to_jsonl();
  std::string head = provenance_json(make_provenance("fourq.metrics.v1", machine_hash));
  head.pop_back();  // reopen the object to append the line count
  return head + ",\"lines\":" + std::to_string(std::count(body.begin(), body.end(), '\n')) +
         "}\n" + body;
}

std::vector<json::ValuePtr> validate_metrics_jsonl(const std::string& text, std::string* err) {
  auto fail = [err](std::string why) {
    *err = std::move(why);
    return std::vector<json::ValuePtr>{};
  };
  // Every line ends in a newline, so a file cut anywhere inside its last
  // line fails here even when the remaining prefix happens to parse.
  if (text.empty() || text.back() != '\n') return fail("empty or unterminated last line");
  std::vector<json::ValuePtr> lines = json::parse_lines(text, err);
  if (lines.empty()) return fail(err->empty() ? "no lines" : *err);
  try {
    const json::Value& head = *lines.front();
    if (head.at("schema").string() != "fourq.metrics.v1")
      return fail("schema is not fourq.metrics.v1");
    (void)head.at("git_sha").string();
    (void)head.at("timestamp_utc").string();
    const double announced = head.at("lines").number();
    if (announced != static_cast<double>(lines.size() - 1))
      return fail("header announces " + std::to_string(static_cast<long long>(announced)) +
                  " metric lines, file holds " + std::to_string(lines.size() - 1));
    for (size_t i = 1; i < lines.size(); ++i) {
      const json::Value& m = *lines[i];
      (void)m.at("metric").string();
      const std::string& type = m.at("type").string();
      if (type == "counter" || type == "gauge") {
        (void)m.at("value").number();
      } else if (type == "histogram") {
        (void)m.at("count").number();
        (void)m.at("p50").number();
        (void)m.at("p99").number();
      } else {
        return fail("line " + std::to_string(i + 1) + ": unknown metric type \"" + type + "\"");
      }
    }
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return lines;
}

SnapshotExporter::SnapshotExporter(Telemetry& telemetry, ExporterOptions opt)
    : telemetry_(&telemetry), opt_(std::move(opt)) {
  if (opt_.interval_ms < 10) opt_.interval_ms = 10;
}

SnapshotExporter::~SnapshotExporter() { stop(); }

void SnapshotExporter::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void SnapshotExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  write_snapshot();  // final flush: short runs still leave fresh files
}

void SnapshotExporter::run() {
  write_snapshot();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(opt_.interval_ms));
    if (stopping_) break;
    lock.unlock();
    write_snapshot();
    lock.lock();
  }
}

bool SnapshotExporter::write_snapshot() {
  std::error_code ec;
  fs::create_directories(opt_.dir, ec);
  if (ec) {
    std::fprintf(stderr, "obs exporter: cannot create %s: %s\n", opt_.dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  fs::path dir(opt_.dir);

  // A process killed mid-atomic_write leaves a *.tmp behind. They are never
  // valid snapshots, so sweep them before writing — scrapers must only ever
  // see the renamed files.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }

  bool ok = atomic_write(dir / "metrics.jsonl",
                         metrics_jsonl(telemetry_->metrics, opt_.machine_hash)) &&
            atomic_write(dir / "trace.json", telemetry_->flight.chrome_trace_json());
  if (!ok) {
    std::fprintf(stderr, "obs exporter: write to %s failed\n", opt_.dir.c_str());
    return false;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace fourq::obs

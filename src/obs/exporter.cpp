#include "obs/exporter.hpp"

#include <chrono>
#include <cmath>
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

std::string num_json(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15)
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  else
    std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

json::ValuePtr validate_metrics_json_v1(const std::string& text, std::string* err) {
  std::string perr;
  json::ValuePtr doc = json::parse(text, &perr);
  if (!doc || !doc->is_object()) {
    *err = perr.empty() ? "not a JSON object" : perr;
    return nullptr;
  }
  try {
    if (doc->at("schema").string() != "fourq.metrics.v1") {
      *err = "schema is not fourq.metrics.v1";
      return nullptr;
    }
    const json::Value& prov = doc->at("provenance");
    (void)prov.at("git_sha").string();
    (void)prov.at("timestamp_utc").string();
    const json::Value& metrics = doc->at("metrics");
    if (!metrics.is_array()) {
      *err = "\"metrics\" is not an array";
      return nullptr;
    }
    for (const auto& m : metrics.arr) {
      const std::string& type = m->at("type").string();
      (void)m->at("name").string();
      if (type == "counter" || type == "gauge") {
        (void)m->at("value").number();
      } else if (type == "histogram") {
        (void)m->at("count").number();
        const json::Value& q = m->at("quantiles");
        (void)q.at("p50").number();
        (void)q.at("p99").number();
      } else {
        *err = "unknown metric type \"" + type + "\"";
        return nullptr;
      }
    }
  } catch (const std::exception& e) {
    *err = e.what();
    return nullptr;
  }
  return doc;
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

std::string SnapshotExporter::metrics_json_v1() const {
  Provenance prov = make_provenance("fourq.metrics.v1", opt_.machine_hash);
  std::string out = "{\"schema\":\"fourq.metrics.v1\"";
  out += ",\"sequence\":" + std::to_string(snapshots_.load(std::memory_order_relaxed));
  out += ",\"provenance\":" + provenance_json(prov);
  out += ",\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& s : telemetry_->metrics.snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\"";
    out += ",\"labels\":{";
    bool lf = true;
    for (const auto& [k, v] : s.labels) {
      if (!lf) out += ",";
      lf = false;
      out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    out += "}";
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":" + num_json(s.value);
        break;
      case MetricSnapshot::Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":" + num_json(s.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        out += ",\"type\":\"histogram\",\"count\":" + std::to_string(s.hist.count) +
               ",\"sum\":" + num_json(s.hist.sum) + ",\"min\":" + num_json(s.hist.min) +
               ",\"max\":" + num_json(s.hist.max) + ",\"quantiles\":{\"p50\":" +
               num_json(s.hist.quantile(0.5)) + ",\"p90\":" + num_json(s.hist.quantile(0.9)) +
               ",\"p99\":" + num_json(s.hist.quantile(0.99)) +
               ",\"p999\":" + num_json(s.hist.quantile(0.999)) + "},\"buckets\":[";
        for (size_t i = 0; i < s.hist.buckets.size(); ++i) {
          if (i) out += ",";
          double le = s.hist.buckets[i].first;
          out += "{\"le\":";
          out += std::isinf(le) ? "\"inf\"" : num_json(le);
          out += ",\"count\":" + std::to_string(s.hist.buckets[i].second) + "}";
        }
        out += "]";
        break;
    }
    out += "}";
  }
  out += "]}";
  return out;
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

  Provenance prov = make_provenance("fourq.metrics.v1", opt_.machine_hash);

  std::string prom = "# fourq telemetry snapshot\n# provenance: " + provenance_json(prov) +
                     "\nfourq_build_info{git_sha=\"" + std::string(build_git_sha()) +
                     "\"} 1\n" + telemetry_->metrics.to_prometheus();
  std::string jsonl = provenance_json(prov) + "\n" + telemetry_->metrics.to_jsonl();

  bool ok = atomic_write(dir / "metrics.prom", prom) &&
            atomic_write(dir / "metrics.json", metrics_json_v1()) &&
            atomic_write(dir / "metrics.jsonl", jsonl) &&
            atomic_write(dir / "flight.json", telemetry_->flight.to_json());
  if (!ok) {
    std::fprintf(stderr, "obs exporter: write to %s failed\n", opt_.dir.c_str());
    return false;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace fourq::obs

// perf_regress — compares a telemetry/bench metrics file (JSON lines, as
// written by `fourqc profile` or the bench_util JSON recorder) against a
// checked-in baseline, with per-metric tolerances.
//
//   perf_regress BASELINE CURRENT [--tol PCT] [--update-baseline] [--json]
//
// A baseline with no metric records (missing header-only or empty file) is
// an error (exit 2), never a silent pass. --json replaces the table with one
// machine-readable verdict object on stdout (exit codes unchanged).
//
// Baseline lines look like the current-file lines:
//   {"metric":"sim.flat.cycles","type":"counter","value":6623}
// and may carry two optional fields:
//   "tol_pct": N   — relative tolerance in percent for this metric
//                    (default: the --tol value; counters default to exact)
//   "dir":"le"|"ge" — one-sided check: current must be <= / >= baseline
//                    (within tolerance); default is two-sided
// Bench records ({"bench":...,"metric":...}) are keyed bench/metric.
// Metrics present only in CURRENT are ignored (new instrumentation is not
// a regression); metrics present only in BASELINE fail the run.
//
// --update-baseline rewrites BASELINE in place with CURRENT's values,
// preserving each metric's tolerance annotations (tol_pct, dir, type).
// Metrics no longer present in CURRENT are dropped with a warning, so a
// single run refreshes tools/baselines/profile_baseline.jsonl after an
// intentional performance change.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using fourq::obs::json::parse_lines;
using fourq::obs::json::Type;
using fourq::obs::json::Value;
using fourq::obs::json::ValuePtr;

struct Record {
  double value = 0;
  double tol_pct = -1;   // <0 = unset
  std::string dir;       // "", "le", "ge"
  bool is_counter = false;
  // Retained verbatim so --update-baseline can re-serialise the line with
  // only the numeric value replaced.
  std::string bench;        // empty for non-bench records
  std::string metric;
  std::string type;         // "", "counter", "gauge", ...
  std::string unit;
  std::string value_field;  // "value" or "count" (histogram records)
};

std::string record_key(const Value& v) {
  std::string key;
  if (v.has("bench")) key += v.at("bench").string() + "/";
  key += v.at("metric").string();
  return key;
}

// The optional provenance header line (see obs::provenance_line): an object
// with "schema" but no "metric". Kept both raw (so --update-baseline can
// preserve it) and as a human-readable summary (printed on any mismatch, so
// a failing comparison immediately shows which commits/machines produced the
// two files).
struct FileProvenance {
  std::string raw;      // verbatim JSON line; empty when the file has none
  std::string summary;  // "git abc @ 2026-..Z machine 0f3a.." or "(none)"
};

std::string summarize_provenance(const Value& v) {
  std::string s = v.at("schema").string();
  if (v.has("git_sha")) s += ", git " + v.at("git_sha").string();
  if (v.has("timestamp_utc")) s += " @ " + v.at("timestamp_utc").string();
  if (v.has("machine_hash") && !v.at("machine_hash").string().empty())
    s += ", machine " + v.at("machine_hash").string();
  return s;
}

bool load(const char* path, std::map<std::string, Record>* out, std::string* err,
          FileProvenance* prov = nullptr) {
  std::ifstream in(path);
  if (!in) {
    *err = std::string("cannot open ") + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::vector<ValuePtr> lines = parse_lines(ss.str(), err);
  if (!err->empty()) return false;
  for (const ValuePtr& v : lines) {
    if (!v->is_object()) continue;
    if (!v->has("metric")) {
      if (prov && prov->raw.empty() && v->has("schema")) {
        prov->summary = summarize_provenance(*v);
        prov->raw = "{\"schema\": \"" + fourq::obs::json_escape(v->at("schema").string()) +
                    "\"";
        if (v->has("version")) {
          char num[32];
          std::snprintf(num, sizeof num, "%.0f", v->at("version").number());
          prov->raw += std::string(", \"version\": ") + num;
        }
        for (const char* k : {"git_sha", "timestamp_utc", "machine_hash"})
          if (v->has(k))
            prov->raw += std::string(", \"") + k + "\": \"" +
                         fourq::obs::json_escape(v->at(k).string()) + "\"";
        prov->raw += "}";
      }
      continue;
    }
    // Histograms carry bucket vectors, not a single value — compare count.
    Record r;
    if (v->has("value")) {
      r.value = v->at("value").number();
      r.value_field = "value";
    } else if (v->has("count")) {
      r.value = v->at("count").number();
      r.value_field = "count";
    } else {
      continue;
    }
    if (v->has("bench")) r.bench = v->at("bench").string();
    r.metric = v->at("metric").string();
    if (v->has("type")) {
      r.type = v->at("type").string();
      r.is_counter = r.type == "counter";
    }
    if (v->has("unit")) r.unit = v->at("unit").string();
    if (v->has("tol_pct")) r.tol_pct = v->at("tol_pct").number();
    if (v->has("dir")) r.dir = v->at("dir").string();
    (*out)[record_key(*v)] = r;
  }
  return true;
}

std::string serialize(const Record& r) {
  std::string line = "{";
  if (!r.bench.empty()) line += "\"bench\": \"" + fourq::obs::json_escape(r.bench) + "\", ";
  line += "\"metric\": \"" + fourq::obs::json_escape(r.metric) + "\"";
  if (!r.type.empty()) line += ", \"type\": \"" + r.type + "\"";
  char num[48];
  std::snprintf(num, sizeof num, "%.12g", r.value);
  line += ", \"" + r.value_field + "\": " + num;
  if (!r.unit.empty()) line += ", \"unit\": \"" + fourq::obs::json_escape(r.unit) + "\"";
  if (r.dir == "le" || r.dir == "ge") line += ", \"dir\": \"" + r.dir + "\"";
  if (r.tol_pct >= 0) {
    std::snprintf(num, sizeof num, "%.6g", r.tol_pct);
    line += std::string(", \"tol_pct\": ") + num;
  }
  line += "}";
  return line;
}

// Rewrites `baseline_path` with current values, keeping each baseline
// record's tolerance annotations. Returns the process exit code.
int update_baseline(const char* baseline_path, const std::map<std::string, Record>& base,
                    const std::map<std::string, Record>& cur,
                    const FileProvenance& cur_prov) {
  std::ostringstream out;
  int refreshed = 0, dropped = 0;
  // The refreshed baseline records which run produced its numbers.
  if (!cur_prov.raw.empty()) out << cur_prov.raw << "\n";
  for (const auto& [key, b] : base) {
    auto it = cur.find(key);
    if (it == cur.end()) {
      std::fprintf(stderr, "perf_regress: dropping %s (absent from current run)\n",
                   key.c_str());
      ++dropped;
      continue;
    }
    Record merged = b;
    merged.value = it->second.value;
    out << serialize(merged) << "\n";
  }
  std::ofstream f(baseline_path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "perf_regress: cannot write %s\n", baseline_path);
    return 2;
  }
  f << out.str();
  refreshed = static_cast<int>(base.size()) - dropped;
  std::printf("perf_regress: refreshed %d metric(s) in %s%s\n", refreshed, baseline_path,
              dropped ? " (see dropped-metric warnings)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double default_tol = 1.0;  // percent, for non-counter metrics
  bool update = false;
  bool json = false;
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      default_tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--update-baseline") == 0) {
      update = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (!baseline_path) {
      baseline_path = argv[i];
    } else if (!current_path) {
      current_path = argv[i];
    } else {
      std::fprintf(
          stderr,
          "usage: perf_regress BASELINE CURRENT [--tol PCT] [--update-baseline] [--json]\n");
      return 2;
    }
  }
  if (!baseline_path || !current_path) {
    std::fprintf(
        stderr,
        "usage: perf_regress BASELINE CURRENT [--tol PCT] [--update-baseline] [--json]\n");
    return 2;
  }

  std::map<std::string, Record> base, cur;
  FileProvenance base_prov, cur_prov;
  std::string err;
  if (!load(baseline_path, &base, &err, &base_prov)) {
    std::fprintf(stderr, "perf_regress: %s: %s\n", baseline_path, err.c_str());
    return 2;
  }
  if (!load(current_path, &cur, &err, &cur_prov)) {
    std::fprintf(stderr, "perf_regress: %s: %s\n", current_path, err.c_str());
    return 2;
  }

  // A baseline that parsed but contributed zero metric records would make
  // every comparison below vacuously pass — that is always a harness bug
  // (wrong path, truncated checkout, header-only file), never a green run.
  if (base.empty()) {
    std::fprintf(stderr,
                 "perf_regress: baseline %s has no metric records (empty or "
                 "header-only file) — refusing to pass an empty gate\n",
                 baseline_path);
    return 2;
  }

  if (update) return update_baseline(baseline_path, base, cur, cur_prov);

  int failures = 0;
  std::string rows;  // --json verdict rows
  if (!json)
    std::printf("%-44s %14s %14s %9s  %s\n", "metric", "baseline", "current", "delta%",
                "status");
  auto add_row = [&](const std::string& key, const Record& b, const double* c,
                     double delta_pct, double tol, const char* status) {
    char buf[512];
    std::string cur_field;
    if (c) {
      char num[48];
      std::snprintf(num, sizeof num, "%.12g", *c);
      cur_field = std::string(",\"current\":") + num + ",\"delta_pct\":";
      std::snprintf(num, sizeof num, "%.6g", delta_pct);
      cur_field += num;
    }
    std::snprintf(buf, sizeof buf,
                  "%s{\"key\":\"%s\",\"baseline\":%.12g%s,\"tol_pct\":%.6g,"
                  "\"dir\":\"%s\",\"status\":\"%s\"}",
                  rows.empty() ? "" : ",", fourq::obs::json_escape(key).c_str(), b.value,
                  cur_field.c_str(), tol, b.dir.empty() ? "two-sided" : b.dir.c_str(),
                  status);
    rows += buf;
  };
  for (const auto& [key, b] : base) {
    double tol = b.tol_pct >= 0 ? b.tol_pct : (b.is_counter ? 0.0 : default_tol);
    auto it = cur.find(key);
    if (it == cur.end()) {
      if (json)
        add_row(key, b, nullptr, 0, tol, "missing");
      else
        std::printf("%-44s %14.6g %14s %9s  MISSING\n", key.c_str(), b.value, "-", "-");
      ++failures;
      continue;
    }
    double c = it->second.value;
    double denom = std::abs(b.value) > 0 ? std::abs(b.value) : 1.0;
    double delta_pct = 100.0 * (c - b.value) / denom;
    bool ok;
    if (b.dir == "le") {
      ok = delta_pct <= tol;
    } else if (b.dir == "ge") {
      ok = delta_pct >= -tol;
    } else {
      ok = std::abs(delta_pct) <= tol;
    }
    if (json)
      add_row(key, b, &c, delta_pct, tol, ok ? "ok" : "regression");
    else
      std::printf("%-44s %14.6g %14.6g %+8.3f%%  %s\n", key.c_str(), b.value, c, delta_pct,
                  ok ? "ok" : "REGRESSION");
    if (!ok) ++failures;
  }
  if (json) {
    std::printf("{\"tool\":\"perf_regress\",\"baseline\":\"%s\",\"current\":\"%s\","
                "\"status\":\"%s\",\"failures\":%d,\"metrics\":[%s]}\n",
                fourq::obs::json_escape(baseline_path).c_str(),
                fourq::obs::json_escape(current_path).c_str(),
                failures ? "regression" : "ok", failures, rows.c_str());
    return failures ? 1 : 0;
  }
  if (failures) {
    std::printf("\nperf_regress: %d metric(s) regressed vs %s\n", failures, baseline_path);
    std::printf("  baseline provenance: %s\n",
                base_prov.summary.empty() ? "(none)" : base_prov.summary.c_str());
    std::printf("  current provenance:  %s\n",
                cur_prov.summary.empty() ? "(none)" : cur_prov.summary.c_str());
    return 1;
  }
  std::printf("\nperf_regress: all %zu baseline metrics within tolerance\n", base.size());
  return 0;
}

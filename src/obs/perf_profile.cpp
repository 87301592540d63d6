#include "obs/perf_profile.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"  // json_escape

namespace fourq::obs {

double PerfAccum::stddev() const {
  if (n < 2) return 0.0;
  double m = mean();
  double var = (sumsq - static_cast<double>(n) * m * m) / static_cast<double>(n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double PerfAccum::stderr_mean() const {
  return n ? stddev() / std::sqrt(static_cast<double>(n)) : 0.0;
}

PerfAccum PerfAccum::from_stats(uint64_t n, double mean, double stddev) {
  PerfAccum a;
  a.n = n;
  a.sum = mean * static_cast<double>(n);
  if (n >= 2)
    a.sumsq = stddev * stddev * static_cast<double>(n - 1) +
              static_cast<double>(n) * mean * mean;
  else
    a.sumsq = mean * mean * static_cast<double>(n);
  return a;
}

double PerfSpanStat::ipc() const {
  return cycles.sum > 0 ? instructions.sum / cycles.sum : 0.0;
}

double PerfSpanStat::cache_miss_rate() const {
  return cache_refs.sum > 0 ? cache_misses.sum / cache_refs.sum : 0.0;
}

void PerfSpanStat::add(double wall, const PerfDelta& perf) {
  wall_us.add(wall);
  if (perf.source == PerfSource::kUnavailable) return;
  ++perf_n;
  cycles.add(static_cast<double>(perf.cycles));
  instructions.add(static_cast<double>(perf.instructions));
  cache_refs.add(static_cast<double>(perf.cache_refs));
  cache_misses.add(static_cast<double>(perf.cache_misses));
  branch_misses.add(static_cast<double>(perf.branch_misses));
  task_clock_ns.add(static_cast<double>(perf.task_clock_ns));
}

namespace {

std::string num(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15)
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  else
    std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string accum_json(const PerfAccum& a) {
  return "{\"mean\":" + num(a.mean()) + ",\"stddev\":" + num(a.stddev()) +
         ",\"total\":" + num(a.sum) + "}";
}

// A count or depth field: a whole number in [0, max]. The integer casts
// are undefined outside that range, so anything else is a parse error.
uint64_t whole(const json::Value& v, double max) {
  const double d = v.number();
  FOURQ_CHECK_MSG(d >= 0 && d <= max && d == std::floor(d), "json: not a whole number in range");
  return static_cast<uint64_t>(d);
}

bool parse_accum(const json::Value& v, uint64_t n, PerfAccum* out) {
  if (!v.is_object() || !v.has("mean") || !v.has("stddev")) return false;
  *out = PerfAccum::from_stats(n, v.at("mean").number(), v.at("stddev").number());
  return true;
}

}  // namespace

std::string perf_profile_json(const PerfProfile& p, const std::string& machine_hash) {
  Provenance prov = make_provenance("fourq.perf.v1", machine_hash);
  std::string out = "{\"schema\":\"fourq.perf.v1\"";
  out += ",\"provenance\":" + provenance_json(prov);
  out += ",\"counters\":\"" + json_escape(p.counters) + "\"";
  out += ",\"spans\":[";
  bool first = true;
  for (const PerfSpanStat& s : p.spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + json_escape(s.path) + "\"";
    out += ",\"name\":\"" + json_escape(s.name) + "\"";
    out += ",\"depth\":" + std::to_string(s.depth);
    out += ",\"n\":" + std::to_string(s.wall_us.n);
    out += ",\"wall_us\":" + accum_json(s.wall_us);
    if (s.perf_n) {
      out += ",\"perf_n\":" + std::to_string(s.perf_n);
      out += ",\"cycles\":" + accum_json(s.cycles);
      out += ",\"instructions\":" + accum_json(s.instructions);
      out += ",\"cache_refs\":" + accum_json(s.cache_refs);
      out += ",\"cache_misses\":" + accum_json(s.cache_misses);
      out += ",\"branch_misses\":" + accum_json(s.branch_misses);
      out += ",\"task_clock_ns\":" + accum_json(s.task_clock_ns);
      out += ",\"ipc\":" + num(s.ipc());
      out += ",\"cache_miss_rate\":" + num(s.cache_miss_rate());
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

bool parse_perf_profile(const std::string& text, PerfProfile* out, std::string* err) {
  std::string perr;
  json::ValuePtr doc = json::parse(text, &perr);
  if (!doc || !doc->is_object()) {
    *err = perr.empty() ? "not a JSON object" : perr;
    return false;
  }
  try {
    if (doc->at("schema").string() != "fourq.perf.v1") {
      *err = "schema is not fourq.perf.v1";
      return false;
    }
    PerfProfile p;
    p.counters = doc->at("counters").string();
    const json::Value& spans = doc->at("spans");
    if (!spans.is_array()) {
      *err = "\"spans\" is not an array";
      return false;
    }
    for (const auto& sv : spans.arr) {
      PerfSpanStat st;
      st.path = sv->at("path").string();
      st.name = sv->at("name").string();
      st.depth = static_cast<int>(whole(sv->at("depth"), INT_MAX));
      const uint64_t n = whole(sv->at("n"), 0x1p53);
      if (!parse_accum(sv->at("wall_us"), n, &st.wall_us)) {
        *err = "span \"" + st.path + "\": bad wall_us";
        return false;
      }
      if (sv->has("perf_n")) {
        st.perf_n = whole(sv->at("perf_n"), 0x1p53);
        struct Field {
          const char* key;
          PerfAccum* acc;
        } fields[] = {{"cycles", &st.cycles},
                      {"instructions", &st.instructions},
                      {"cache_refs", &st.cache_refs},
                      {"cache_misses", &st.cache_misses},
                      {"branch_misses", &st.branch_misses},
                      {"task_clock_ns", &st.task_clock_ns}};
        for (const Field& f : fields) {
          if (sv->has(f.key) && !parse_accum(sv->at(f.key), st.perf_n, f.acc)) {
            *err = "span \"" + st.path + "\": bad " + f.key;
            return false;
          }
        }
      }
      p.spans.push_back(std::move(st));
    }
    std::sort(p.spans.begin(), p.spans.end(),
              [](const PerfSpanStat& a, const PerfSpanStat& b) { return a.path < b.path; });
    *out = std::move(p);
    return true;
  } catch (const std::exception& e) {
    *err = e.what();
    return false;
  }
}

std::string perf_folded(const PerfProfile& p) {
  const bool use_cycles = p.counters == "hardware";
  // Totals per path, then subtract each path's direct children to get self
  // values (the collapsed-stack format wants exclusive weights).
  std::map<std::string, double> total;
  for (const PerfSpanStat& s : p.spans)
    total[s.path] = use_cycles ? s.cycles.sum : s.wall_us.sum;
  std::map<std::string, double> self = total;
  for (const auto& [path, t] : total) {
    (void)t;
    size_t cut = path.rfind(';');
    if (cut == std::string::npos) continue;
    auto parent = self.find(path.substr(0, cut));
    if (parent != self.end()) parent->second -= total[path];
  }
  std::string out;
  for (const auto& [path, v] : self) {
    double clamped = v > 0 ? v : 0;
    out += path + " " + std::to_string(static_cast<long long>(std::llround(clamped))) + "\n";
  }
  return out;
}

PerfDiffReport perf_diff(const PerfProfile& base, const PerfProfile& current) {
  PerfDiffReport r;
  const bool cycles = base.counters == "hardware" && current.counters == "hardware";
  r.metric = cycles ? "cycles" : "wall_us";
  std::map<std::string, const PerfSpanStat*> b, c;
  for (const PerfSpanStat& s : base.spans) b[s.path] = &s;
  for (const PerfSpanStat& s : current.spans) c[s.path] = &s;
  std::map<std::string, char> paths;
  for (const auto& [k, v] : b) {
    (void)v;
    paths[k] = 1;
  }
  for (const auto& [k, v] : c) {
    (void)v;
    paths[k] = 1;
  }
  for (const auto& [path, mark] : paths) {
    (void)mark;
    PerfDiffRow row;
    row.path = path;
    auto bit = b.find(path), cit = c.find(path);
    const PerfAccum* ba = nullptr;
    const PerfAccum* ca = nullptr;
    if (bit != b.end()) {
      row.in_base = true;
      ba = cycles ? &bit->second->cycles : &bit->second->wall_us;
      row.base_mean = ba->mean();
      row.base_n = ba->n;
    }
    if (cit != c.end()) {
      row.in_current = true;
      ca = cycles ? &cit->second->cycles : &cit->second->wall_us;
      row.cur_mean = ca->mean();
      row.cur_n = ca->n;
    }
    if (ba && ca) {
      double denom = std::abs(row.base_mean) > 0 ? std::abs(row.base_mean) : 1.0;
      row.delta_pct = 100.0 * (row.cur_mean - row.base_mean) / denom;
      double seb = ba->stderr_mean(), sec = ca->stderr_mean();
      row.noise = std::sqrt(seb * seb + sec * sec);
      row.significant = std::abs(row.cur_mean - row.base_mean) > 2.0 * row.noise;
    }
    r.rows.push_back(std::move(row));
  }
  return r;
}

std::string perf_diff_text(const PerfDiffReport& r) {
  std::string out = "== perf diff (metric: " + r.metric + ", mean per span) ==\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-52s %14s %14s %9s %10s  %s\n", "span path",
                "baseline", "current", "delta%", "noise", "verdict");
  out += line;
  out += std::string(110, '-') + "\n";
  for (const PerfDiffRow& row : r.rows) {
    if (!row.in_base) {
      std::snprintf(line, sizeof line, "%-52s %14s %14.6g %9s %10s  NEW\n",
                    row.path.c_str(), "-", row.cur_mean, "-", "-");
    } else if (!row.in_current) {
      std::snprintf(line, sizeof line, "%-52s %14.6g %14s %9s %10s  GONE\n",
                    row.path.c_str(), row.base_mean, "-", "-", "-");
    } else {
      const char* verdict = !row.significant      ? "~ (within noise)"
                            : row.delta_pct > 0.0 ? "SLOWER"
                                                  : "faster";
      std::snprintf(line, sizeof line, "%-52s %14.6g %14.6g %+8.2f%% +-%8.4g  %s\n",
                    row.path.c_str(), row.base_mean, row.cur_mean, row.delta_pct,
                    row.noise, verdict);
    }
    out += line;
  }
  return out;
}

std::string perf_diff_json(const PerfDiffReport& r) {
  std::string out = "{\"schema\":\"fourq.perfdiff.v1\",\"metric\":\"" +
                    json_escape(r.metric) + "\",\"rows\":[";
  bool first = true;
  for (const PerfDiffRow& row : r.rows) {
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + json_escape(row.path) + "\"";
    out += ",\"in_base\":" + std::string(row.in_base ? "true" : "false");
    out += ",\"in_current\":" + std::string(row.in_current ? "true" : "false");
    if (row.in_base) out += ",\"base_mean\":" + num(row.base_mean);
    if (row.in_current) out += ",\"current_mean\":" + num(row.cur_mean);
    if (row.in_base && row.in_current) {
      out += ",\"delta_pct\":" + num(row.delta_pct);
      out += ",\"noise\":" + num(row.noise);
      out += ",\"significant\":" + std::string(row.significant ? "true" : "false");
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace fourq::obs

// perfbench: the repository benchmark. Runs one workload for a given seed
// and duration, checks every output, and prints the metrics by name and
// unit; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
//   perfbench --workload its-verify|engine-farm|msm-stream --seed N
//             --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the workload
// with the benchmark's spans around every call into a module, runs the
// per-layer probes, and prints the per-layer metrics (spans are written to
// DIR). --git-sha names the sources' commit in the provenance record
// (run.py passes the checkout's HEAD, marked -dirty if the tree differs from
// it). See README.md for the metric definitions.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "calibration.hpp"
#include "field/fp_lanes.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fourq;

// The default seed, and the held-out seed every claimed gain must also
// hold on (never used while tuning a change).
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 20190325;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string out = "perfbench-out";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload its-verify|engine-farm|msm-stream "
               "[--seed N (default %llu, held-out %llu)] [--seconds S] [--trace 0|1] [--out DIR] "
               "[--git-sha SHA]\n",
               why, static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) usage("--seed takes an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
      if (std::string(v) != "0" && std::string(v) != "1") usage("--trace takes 0 or 1");
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double read_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Set-ups per run (the median is reported), by workload: enough to steady
// the median without dominating the run. msm-stream's set-up is empty.
int setup_reps(const std::string& w) {
  if (w == "its-verify") return 21;
  if (w == "engine-farm") return 21;
  return 1001;
}

struct Loop {
  size_t calls = 0, ops = 0;
  double ns = 0, host_ns = 0;  // reference-speed and raw host call time
  double log_kernel = 0;  // sum of log calibration-kernel time
  // Peak RSS once every distinct call has run: a fixed amount of work, so
  // it does not drift with how many calls a run fits in (the library's
  // span store grows with every call).
  double peak_rss_mb = 0;
  // Per distinct call: latencies at the reference speed and in host time.
  std::vector<std::vector<double>> lat_us, host_lat_us;
};

// One sample per distinct call of the cycle: the median of its latencies
// over the passes, so a host hiccup during one pass does not become a tail.
std::vector<double> call_latencies(const std::vector<std::vector<double>>& per_call) {
  std::vector<double> out;
  for (const std::vector<double>& v : per_call)
    if (!v.empty()) out.push_back(median(v));
  return out;
}

// Runs one call at the host speed sampled before it (and, on a long call,
// inside it); returns its time at the reference speed and scales the call's
// spans to match.
double timed_call(Workload& w, size_t i, Tracer* tr, size_t& ops, double& host_ns,
                  double* kernel = nullptr) {
  const size_t first_span = tr ? tr->spans().size() : 0;
  const double before = host_kernel_ns();
  const CallResult r = w.call(i, tr);
  if (kernel) *kernel = before;
  ops = r.ops;
  host_ns = static_cast<double>(r.ns);
  const double slow =
      (slowdown(before, w.elasticity()) + r.slowdown_sum) / (1 + r.slowdown_samples);
  if (tr) tr->rescale_from(first_span, 1.0 / slow);
  return host_ns / slow;
}

// Closed loop: call after call until `seconds` of call time have been
// measured, at least one full cycle has run (so every distinct op was
// checked) and there are 11 latency samples (enough for a tail).
// `traced(i)` picks the calls that carry spans.
template <class Traced>
void run_loop(Workload& w, double seconds, size_t min_calls, Tracer* tr, Traced traced,
              Loop& untraced_loop, Loop& traced_loop) {
  const size_t cyc = w.cycle();
  const size_t need = std::max(min_calls, std::max<size_t>(cyc, 11));
  for (Loop* l : {&untraced_loop, &traced_loop}) {
    l->lat_us.assign(cyc, {});
    l->host_lat_us.assign(cyc, {});
  }
  for (size_t i = 0;; ++i) {
    const bool t = traced(i);
    size_t ops = 0;
    double host = 0;
    double kernel = 0;
    const double ref = timed_call(w, i, t ? tr : nullptr, ops, host, &kernel);
    Loop& l = t ? traced_loop : untraced_loop;
    l.calls++, l.ops += ops, l.ns += ref, l.host_ns += host;
    l.log_kernel += std::log(kernel);
    l.lat_us[i % cyc].push_back(ref / 1e3);
    l.host_lat_us[i % cyc].push_back(host / 1e3);
    if (i + 1 == cyc) untraced_loop.peak_rss_mb = read_peak_rss_mb();
    if (i + 1 >= need && (untraced_loop.host_ns + traced_loop.host_ns) / 1e9 >= seconds) break;
  }
}

void print_metric(const Metric& m, const std::string& note = "") {
  if (m.available)
    std::printf("metric %-40s %14.6g %-6s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                note.c_str());
  else
    std::printf("metric %-40s %14s %-6s (FOURQ_OBS=OFF)\n", m.name.c_str(), "unavailable",
                m.unit.c_str());
}

// Self time per span name (reference speed): duration minus the part its
// children cover.
void print_self_times(const Tracer& tr) {
  struct Acc {
    size_t n = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Acc> acc;
  const auto& spans = tr.spans();
  std::vector<double> child(spans.size(), 0);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.ns();
  double roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].ns();
    Acc& a = acc[spans[i].name];
    a.n++, a.total += d, a.self += d - child[i];
    if (spans[i].parent < 0) roots += d;
  }
  for (const auto& [name, a] : acc)
    std::printf("span %-12s %-22s n=%-8zu total_ms=%-12.3f self_ms=%-12.3f self_share=%.4f\n",
                tr.scope().c_str(), name.c_str(), a.n, a.total / 1e6, a.self / 1e6,
                roots > 0 ? a.self / roots : 0.0);
}

void write_spans(const std::vector<const Tracer*>& tracers, const std::string& path) {
  std::ofstream os(path);
  for (const Tracer* tr : tracers)
    for (const SpanRecord& s : tr->spans())
      os << "{\"scope\":\"" << tr->scope() << "\",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << ",\"call\":" << s.call
         << ",\"scale\":" << s.scale << "}\n";
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload);
  if (!w) usage(("unknown workload " + a.workload).c_str());

  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"lanes_kernels\": \"%s\", \"nproc\": %ld, "
      "\"build_type\": \"%s\", \"fourq_obs\": %s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}\n",
      a.git_sha.c_str(), field::lanes::active().name, sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE, obs::compiled_in() ? "true" : "false", a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace);

  w->generate(a.seed, false);
  std::vector<double> setup_s, host_setup_s;
  const double e = w->elasticity();
  for (int r = 0; r < setup_reps(a.workload); ++r) {
    w->teardown();
    const double slow = slowdown(host_kernel_ns(), e);
    const int64_t t0 = now_ns();
    w->setup();
    const double host_s = static_cast<double>(now_ns() - t0) / 1e9;
    host_setup_s.push_back(host_s);
    setup_s.push_back(host_s / slow);
  }

  Metrics m;
  bool correct = true;
  std::vector<std::string> problems;
  if (a.trace == 0) {
    Loop loop, unused;
    run_loop(*w, a.seconds, 0, nullptr, [](size_t) { return false; }, loop, unused);
    const std::vector<double> lat = call_latencies(loop.lat_us);
    const std::vector<double> host_lat = call_latencies(loop.host_lat_us);
    const Tail t = tail(lat);
    m.set("ops_per_s", static_cast<double>(loop.ops) / (loop.ns / 1e9), "1/s");
    m.set("op_p50_us", median(lat), "us");
    m.set("op_tail_us", t.value, "us");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", loop.peak_rss_mb, "MB");
    for (const Metric& x : m.list()) {
      char note[160] = "";
      if (x.name == "op_tail_us")
        std::snprintf(note, sizeof note, " (p%.2f of %zu distinct calls, %zu calls run%s)",
                      t.percentile, t.samples, loop.calls,
                      t.percentile < 50 ? "; under 21 samples, so a rank below the median" : "");
      if (x.name == "setup_s")
        std::snprintf(note, sizeof note, " (median of %zu set-ups)", setup_s.size());
      if (x.name == "peak_rss_mb")
        std::snprintf(note, sizeof note, " (after one pass over the cycle; %.1f MB at exit)",
                      read_peak_rss_mb());
      print_metric(x, note);
    }
    const double n = static_cast<double>(loop.calls);
    std::printf("host time (unscaled): ops_per_s %.6g, op_p50_us %.6g, op_tail_us %.6g, "
                "setup_s %.6g; reference speed / host speed %.4f, "
                "calibration kernel geomean %.0f ns\n",
                static_cast<double>(loop.ops) / (loop.host_ns / 1e9), median(host_lat),
                tail(host_lat).value, median(host_setup_s), loop.ns / loop.host_ns,
                std::exp(loop.log_kernel / n));
  } else {
    // Passes over the cycle alternate untraced / traced; the gap between
    // their throughputs is the tracing overhead.
    Tracer tr(a.workload);
    Loop plain, traced;
    const size_t cyc = w->cycle();
    run_loop(*w, a.seconds, 2 * cyc, &tr, [cyc](size_t i) { return (i / cyc) % 2 == 1; }, plain,
             traced);
    const double rate_plain = static_cast<double>(plain.ops) / plain.ns;
    const double rate_traced = static_cast<double>(traced.ops) / traced.ns;
    run_probes(a.seed, m, problems);
    w->layer_metrics(tr, m);
    m.set("obs.trace_overhead_pct", 100.0 * (rate_plain - rate_traced) / rate_plain, "%");
    // The untraced passes in raw host time, beside the reference-speed
    // figures the end-to-end metrics report.
    m.set("host.ops_per_s", static_cast<double>(plain.ops) / (plain.host_ns / 1e9), "1/s");
    m.set("host.op_p50_us", median(call_latencies(plain.host_lat_us)), "us");
    m.set("host.setup_s", median(host_setup_s), "s");
    m.set("host.slowdown", plain.host_ns / plain.ns, "ratio");

    w->teardown();  // keep to two threads: the caller and one engine worker

    // Layers this workload bypasses: one traced pass over the short cycle
    // of the workload that exercises them.
    std::vector<std::unique_ptr<Tracer>> others;
    for (const std::string& name : workload_names()) {
      if (name == a.workload) continue;
      std::unique_ptr<Workload> o = make_workload(name);
      o->generate(a.seed, true);
      o->setup();
      others.push_back(std::make_unique<Tracer>(name));
      for (size_t i = 0; i < o->cycle(); ++i) {
        size_t ops = 0;
        double host = 0;
        timed_call(*o, i, others.back().get(), ops, host);
      }
      o->layer_metrics(*others.back(), m);
      for (const std::string& line : o->report()) std::printf("replay %s\n", line.c_str());
      correct &= !o->failures().unexpected;
    }

    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    const std::string path =
        a.out + "/spans-" + a.workload + "-seed" + std::to_string(a.seed) + ".jsonl";
    std::vector<const Tracer*> all{&tr};
    for (const auto& o : others) all.push_back(o.get());
    write_spans(all, path);
    std::printf("spans written to %s\n", path.c_str());
    for (const Tracer* t : all) print_self_times(*t);
    for (const Metric& x : m.list()) print_metric(x);
  }

  const FailureLog& f = w->failures();
  const size_t attempted = w->cycle_ops(), failed = f.count();
  for (const std::string& line : w->report()) std::printf("%s\n", line.c_str());
  for (const std::string& p : problems) std::printf("probe failure: %s\n", p.c_str());
  std::printf("fail_ratio %.6g ratio (%zu of %zu distinct ops failed)\n",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  correct &= !f.unexpected && problems.empty();

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : m.list()) {
    json += (first ? "\"" : ", \"") + x.name +
            "\": {\"value\": " + (x.available ? num(x.value) : "null") + ", \"unit\": \"" +
            x.unit + "\"}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // One CPU for the caller and the engine worker: the closed loop never
  // runs both at once, and the calibration kernel must run where the work
  // runs.
  perfbench::pin_to_current_cpu();
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

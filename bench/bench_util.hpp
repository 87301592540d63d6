// Shared helpers for the experiment-reproduction binaries: fixed-width
// table printing, machine-readable result records, and the standard
// trace/compile shortcuts.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "field/fp_lanes.hpp"
#include "obs/json.hpp"
#include "sched/compile.hpp"
#include "trace/eval.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::bench {

// Where JsonRecorder writes its BENCH_<name>.json files. Resolution order:
// the --json-dir flag (via parse_bench_args), $FOURQ_BENCH_JSON_DIR, then
// the working directory. The directory is created on first use.
inline std::string& json_dir_override() {
  static std::string dir;
  return dir;
}

inline std::string json_dir() {
  if (!json_dir_override().empty()) return json_dir_override();
  const char* env = std::getenv("FOURQ_BENCH_JSON_DIR");
  return (env && *env) ? std::string(env) : std::string();
}

// Standard CLI handling for the bench binaries: `--json-dir DIR` routes the
// machine-readable records, `--help` documents it. Unknown flags abort so
// typos fail loudly in scripts.
inline void parse_bench_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-dir") == 0 && i + 1 < argc) {
      json_dir_override() = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: %s [--json-dir DIR]\n\n"
                  "  --json-dir DIR  write BENCH_<name>.json records into DIR\n"
                  "                  (default: $FOURQ_BENCH_JSON_DIR, else cwd)\n",
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0], argv[i]);
      std::exit(2);
    }
  }
}

// Machine-readable companion to the console tables: one JSON object per
// recorded metric, written to BENCH_<name>.json (JSON lines) in the
// directory selected by json_dir() (default: the working directory). The
// records use the same {"bench","metric","value"} shape tools/perf_regress
// consumes, so bench results can be diffed against a checked-in baseline
// directly.
class JsonRecorder {
 public:
  explicit JsonRecorder(const std::string& bench) : bench_(bench) {
    std::string dir = json_dir();
    std::string path;
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec)
        std::fprintf(stderr, "bench: cannot create %s: %s\n", dir.c_str(),
                     ec.message().c_str());
      path = dir + "/";
    }
    path += "BENCH_" + bench + ".json";
    f_ = std::fopen(path.c_str(), "w");
    if (!f_) std::fprintf(stderr, "bench: cannot open %s for JSON records\n", path.c_str());
    // First line: shared provenance header (schema, commit, UTC timestamp),
    // so two BENCH_*.json files being diffed always identify their builds.
    // perf_regress keys on "metric" and skips this line transparently.
    if (f_) {
      std::fputs(obs::provenance_line("fourq.bench.v1").c_str(), f_);
      std::fflush(f_);
    }
  }
  ~JsonRecorder() {
    if (f_) std::fclose(f_);
  }
  JsonRecorder(const JsonRecorder&) = delete;
  JsonRecorder& operator=(const JsonRecorder&) = delete;

  void record(const std::string& metric, double value, const std::string& unit = "") {
    if (!f_) return;
    std::string line = "{\"bench\":\"" + obs::json_escape(bench_) + "\",\"metric\":\"" +
                       obs::json_escape(metric) + "\"";
    char num[48];
    std::snprintf(num, sizeof num, "%.10g", value);
    line += std::string(",\"value\":") + num;
    if (!unit.empty()) line += ",\"unit\":\"" + obs::json_escape(unit) + "\"";
    line += "}\n";
    std::fputs(line.c_str(), f_);
    std::fflush(f_);
  }

 private:
  std::string bench_;
  std::FILE* f_ = nullptr;
};

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

// Per-lane cost (ns) of the dispatched F_{p^2} mul and add lane kernels,
// called in 8-lane waves (the engine wave width and the MSM insertion
// group) over 256 canonical operands. These are the prices the in-process
// ledger gates charge: a layer's floor is its op counts times these costs,
// and its efficiency is floor / measured. A gate runs one pricing pass
// right after each timed run of its layer and keeps the best of each, so
// the best run and the best prices come from the same stretch of host load.
struct LaneFp2Cost {
  double mul_ns = 0.0;
  double add_ns = 0.0;
};

inline LaneFp2Cost lane_fp2_cost() {
  constexpr size_t kN = 256, kWave = 8;
  constexpr int kPasses = 400;
  const field::lanes::Kernels& k = field::lanes::active();
  Rng rng(0x1a4e);
  std::vector<u128> are(kN), aim(kN), bre(kN), bim(kN), rre(kN), rim(kN);
  for (size_t i = 0; i < kN; ++i) {
    are[i] = field::Fp::from_u256(rng.next_u256()).raw();
    aim[i] = field::Fp::from_u256(rng.next_u256()).raw();
    bre[i] = field::Fp::from_u256(rng.next_u256()).raw();
    bim[i] = field::Fp::from_u256(rng.next_u256()).raw();
  }
  auto per_lane_ns = [&](auto kernel) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass)
      for (size_t g = 0; g < kN; g += kWave)
        kernel(&are[g], &aim[g], &bre[g], &bim[g], &rre[g], &rim[g], kWave);
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    return ns / (static_cast<double>(kPasses) * kN);
  };
  LaneFp2Cost c;
  c.mul_ns = per_lane_ns(k.fp2_mul);
  c.add_ns = per_lane_ns(k.fp2_add);
  return c;
}

}  // namespace fourq::bench

// fourqc stats — read back the snapshot exporter's directory, validate
// metrics.jsonl (obs::validate_metrics_jsonl) and pretty-print (or tail)
// it. Exit 1 on a malformed file, so CI uses it as the smoke check for the
// export pipeline.
//
// fourqc perf diff — differential profiling over fourq.perf.v1 artifacts.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <thread>

#include "fourqc/cli.hpp"
#include "obs/exporter.hpp"
#include "obs/perf_profile.hpp"

namespace fourq::cli {

namespace {

bool read_text_file(const std::string& path, std::string* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  *out = std::string(std::istreambuf_iterator<char>(in), {});
  return true;
}

}  // namespace

int run_stats(int argc, char** argv) {
  std::string dir;
  bool json = false;
  int follow = 0, interval_ms = 1000;

  std::vector<Flag> flags = {
      text_flag("--dir", "DIR", "snapshot directory (default $FOURQ_OBS_EXPORT_DIR)", &dir),
      switch_flag("--json", "print the validated metrics.jsonl", &json),
      int_flag("--follow", "re-read and re-print N times", &follow, 1, kMaxInt),
      int_flag("--interval-ms", "delay between --follow reads (default 1000)", &interval_ms, 1,
               kMaxInt)};
  Args args = parse_flags("fourqc stats",
                          "usage: fourqc stats [options]\n"
                          "Validate and pretty-print (or tail) the telemetry snapshots written\n"
                          "by a live `fourqc batch` run; exit 1 on malformed snapshots.",
                          argc, argv, flags);
  args.needs("--interval-ms", "--follow");
  if (const char* d = std::getenv("FOURQ_OBS_EXPORT_DIR"); dir.empty() && d) dir = d;
  if (dir.empty()) {
    std::fprintf(stderr,
                 "fourqc stats: no snapshot directory (pass --dir or set "
                 "FOURQ_OBS_EXPORT_DIR)\n");
    return 2;
  }

  for (int round = 0; round <= follow; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      std::printf("\n");
    }
    const std::string path = dir + "/metrics.jsonl";
    std::string text, err;
    std::vector<obs::json::ValuePtr> lines;
    if (read_text_file(path, &text, &err)) {
      lines = obs::validate_metrics_jsonl(text, &err);
      if (lines.empty()) err = path + ": " + err;
    }
    if (lines.empty()) {
      std::fprintf(stderr, "fourqc stats: %s\n", err.c_str());
      return 1;
    }
    if (json) {
      std::fputs(text.c_str(), stdout);
      continue;
    }

    const obs::json::Value& prov = *lines.front();
    std::printf("snapshot %s\n", dir.c_str());
    std::printf("  provenance: git %s, %s, machine %s\n", prov.at("git_sha").string().c_str(),
                prov.at("timestamp_utc").string().c_str(),
                prov.has("machine_hash") ? prov.at("machine_hash").string().c_str() : "-");
    std::printf("  %zu metric(s)\n", lines.size() - 1);
    for (size_t i = 1; i < lines.size(); ++i) {
      const obs::json::Value& m = *lines[i];
      const std::string& type = m.at("type").string();
      if (type == "histogram")
        std::printf("  %-58s count=%-8.0f p50=%-10.1f p90=%-10.1f p99=%-10.1f\n",
                    m.at("metric").string().c_str(), m.at("count").number(),
                    m.at("p50").number(), m.at("p90").number(), m.at("p99").number());
      else
        std::printf("  %-58s %s=%.6g\n", m.at("metric").string().c_str(), type.c_str(),
                    m.at("value").number());
    }
  }
  return 0;
}

int run_perf(int argc, char** argv) {
  const char* usage = "usage: fourqc perf diff BASE.json CURRENT.json";
  if (argc < 1 || std::string(argv[0]) != "diff") {
    std::fprintf(stderr, "%s\n", usage);
    return 2;
  }
  std::vector<std::string> files;
  parse_flags("fourqc perf diff",
              std::string(usage) +
                  "\nAligns two fourq.perf.v1 artifacts by span path and reports per-phase\n"
                  "deltas with standard-error noise bars (cycles when both artifacts carry\n"
                  "hardware counters, wall time otherwise).",
              argc - 1, argv + 1, {}, &files);
  if (files.size() != 2) {
    std::fprintf(stderr, "%s\n", usage);
    return 2;
  }
  obs::PerfProfile profs[2];
  for (size_t i = 0; i < 2; ++i) {
    std::string text, err;
    if (!read_text_file(files[i], &text, &err) ||
        !obs::parse_perf_profile(text, &profs[i], &err)) {
      std::fprintf(stderr, "fourqc perf diff: %s: %s\n", files[i].c_str(), err.c_str());
      return 2;
    }
  }
  obs::PerfDiffReport rep = obs::perf_diff(profs[0], profs[1]);
  std::printf("%s", obs::perf_diff_text(rep).c_str());
  return 0;
}

}  // namespace fourq::cli

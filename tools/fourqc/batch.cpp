// fourqc batch — compile once (through the engine's CompileCache), then run a
// batch of scalar multiplications on the worker-pool simulator farm, and
// optionally batch-verify SchnorrQ signatures, e.g.
// `fourqc batch --verify-sigs 64 --corrupt 3,17`. With $FOURQ_ROM_CACHE_DIR
// set, the compiled ROM persists on disk and later processes skip the
// scheduler solve entirely (watch 'scheduler solves' drop to 0).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/batch.hpp"
#include "fourqc/cli.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "obs/perf_profile.hpp"

namespace fourq::cli {

namespace {

unsigned long long count(obs::Registry& reg, const char* name, const obs::Labels& labels = {}) {
  return static_cast<unsigned long long>(reg.counter(name, labels).value());
}

// Batch-verifies `n` SchnorrQ signatures (the `corrupt` ones tampered with)
// and prints the verdicts, the MSM backends the run used and the speedup
// over verifying one by one.
void verify_signatures(engine::BatchEngine& eng, int n, const std::vector<int>& corrupt,
                       uint64_t seed) {
  dsa::SchnorrQ scheme;
  Rng krng(seed ^ 0xdead5eed);
  std::vector<dsa::SchnorrQ::BatchItem> items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(krng);
    std::string msg = "fourqc batch message " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  for (int idx : corrupt) items[static_cast<size_t>(idx)].msg += " (tampered)";
  auto v0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> verdicts = eng.verify(items);
  double ver_ms = ms_since(v0);
  std::string rejected;
  for (size_t i = 0; i < verdicts.size(); ++i)
    if (!verdicts[i]) rejected += (rejected.empty() ? "" : ",") + std::to_string(i);
  // Telemetry was reset at the top of this invocation, so the MSM counters
  // describe exactly this verification.
  obs::Registry& reg = obs::global().metrics;
  std::string backends;
  for (const char* b : {"straus", "pippenger"})
    if (count(reg, "curve.msm.calls", {{"backend", b}}))
      backends += (backends.empty() ? "" : "+") + std::string(b);
  std::printf("  batch-verified %zu signatures in %.1f ms (msm backend: %s): %s\n",
              verdicts.size(), ver_ms, backends.empty() ? "not counted" : backends.c_str(),
              rejected.empty() ? "all valid" : ("rejected [" + rejected + "]").c_str());
  // Same verdicts the slow way, for the speedup headline.
  auto s0 = std::chrono::steady_clock::now();
  for (const auto& it : items) (void)scheme.verify(it.pub, it.msg, it.sig);
  double ind_ms = ms_since(s0);
  std::printf("  individual verify of the same %zu: %.1f ms -> batch speedup %.2fx\n",
              items.size(), ind_ms, ver_ms > 0 ? ind_ms / ver_ms : 0.0);
  if (obs::compiled_in()) {
    // One-line curve.msm.* summary of every MSM the verification ran. terms
    // counts both backends, whichever the crossover picked.
    unsigned long long terms = 0;
    for (const char* b : {"straus", "pippenger"})
      terms += count(reg, "curve.msm.terms", {{"backend", b}});
    std::printf("  msm: calls=%llu terms=%llu chunks=%llu waves=%llu peak=%.0f KB\n",
                count(reg, "curve.msm.calls"), terms, count(reg, "curve.msm.chunks"),
                count(reg, "curve.msm.bucket_waves"), reg.gauge("curve.msm.peak_kb").value());
  }
}

}  // namespace

int run_batch(int argc, char** argv) {
  Flow flow;
  // Batch runs default to the checkable program: functional endomorphism
  // constants so outputs equal software [k]P.
  flow.topt.endo = trace::EndoVariant::kFunctional;
  int jobs_n = 64, workers = 1, verify_sigs = 0, interval_ms = 0;
  uint64_t seed = 42;
  std::vector<int> corrupt;
  std::string export_dir, perf_out = "batch_perf.json";
  bool hw = false;

  std::vector<Flag> flags = {
      int_flag("--jobs", "scalar multiplications (default 64)", &jobs_n, 1, kMaxInt),
      int_flag("--workers", "worker threads (default 1)", &workers, 1, kMaxThreads),
      {"--seed", "N", "scalar-generation seed (default 42)",
       [&](char** v) {
         seed = flag_value("--seed", v[0], 0, UINT64_MAX);
         return true;
       }},
      int_flag("--verify-sigs", "also batch-verify N SchnorrQ signatures", &verify_sigs, 0,
               kMaxInt),
      {"--corrupt", "i,j,...", "corrupt these signature indices first",
       [&](char** v) {
         // Range-checked against --verify-sigs once every flag is read.
         for (const std::string& idx : split_csv(v[0]))
           corrupt.push_back(static_cast<int>(flag_value("--corrupt", idx.c_str(), 0, kMaxInt)));
         return true;
       }},
      text_flag("--export-dir", "DIR",
                "live telemetry snapshot directory (default $FOURQ_OBS_EXPORT_DIR)", &export_dir),
      int_flag("--export-interval-ms",
               "snapshot period (default $FOURQ_OBS_EXPORT_INTERVAL_MS or 1000)", &interval_ms,
               0, kMaxInt),
      switch_flag("--hw", "per-worker perf_event counters and a fourq.perf.v1 artifact", &hw),
      text_flag("--perf-out", "FILE", "--hw artifact path (default batch_perf.json)",
                &perf_out)};
  add_flow_flags(flags, flow);
  Args args = parse_flags("fourqc batch",
                          "usage: fourqc batch [options]\n"
                          "Compile once through the engine's CompileCache, then run a batch of\n"
                          "scalar multiplications on the worker-pool simulator farm; optionally\n"
                          "SchnorrQ batch verification. $FOURQ_ROM_CACHE_DIR persists the ROM.",
                          argc, argv, flags);
  args.needs("--perf-out", "--hw");
  for (int idx : corrupt)
    if (idx >= verify_sigs) {
      std::fprintf(stderr, "fourqc: bad --corrupt value: %d (--verify-sigs %d)\n", idx,
                   verify_sigs);
      return 2;
    }

  // Live telemetry: with an export directory (flag or env), a background
  // exporter refreshes the snapshot files for `fourqc stats` and scrapers.
  obs::ExporterOptions xopt;
  xopt.dir = export_dir;
  if (const char* d = std::getenv("FOURQ_OBS_EXPORT_DIR"); xopt.dir.empty() && d)
    xopt.dir = d;
  if (const char* iv = std::getenv("FOURQ_OBS_EXPORT_INTERVAL_MS"); iv && *iv)
    if (int v = static_cast<int>(flag_value("FOURQ_OBS_EXPORT_INTERVAL_MS", iv, 0, kMaxInt)))
      xopt.interval_ms = v;
  if (interval_ms > 0) xopt.interval_ms = interval_ms;
  if (xopt.dir.empty()) args.reject("--export-interval-ms", "without an export directory");

  // Fresh telemetry so the solve/compile span counts below describe exactly
  // this invocation.
  obs::global().reset();
  if (hw) obs::perf_set_enabled(true);

  const engine::CompileKey key = flow.key();
  engine::EngineOptions eopt;
  eopt.workers = workers;
  eopt.key = key;
  engine::BatchEngine eng(eopt);

  std::unique_ptr<obs::SnapshotExporter> exporter;
  if (!xopt.dir.empty()) {
    xopt.machine_hash = key.hash_hex();
    exporter = std::make_unique<obs::SnapshotExporter>(obs::global(), xopt);
    exporter->start();
    std::printf("fourqc batch: telemetry snapshots -> %s (every %d ms)\n",
                exporter->options().dir.c_str(), exporter->options().interval_ms);
  }

  std::printf("fourqc batch: %d jobs on %d worker%s x %d lanes (%s variant, key %s)\n", jobs_n,
              eng.workers(), eng.workers() == 1 ? "" : "s", engine::kMaxLanes,
              flow.variant_name(), key.hash_hex().c_str());

  auto c0 = std::chrono::steady_clock::now();
  eng.program();
  double compile_ms = ms_since(c0);
  // Full compiles are the scheduler solves; a disk hit skips the solver. The
  // cache counts them in every build, FOURQ_OBS=OFF included.
  engine::CompileCache::Stats cs = engine::CompileCache::process_cache().stats();
  const size_t solves = cs.misses;
  std::printf(
      "  program ready in %.2f ms  (cache: %zu hit, %zu miss, %zu disk; "
      "scheduler solves this run: %zu%s)\n",
      compile_ms, cs.hits, cs.misses, cs.disk_hits, solves,
      solves == 0 ? " -- warm start, solver skipped" : "");

  Rng rng(seed);
  curve::Affine base = curve::deterministic_point(1);
  std::vector<engine::SmJob> jobs(static_cast<size_t>(jobs_n));
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), base};

  auto t0 = std::chrono::steady_clock::now();
  std::vector<engine::SmResult> results = eng.run(jobs);
  double run_s = ms_since(t0) / 1e3;

  asic::SimStats stats = results.empty() ? asic::SimStats{} : results.front().stats;
  record_sim_metrics("sim.batch", stats);
  double jobs_per_s = run_s > 0 ? static_cast<double>(jobs.size()) / run_s : 0.0;
  std::printf("  simulated %zu scalar mults in %.1f ms -> %.1f jobs/s (%d cycles/job)\n",
              jobs.size(), run_s * 1e3, jobs_per_s, stats.cycles);

  int rc = 0;
  if (flow.topt.endo == trace::EndoVariant::kFunctional && flow.topt.include_inversion) {
    size_t bad = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      curve::Affine sw = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
      if (!(results[i].out.x == sw.x) || !(results[i].out.y == sw.y)) ++bad;
    }
    std::printf("  cross-check vs software [k]P: %zu/%zu %s\n", bad ? bad : jobs.size(),
                jobs.size(), bad ? "MISMATCH" : "match");
    if (bad) rc = 1;
  } else {
    std::printf("  cross-check skipped (needs --variant functional with inversion)\n");
  }

  if (verify_sigs > 0) verify_signatures(eng, verify_sigs, corrupt, seed);

  obs::Registry& reg = obs::global().metrics;
  if (obs::compiled_in()) {
    // Wave-packing picture of the run: every wave (partial ones included),
    // the jobs that ran in a partial wave, and how full the wave slots were
    // on average.
    std::printf("  lanes: waves=%llu partial-wave jobs=%llu occupancy=%.3f (fp kernels: %s)\n",
                count(reg, "engine.lanes.waves"), count(reg, "engine.lanes.ragged_jobs"),
                reg.gauge("engine.lanes.occupancy").value(), field::lanes::active().name);
  }
  std::printf("  engine.cache.hit=%llu engine.cache.miss=%llu engine.cache.disk.hit=%llu "
              "engine.cache.disk.reject=%zu sched.compile spans=%zu\n",
              count(reg, "engine.cache.hit"), count(reg, "engine.cache.miss"),
              count(reg, "engine.cache.disk.hit"), cs.disk_rejects,
              obs::global().spans.count("sched.compile"));
  if (obs::compiled_in()) {
    obs::HistogramStats w = reg.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).stats();
    obs::HistogramStats s =
        reg.latency_histogram("engine.job.service_us", {{"kind", "sm"}}).stats();
    if (w.count && s.count)
      std::printf("  sm tasks: queue-wait p50/p99 %.0f/%.0f us, service p50/p99 "
                  "%.0f/%.0f us (%llu tasks)\n",
                  w.quantile(0.5), w.quantile(0.99), s.quantile(0.5), s.quantile(0.99),
                  static_cast<unsigned long long>(s.count));
  }
  if (hw && obs::compiled_in()) {
    // Per-kind attribution from the worker-maintained perf.* counters
    // (cycles-per-job and IPC gauges are refreshed after every batch).
    const char* src = obs::perf_source_name(obs::perf_thread_source());
    const obs::Labels sm_l{{"kind", "sm"}};
    double cpj = reg.gauge("perf.cycles_per_job", sm_l).value();
    double ipc = reg.gauge("perf.ipc", sm_l).value();
    unsigned long long task_clock = count(reg, "perf.task_clock_ns", sm_l);
    if (cpj > 0)
      std::printf("  hw counters (%s): %.3g cpu-cycles/sm-job, IPC %.2f\n", src, cpj, ipc);
    else if (task_clock > 0)
      std::printf("  hw counters (%s): %.3g task-clock ns/sm-job\n", src,
                  static_cast<double>(task_clock) /
                      static_cast<double>(std::max(1ull, count(reg, "engine.jobs.sm"))));
    else
      std::printf("  hw counters: unavailable (perf_event_open blocked here)\n");
    obs::PerfProfile prof = obs::global().spans.profile();
    if (write_file(perf_out, obs::perf_profile_json(prof, key.hash_hex())))
      std::printf("  hw profile (fourq.perf.v1, counters: %s) -> %s\n", prof.counters.c_str(),
                  perf_out.c_str());
  }
  if (exporter) {
    exporter->stop();  // final flush so the last snapshot covers the whole run
    std::printf("  telemetry: %llu snapshot(s) written to %s\n",
                static_cast<unsigned long long>(exporter->snapshots_written()),
                exporter->options().dir.c_str());
  }
  return rc;
}

}  // namespace fourq::cli

// Engine experiment — batch execution throughput. The status-quo path this
// repo shipped with re-ran the whole offline flow (trace -> schedule ->
// regalloc -> ROM) for every simulated scalar multiplication; the batch
// engine compiles once through the CompileCache, pre-decodes the ROM, and
// farms simulations out to a worker pool. This bench measures exactly that
// gap, plus cold- vs warm-cache compile latency, and cross-checks engine
// outputs against the software scalar multiplier.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "engine/batch.hpp"
#include "obs/obs.hpp"

namespace {

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fourq;
  bench::parse_bench_args(argc, argv);

  bench::print_header("Engine — batch throughput vs recompile-per-job status quo");

  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kFunctional;  // checkable against software [k]P

  engine::CompileKey key;
  key.trace = topt;

  constexpr int kBaselineJobs = 12;  // each pays a full compile; keep it short
  constexpr int kEngineJobs = 256;

  Rng rng(20260806);
  curve::Affine base = curve::deterministic_point(1);
  std::vector<engine::SmJob> jobs(kEngineJobs);
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), base};

  // Status quo: every job re-runs trace construction, the scheduler solve,
  // register allocation and ROM emission before simulating (what
  // bench_throughput and fourqc --verify did per repetition before the
  // engine existed).
  trace::InputBindings bindings;
  auto b0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBaselineJobs; ++i) {
    trace::SmTrace sm = trace::build_sm_trace(topt);
    sched::CompileResult r = sched::compile_program(sm.program, key.compile);
    curve::Decomposition dec = curve::decompose(jobs[static_cast<size_t>(i)].k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    trace::EvalContext ctx;
    ctx.recoded = &rec;
    ctx.k_was_even = dec.k_was_even;
    trace::bind_sm_inputs(sm, base, bindings);
    asic::simulate(r.sm, bindings, ctx);
  }
  double baseline_s = secs_since(b0);
  double baseline_jobs_per_s = kBaselineJobs / baseline_s;

  // Cold vs warm compile through the cache (fresh in-memory cache, so the
  // first get_or_compile really solves).
  engine::CompileCache cache;
  auto c0 = std::chrono::steady_clock::now();
  cache.get_or_compile(key);
  double cold_ms = secs_since(c0) * 1e3;
  auto c1 = std::chrono::steady_clock::now();
  cache.get_or_compile(key);
  double warm_ms = secs_since(c1) * 1e3;

  auto run_engine = [&](int workers) {
    engine::EngineOptions eopt;
    eopt.workers = workers;
    eopt.key = key;
    eopt.cache = &cache;
    engine::BatchEngine eng(eopt);
    eng.program();  // compile/decode outside the timed region
    eng.run(jobs);  // warm-up: sizes every worker arena before timing
    // Best of three: on an oversubscribed host a single run is dominated by
    // whatever else the OS schedules onto the cores mid-batch.
    double best = 0.0;
    std::vector<engine::SmResult> results;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      results = eng.run(jobs);
      best = std::max(best, kEngineJobs / secs_since(t0));
    }
    return std::pair<double, std::vector<engine::SmResult>>(best, std::move(results));
  };

  auto [jobs_per_s_1w, results_1w] = run_engine(1);
  auto [jobs_per_s_8w, results_8w] = run_engine(8);

  // Correctness: engine output must equal the software golden model, and the
  // two pool sizes must agree bitwise.
  int mismatches = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    curve::Affine sw = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
    if (!(results_1w[i].out.x == sw.x) || !(results_1w[i].out.y == sw.y)) ++mismatches;
    if (!(results_8w[i].out.x == results_1w[i].out.x) ||
        !(results_8w[i].out.y == results_1w[i].out.y))
      ++mismatches;
  }

  double speedup_1w = jobs_per_s_1w / baseline_jobs_per_s;
  double speedup_8w = jobs_per_s_8w / baseline_jobs_per_s;

  std::printf("%-38s %12s %12s\n", "Configuration", "jobs/s", "speedup");
  bench::print_rule(64);
  std::printf("%-38s %12.1f %12s\n", "recompile per job (status quo)", baseline_jobs_per_s,
              "1.00x");
  std::printf("%-38s %12.1f %11.2fx\n", "engine, 1 worker, cached program", jobs_per_s_1w,
              speedup_1w);
  std::printf("%-38s %12.1f %11.2fx\n", "engine, 8 workers, cached program", jobs_per_s_8w,
              speedup_8w);
  std::printf("\nCompile latency through the cache: cold %.2f ms, warm %.4f ms\n", cold_ms,
              warm_ms);
  std::printf("Cross-check vs software [k]P over %d scalars: %s\n", kEngineJobs,
              mismatches == 0 ? "all match" : "MISMATCH");

  bench::JsonRecorder rec("engine");
  rec.record("baseline.recompile_per_job.jobs_per_s", baseline_jobs_per_s, "jobs/s");
  rec.record("engine.1w.jobs_per_s", jobs_per_s_1w, "jobs/s");
  rec.record("engine.8w.jobs_per_s", jobs_per_s_8w, "jobs/s");
  rec.record("speedup_1w_vs_single_thread", speedup_1w, "x");
  rec.record("speedup_8w_vs_single_thread", speedup_8w, "x");
  rec.record("compile.cold_ms", cold_ms, "ms");
  rec.record("compile.warm_ms", warm_ms, "ms");
  rec.record("check.mismatches", mismatches);

  // Tail-latency view of the same runs, from the engine's lifecycle
  // histograms: queue wait (enqueue -> dequeue) and service time.
  if (obs::compiled_in()) {
    obs::Registry& reg = obs::global().metrics;
    obs::HistogramStats wait =
        reg.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).stats();
    obs::HistogramStats svc =
        reg.latency_histogram("engine.job.service_us", {{"kind", "sm"}}).stats();
    if (wait.count) {
      std::printf("Task lifecycle (both engine runs): queue-wait p50/p99 %.0f/%.0f us, "
                  "service p50/p99 %.0f/%.0f us\n",
                  wait.quantile(0.5), wait.quantile(0.99), svc.quantile(0.5),
                  svc.quantile(0.99));
      rec.record("queue_wait.p50_us", wait.quantile(0.5), "us");
      rec.record("queue_wait.p99_us", wait.quantile(0.99), "us");
      rec.record("service.p50_us", svc.quantile(0.5), "us");
      rec.record("service.p99_us", svc.quantile(0.99), "us");
    }
  }

  std::printf(
      "\nThe engine amortises one scheduler solve over the whole batch and runs\n"
      "the pre-decoded ROM on reusable per-worker arenas; the status-quo column\n"
      "pays the full offline flow for every job, which is what every repetition\n"
      "of the old bench loop did.\n");
  return mismatches == 0 ? 0 : 1;
}

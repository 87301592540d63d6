// fourqc — command-line driver for the complete design flow: trace the SM
// program, schedule it, emit the control ROM, optionally simulate/verify,
// disassemble, save the ROM image, and report silicon projections.
//
// Examples:
//   fourqc --report
//   fourqc --variant functional --verify 1f2e3d4c --report
//   fourqc --solver anneal --anneal-iters 1000 --save-rom sm.rom
//   fourqc --multipliers 2 --read-ports 8 --write-ports 3 --report
//   fourqc --disasm 0 30
//   fourqc profile --out profile_out
//   fourqc explain
//   fourqc explain --program sm --backends seq,list,anneal
//   fourqc lint --program loop --json
//   fourqc lint --program sm --out lint_out
//   fourqc batch --jobs 256 --workers 8 --rom-cache rom_cache
//   fourqc batch --verify-sigs 64 --corrupt 3,17
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/range/range.hpp"
#include "asic/explain.hpp"
#include "asic/looped.hpp"
#include "asic/romfile.hpp"
#include "asic/simulator.hpp"
#include "asic/verilog.hpp"
#include "asic/waveform.hpp"
#include <chrono>

#include "common/rng.hpp"
#include "curve/point.hpp"
#include "curve/scalarmul.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/batch.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/perf_profile.hpp"
#include "power/activity_energy.hpp"
#include "power/area.hpp"
#include "power/sotb65.hpp"
#include "sched/compile.hpp"
#include "sched/critical_path.hpp"
#include "sched/modulo.hpp"
#include "trace/sm_trace.hpp"

namespace {

using namespace fourq;

void usage() {
  std::printf(
      "usage: fourqc [profile|explain|lint|batch|stats|perf] [options]\n"
      "  --variant functional|paper-cost   endomorphism phase (default paper-cost)\n"
      "  --solver seq|list|anneal|bnb      scheduler (default list)\n"
      "  --anneal-iters N                  SA iterations (default 400)\n"
      "  --mul-latency N                   multiplier pipeline depth (default 3)\n"
      "  --mul-ii N                        multiplier initiation interval (default 1)\n"
      "  --read-ports N / --write-ports N  register-file ports (default 4/2)\n"
      "  --multipliers N / --addsubs N     unit instances (default 1/1)\n"
      "                                    (latency, interval, ports and units: 1..64)\n"
      "  --no-forwarding                   disable forwarding paths\n"
      "  --no-inversion                    skip final affine normalisation\n"
      "  --looped                          blocked/looped controller instead of flat ROM\n"
      "  --verify HEXSCALAR                simulate [k]P and check vs software\n"
      "  --save-rom FILE                   write the ROM image\n"
      "  --disasm FROM COUNT               print a ROM listing range\n"
      "  --vcd FILE                        write a VCD activity waveform\n"
      "  --dot FILE                        write the scheduled DAG as Graphviz\n"
      "  --verilog FILE                    write the RTL skeleton + packed ROM\n"
      "  --report                          print cycle/area/power report\n"
      "\n"
      "profile subcommand — run one SM end-to-end (software, flat microcode,\n"
      "looped controller) and dump the telemetry bundle:\n"
      "  --out DIR                         bundle directory (default profile_out)\n"
      "  --scalar HEX                      scalar to profile (default fixed)\n"
      "  --events                          also dump the raw cycle event log\n"
      "  --hw                              attach perf_event hardware counters\n"
      "                                    (cycles/instructions/cache/branch) to\n"
      "                                    every span; falls back to software\n"
      "                                    counters, or 'unavailable', in\n"
      "                                    containers that block perf_event_open\n"
      "  --repeat N                        run the pipeline N times for noise\n"
      "                                    bars in perf.json (default 1)\n"
      "  --flame FILE                      write collapsed stacks for\n"
      "                                    flamegraph.pl / speedscope\n"
      "  (bundle: trace.json [chrome://tracing], metrics.jsonl, phases.json,\n"
      "   perf.json [fourq.perf.v1], summary.txt, events.jsonl)\n"
      "\n"
      "explain subcommand — schedule explainability: critical-path lower\n"
      "bounds, bound gaps and stall root-cause attribution, side by side for\n"
      "every scheduler backend:\n"
      "  --program loop|sm                 Alg. 1 loop body (default) or full SM\n"
      "  --backends a,b,...                subset of seq,list,anneal,bnb\n"
      "  --gantt / --no-gantt              occupancy timeline (default: on for loop)\n"
      "  --out DIR                         also write report.txt, explain.json,\n"
      "                                    metrics.jsonl to DIR\n"
      "\n"
      "lint subcommand — static microcode verification without simulation:\n"
      "ROM-to-SSA lifting + equivalence vs the traced program, liveness and\n"
      "port legality, and the secret-independence (constant-time) certificate.\n"
      "Exits 1 on any error-severity finding:\n"
      "  --program loop|sm                 Alg. 1 loop body (default) or full SM\n"
      "  --backends a,b,...                subset of seq,list,anneal,bnb plus\n"
      "                                    modulo (loop) / looped (sm segments)\n"
      "  --json                            fourq.lint.v1 JSON on stdout\n"
      "  --out DIR                         write lint.json, lint.txt, metrics.jsonl\n"
      "                                    (+ ranges.json with --ranges/--fleet)\n"
      "  --ranges                          abstract-interpretation range proofs:\n"
      "                                    overflow-freedom of the lazy-reduction\n"
      "                                    datapath, DAG and ROM sides, plus the\n"
      "                                    fourq.ranges.v1 certificate\n"
      "  --fleet                           sweep the full verifier (ranges always\n"
      "                                    on) over backends x a MachineConfig grid\n"
      "                                    in parallel\n"
      "  --fleet-grid smoke|full           3-point CI grid (default) or the 12-point\n"
      "                                    DSE gate\n"
      "  --fleet-workers N                 fleet pool size (0 = hw concurrency, max 256)\n"
      "\n"
      "batch subcommand — compile once (through the engine's CompileCache),\n"
      "then run a batch of scalar multiplications on the worker-pool\n"
      "simulator farm; optionally SchnorrQ batch verification. A --rom-cache\n"
      "directory persists the compiled ROM so later processes skip the\n"
      "scheduler solve entirely (watch 'scheduler solves' drop to 0):\n"
      "  --jobs N                          scalar multiplications (default 64)\n"
      "  --workers N                       worker threads (default 1, max 256)\n"
      "  --chunk N                         jobs per pool task (default: auto)\n"
      "  --rom-cache DIR                   on-disk ROM cache directory\n"
      "  --seed N                          scalar-generation seed (default 42)\n"
      "  --no-check                        skip the software [k]P cross-check\n"
      "  --verify-sigs N                   also batch-verify N SchnorrQ signatures\n"
      "  --corrupt i,j,...                 corrupt these signature indices first\n"
      "  --export-dir DIR                  live telemetry snapshot directory\n"
      "                                    (default $FOURQ_OBS_EXPORT_DIR; off if unset)\n"
      "  --export-interval-ms N            snapshot refresh period (default\n"
      "                                    $FOURQ_OBS_EXPORT_INTERVAL_MS or 1000)\n"
      "  --hw                              per-worker perf_event counters:\n"
      "                                    perf.* series labeled by kind/worker,\n"
      "                                    cycles-per-job + IPC gauges, and a\n"
      "                                    fourq.perf.v1 artifact\n"
      "  --perf-out FILE                   --hw artifact path (default\n"
      "                                    batch_perf.json)\n"
      "\n"
      "perf subcommand — differential profiling:\n"
      "  fourqc perf diff BASE.json CURRENT.json [--json]\n"
      "    aligns two fourq.perf.v1 artifacts by span path and reports\n"
      "    per-phase deltas with standard-error noise bars (compares cycles\n"
      "    when both artifacts carry hardware counters, wall time otherwise)\n"
      "\n"
      "stats subcommand — read and pretty-print (or tail) the telemetry\n"
      "snapshots written by a live `fourqc batch` run or the exporter; also\n"
      "validates the fourq.metrics.v1 JSON and Prometheus text, so it doubles\n"
      "as a CI smoke check (exit 1 on malformed snapshots):\n"
      "  --dir DIR                         snapshot directory (default\n"
      "                                    $FOURQ_OBS_EXPORT_DIR)\n"
      "  --json                            dump the validated metrics.json\n"
      "  --follow N                        re-read and re-print N times\n"
      "  --interval-ms N                   delay between --follow reads (default 1000)\n");
}

// MachineConfig/program identity stamped into provenance headers: the same
// CompileKey hash the engine's ROM cache uses, so exported metrics can be
// matched to the exact hardware configuration that produced them.
std::string machine_hash_for(const trace::SmTraceOptions& topt,
                             const sched::CompileOptions& copt) {
  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace = topt;
  key.compile = copt;
  return key.hash_hex();
}

bool write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fourqc: cannot open %s\n", path.string().c_str());
    return false;
  }
  out << content;
  return true;
}

std::string phases_json(const std::vector<power::PhaseEnergy>& phases, double vdd) {
  std::string out = "{\"vdd\":" + std::to_string(vdd) + ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    const power::PhaseEnergy& p = phases[i];
    if (i) out += ",";
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"%s\",\"begin_cycle\":%d,\"end_cycle\":%d,\"cycles\":%d,"
        "\"mul_issues\":%d,\"addsub_issues\":%d,\"rf_reads\":%d,\"rf_writes\":%d,"
        "\"energy_uj\":{\"mul\":%.6g,\"addsub\":%.6g,\"rf\":%.6g,\"ctrl\":%.6g,"
        "\"leak\":%.6g,\"total\":%.6g}}",
        obs::json_escape(p.window.name).c_str(), p.window.begin_cycle, p.window.end_cycle,
        p.activity.cycles, p.activity.mul_issues, p.activity.addsub_issues,
        p.activity.rf_reads, p.activity.rf_writes, p.energy.mul_uj, p.energy.addsub_uj,
        p.energy.rf_uj, p.energy.ctrl_uj, p.energy.leak_uj, p.energy.total_uj());
    out += buf;
  }
  out += "]}";
  return out;
}

void record_sim_metrics(const std::string& prefix, const asic::SimStats& s) {
  obs::Registry& m = obs::global().metrics;
  m.counter(prefix + ".cycles").inc(static_cast<uint64_t>(s.cycles));
  m.counter(prefix + ".mul_issues").inc(static_cast<uint64_t>(s.mul_issues));
  m.counter(prefix + ".addsub_issues").inc(static_cast<uint64_t>(s.addsub_issues));
  m.counter(prefix + ".rf_reads").inc(static_cast<uint64_t>(s.rf_reads));
  m.counter(prefix + ".rf_writes").inc(static_cast<uint64_t>(s.rf_writes));
  m.counter(prefix + ".forwarded_operands").inc(static_cast<uint64_t>(s.forwarded_operands));
  m.counter(prefix + ".stall_cycles").inc(static_cast<uint64_t>(s.stall_cycles));
  m.gauge(prefix + ".max_reads_in_cycle").set(s.max_reads_in_cycle);
  m.gauge(prefix + ".max_writes_in_cycle").set(s.max_writes_in_cycle);
  m.gauge(prefix + ".mul_utilisation").set(s.mul_utilisation());
  m.gauge(prefix + ".addsub_utilisation").set(s.addsub_utilisation());
}

// Creates (or validates) an output directory up front so a bad --out path
// fails before the expensive run instead of after it.
bool ensure_out_dir(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "fourqc: cannot create output directory %s%s%s\n",
                 dir.string().c_str(), ec ? ": " : "", ec ? ec.message().c_str() : "");
    return false;
  }
  return true;
}

struct ProfileOptions {
  std::string out = "profile_out";
  std::string scalar =
      "1f2e3d4c5b6a79880123456789abcdef0fedcba987654321aa55aa55aa55aa55";
  bool events = false;   // also dump the raw cycle event log
  bool hw = false;       // attach perf_event counters to every span
  int repeat = 1;        // re-run the pipeline N times for noise bars
  std::string flame;     // collapsed-stack output path ("" = off)
};

int run_profile(const trace::SmTraceOptions& topt_in, const sched::CompileOptions& copt,
                const ProfileOptions& popt) {
  const bool dump_events = popt.events;
  std::filesystem::path out_path(popt.out);
  if (!ensure_out_dir(out_path)) return 2;

  obs::Telemetry& tel = obs::global();
  tel.reset();
  if (popt.hw) obs::perf_set_enabled(true);

  U256 k;
  try {
    k = U256::from_hex(popt.scalar);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fourqc profile: bad --scalar value: %s\n", e.what());
    return 2;
  }
  curve::Affine p = curve::deterministic_point(1);

  // Phases 1-3 run --repeat times: every repetition contributes one more
  // sample per span path, which is what gives `fourqc perf diff` its noise
  // bars. Event sinks are cleared per repetition (energy attribution below
  // reads the last repetition's stream); the repeat-summed sim counters are
  // recorded once after the loop from the final repetition's stats.
  const int repeat = popt.repeat;
  trace::SmTraceOptions topt = topt_in;
  curve::Affine sw;
  obs::RecordingSink flat_events;
  asic::SimResult flat_res;
  obs::RecordingSink loop_events;
  asic::LoopedSm lsm;
  asic::SimResult loop_res;
  for (int rep = 0; rep < repeat; ++rep) {
  flat_events.events.clear();
  loop_events.events.clear();

  // 1. Software pipeline: spans for decompose/precompute/loop/normalize.
  {
    FOURQ_SPAN("profile.software_sm");
    sw = curve::to_affine(curve::scalar_mul(k, p));
  }

  // 2. Hardware flow: trace -> schedule -> flat simulation with a recorder.
  {
    FOURQ_SPAN("profile.flat_sm");
    trace::SmTrace sm = trace::build_sm_trace(topt);
    sched::CompileResult r = sched::compile_program(sm.program, copt);
    trace::InputBindings b;
    b.emplace_back(sm.in_zero, curve::Fp2());
    b.emplace_back(sm.in_one, curve::Fp2::from_u64(1));
    b.emplace_back(sm.in_two_d, curve::curve_2d());
    b.emplace_back(sm.in_px, p.x);
    b.emplace_back(sm.in_py, p.y);
    for (size_t i = 0; i < sm.in_endo_consts.size(); ++i)
      b.emplace_back(sm.in_endo_consts[i], curve::Fp2::from_u64(3 + i, 7 + i));
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    trace::EvalContext ctx{&rec, dec.k_was_even};
    {
      FOURQ_SPAN("asic.simulate_flat");
      flat_res = asic::simulate(r.sm, b, ctx, &flat_events);
    }
    if (topt.endo == trace::EndoVariant::kFunctional && topt.include_inversion) {
      if (flat_res.outputs.at("x") != sw.x || flat_res.outputs.at("y") != sw.y) {
        std::fprintf(stderr, "fourqc profile: simulator disagrees with software SM\n");
        return 1;
      }
    }
  }

  // 3. Looped controller: segment boundaries give the hardware-phase
  //    windows for energy attribution.
  {
    FOURQ_SPAN("profile.looped_sm");
    asic::LoopedSmOptions lopt;
    lopt.endo = topt.endo;
    lopt.cfg.mul_latency = copt.cfg.mul_latency;
    lopt.cfg.forwarding = copt.cfg.forwarding;
    lsm = asic::build_looped_sm(lopt);
    trace::InputBindings b;
    b.emplace_back(lsm.in_zero, curve::Fp2());
    b.emplace_back(lsm.in_one, curve::Fp2::from_u64(1));
    b.emplace_back(lsm.in_two_d, curve::curve_2d());
    b.emplace_back(lsm.in_px, p.x);
    b.emplace_back(lsm.in_py, p.y);
    for (size_t i = 0; i < lsm.in_endo_consts.size(); ++i)
      b.emplace_back(lsm.in_endo_consts[i], curve::Fp2::from_u64(3 + i, 7 + i));
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    {
      FOURQ_SPAN("asic.simulate_looped");
      loop_res = asic::simulate_looped(lsm, b, trace::EvalContext{&rec, dec.k_was_even},
                                       &loop_events);
    }
  }
  }  // repeat loop
  record_sim_metrics("sim.flat", flat_res.stats);
  record_sim_metrics("sim.looped", loop_res.stats);

  // 4. Per-phase energy attribution from the looped event stream.
  const double vdd = power::Sotb65Model::kVNominal;
  power::Sotb65Model chip(lsm.total_cycles());
  power::ActivityEnergyModel energy(loop_res.stats, chip);
  int pro_end = lsm.prologue.cycles();
  int loop_end = pro_end + lsm.iterations * lsm.body.cycles();
  std::vector<power::PhaseWindow> windows = {
      {"precompute", 0, pro_end},
      {"loop", pro_end, loop_end},
      {"normalize", loop_end, lsm.total_cycles()},
  };
  std::vector<power::PhaseEnergy> phases =
      energy.attribute_phases(vdd, loop_events.events, windows);
  for (const power::PhaseEnergy& ph : phases)
    tel.metrics.gauge("energy." + ph.window.name + "_uj").set(ph.energy.total_uj());
  tel.metrics.gauge("energy.sm_total_uj").set(energy.breakdown(vdd).total_uj());

  // 5. Export the bundle (directory already created up front).
  const std::filesystem::path& dir = out_path;
  std::string summary;
  summary += "== spans (wall clock) ==\n" + tel.spans.to_table();
  summary += "\n== metrics ==\n" + tel.metrics.to_table();
  summary += "\n== per-phase energy (looped controller @ " + std::to_string(vdd) +
             " V) ==\n";
  {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-12s %10s %10s %10s %12s\n", "phase", "cycles",
                  "muls", "add/subs", "energy (uJ)");
    summary += buf;
    for (const power::PhaseEnergy& ph : phases) {
      std::snprintf(buf, sizeof buf, "%-12s %10d %10d %10d %12.4f\n",
                    ph.window.name.c_str(), ph.activity.cycles, ph.activity.mul_issues,
                    ph.activity.addsub_issues, ph.energy.total_uj());
      summary += buf;
    }
  }
  // Hardware-counter profile (fourq.perf.v1) aggregated over all
  // repetitions. Always written — an artifact with counters:"unavailable"
  // still carries wall-time stats usable by `fourqc perf diff`.
  obs::PerfProfile prof = tel.spans.profile();
  if (popt.hw) {
    summary += "\n== hardware counters (" + prof.counters + ", " +
               std::to_string(repeat) + " repetition" + (repeat == 1 ? "" : "s") + ") ==\n";
    if (prof.counters == "unavailable") {
      summary +=
          "(perf_event_open unavailable in this environment -- perf.json "
          "carries wall times only)\n";
    } else if (prof.counters == "software") {
      // PMU events blocked (common under perf_event_paranoid >= 2 /
      // containers): only the software task-clock is live.
      char buf[220];
      std::snprintf(buf, sizeof buf, "%-52s %4s %14s\n", "span path", "n",
                    "task-clock us");
      summary += buf;
      for (const obs::PerfSpanStat& s : prof.spans) {
        if (!s.perf_n) continue;
        std::snprintf(buf, sizeof buf, "%-52s %4llu %14.1f\n", s.path.c_str(),
                      static_cast<unsigned long long>(s.perf_n),
                      s.task_clock_ns.mean() / 1e3);
        summary += buf;
      }
    } else {
      char buf[220];
      std::snprintf(buf, sizeof buf, "%-46s %4s %14s %14s %6s %8s\n", "span path", "n",
                    "cycles", "instrs", "IPC", "miss%");
      summary += buf;
      for (const obs::PerfSpanStat& s : prof.spans) {
        if (!s.perf_n) continue;
        std::snprintf(buf, sizeof buf, "%-46s %4llu %14.0f %14.0f %6.2f %7.2f%%\n",
                      s.path.c_str(), static_cast<unsigned long long>(s.perf_n),
                      s.cycles.mean(), s.instructions.mean(), s.ipc(),
                      100.0 * s.cache_miss_rate());
        summary += buf;
      }
    }
  }
  if (!obs::compiled_in())
    summary += "\n(note: built with FOURQ_OBS=OFF — span/counter macros compiled out)\n";

  bool ok = write_file(dir / "trace.json", tel.flight.chrome_trace_json()) &&
            write_file(dir / "metrics.jsonl",
                       obs::provenance_line("fourq.metrics.v1", machine_hash_for(topt, copt)) +
                           tel.metrics.to_jsonl()) &&
            write_file(dir / "phases.json", phases_json(phases, vdd)) &&
            write_file(dir / "perf.json",
                       obs::perf_profile_json(prof, machine_hash_for(topt, copt))) &&
            write_file(dir / "summary.txt", summary);
  if (ok && dump_events)
    ok = write_file(dir / "events.jsonl", obs::events_to_jsonl(flat_events.events));
  if (ok && !popt.flame.empty()) ok = write_file(popt.flame, obs::perf_folded(prof));
  if (!ok) return 1;

  std::printf("%s", summary.c_str());
  std::printf("\nfourqc profile: bundle written to %s%s\n", dir.string().c_str(),
              dump_events ? " (with events.jsonl)" : "");
  if (!popt.flame.empty())
    std::printf("fourqc profile: collapsed stacks -> %s (flamegraph.pl / speedscope)\n",
                popt.flame.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Shared plumbing for the explain and lint subcommands: both analyse the
// same two programs (Alg. 1 loop body or the full SM trace) across the same
// scheduler backends.

// The program a subcommand operates on, with its reference trace and
// deterministic input bindings (the bindings matter only when simulating;
// the static verifier ignores them). Build in place — `ctx` points at the
// recoded scalar kept alive in `rec`.
struct ProgramUnderTest {
  bool loop_mode = true;
  trace::Program program;
  trace::InputBindings bindings;
  trace::EvalContext ctx{};
  trace::LoopBodyTrace body;  // loop mode
  trace::SmTrace sm;          // sm mode
  curve::Decomposition dec;   // keeps the recoded digits alive for ctx
  curve::RecodedScalar rec;

  void build(const std::string& name, const trace::SmTraceOptions& topt) {
    loop_mode = name == "loop";
    if (loop_mode) {
      body = trace::build_loop_body_trace();
      program = body.program;
      curve::PointR1 q = curve::dbl(curve::to_r1(curve::deterministic_point(31)));
      curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(32)));
      bindings.emplace_back(body.q_inputs[0], q.X);
      bindings.emplace_back(body.q_inputs[1], q.Y);
      bindings.emplace_back(body.q_inputs[2], q.Z);
      bindings.emplace_back(body.q_inputs[3], q.Ta);
      bindings.emplace_back(body.q_inputs[4], q.Tb);
      bindings.emplace_back(body.table_inputs[0], e.xpy);
      bindings.emplace_back(body.table_inputs[1], e.ymx);
      bindings.emplace_back(body.table_inputs[2], e.z2);
      bindings.emplace_back(body.table_inputs[3], e.dt2);
    } else {
      sm = trace::build_sm_trace(topt);
      program = sm.program;
      curve::Affine p = curve::deterministic_point(1);
      bindings.emplace_back(sm.in_zero, curve::Fp2());
      bindings.emplace_back(sm.in_one, curve::Fp2::from_u64(1));
      bindings.emplace_back(sm.in_two_d, curve::curve_2d());
      bindings.emplace_back(sm.in_px, p.x);
      bindings.emplace_back(sm.in_py, p.y);
      for (size_t i = 0; i < sm.in_endo_consts.size(); ++i)
        bindings.emplace_back(sm.in_endo_consts[i], curve::Fp2::from_u64(3 + i, 7 + i));
      U256 k = U256::from_hex(
          "1f2e3d4c5b6a79880123456789abcdef0fedcba987654321aa55aa55aa55aa55");
      dec = curve::decompose(k);
      rec = curve::recode(dec.a);
      ctx = trace::EvalContext{&rec, dec.k_was_even};
    }
  }

  // The loop body's carried dependences (for the modulo backend).
  std::vector<sched::CarriedDep> carried_deps(const sched::Problem& pr) const {
    std::vector<int> outs;
    for (const auto& [id, name] : program.outputs) {
      (void)name;
      outs.push_back(id);
    }
    return sched::body_carried_deps(pr, body.q_inputs, outs);
  }
};

bool solver_from_name(const std::string& name, sched::Solver* solver) {
  if (name == "seq") *solver = sched::Solver::kSequential;
  else if (name == "list") *solver = sched::Solver::kList;
  else if (name == "anneal") *solver = sched::Solver::kAnneal;
  else if (name == "bnb") *solver = sched::Solver::kBnb;
  else return false;
  return true;
}

// Exact search is for block-sized programs; the full SM trace is far past
// that. Returns true when bnb should be skipped (with a console note).
bool skip_bnb(const char* cmd, size_t nodes) {
  if (nodes <= 64) return false;
  std::fprintf(stderr,
               "fourqc %s: skipping bnb (%zu ops; exact search is for "
               "block-sized programs)\n",
               cmd, nodes);
  return true;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

asic::LoopedSmOptions looped_options(const trace::SmTraceOptions& topt,
                                     const sched::CompileOptions& copt) {
  asic::LoopedSmOptions lopt;
  lopt.endo = topt.endo;
  lopt.cfg.mul_latency = copt.cfg.mul_latency;
  lopt.cfg.forwarding = copt.cfg.forwarding;
  return lopt;
}

// ---------------------------------------------------------------------------
// fourqc explain — schedule explainability report (docs/OBSERVABILITY.md).

struct ExplainOptions {
  std::string program = "loop";  // "loop" (Alg. 1 body) or "sm" (full trace)
  std::vector<std::string> backends;  // default filled per program
  int gantt = -1;                // -1 = auto (on for loop, off for sm)
  std::string out_dir;           // empty = console only
};

void record_explain_metrics(const std::string& backend, const sched::BoundGap& gap,
                            const asic::StallAttribution& attr) {
  obs::Registry& m = obs::global().metrics;
  m.gauge("explain." + backend + ".cycles").set(gap.makespan);
  m.gauge("explain." + backend + ".bound_gap").set(gap.gap);
  m.gauge("explain." + backend + ".efficiency").set(gap.efficiency);
  for (int c = 0; c < asic::kNumStallClasses; ++c) {
    auto cls = static_cast<asic::StallClass>(c);
    m.counter("explain." + backend + ".stall." + asic::stall_class_name(cls))
        .inc(static_cast<uint64_t>(attr.stalls.by_class[static_cast<size_t>(c)]));
  }
}

int run_explain(const trace::SmTraceOptions& topt, const sched::CompileOptions& copt_base,
                const ExplainOptions& eopt) {
  obs::Telemetry& tel = obs::global();
  tel.reset();

  std::filesystem::path out_path(eopt.out_dir);
  if (!eopt.out_dir.empty() && !ensure_out_dir(out_path)) return 2;

  const bool loop_mode = eopt.program == "loop";
  std::vector<std::string> backends = eopt.backends;
  if (backends.empty()) {
    backends = {"seq", "list", "anneal"};
    if (loop_mode) backends.push_back("bnb");  // exact search: small blocks only
  }
  bool show_gantt = eopt.gantt < 0 ? loop_mode : eopt.gantt > 0;

  // 1. Build the program and its input bindings.
  ProgramUnderTest put;
  put.build(eopt.program, topt);
  const trace::Program& program = put.program;

  trace::OpStats ops = trace::count_ops(program);
  std::string report;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "== fourqc explain: %s ==\n"
                "program: %d Fp2 muls + %d add/subs (%d compute ops)\n"
                "machine: %d multiplier(s) (latency %d, II %d), %d add/sub (latency %d),"
                " RF %dR/%dW, forwarding %s\n\n",
                loop_mode ? "Alg. 1 double-and-add loop body" : "full scalar multiplication",
                ops.muls, ops.addsubs, ops.muls + ops.addsubs, copt_base.cfg.num_multipliers,
                copt_base.cfg.mul_latency, copt_base.cfg.mul_ii, copt_base.cfg.num_addsubs,
                copt_base.cfg.addsub_latency, copt_base.cfg.rf_read_ports,
                copt_base.cfg.rf_write_ports, copt_base.cfg.forwarding ? "on" : "off");
  report += buf;

  // 2. Bounds come from the DAG alone — identical for every backend.
  sched::Problem pr = sched::build_problem(program, copt_base.cfg);
  sched::CriticalPathInfo cp = sched::analyze_critical_path(pr);
  const sched::LowerBounds& lb = cp.bounds;
  std::snprintf(buf, sizeof buf,
                "lower bounds (cycles): dep-height %d | mul-issue %d | addsub-issue %d | "
                "rf-port %d (write %d, read %d)\n"
                "tightest bound: %d (%s); %zu of %zu ops on a critical chain\n",
                lb.dep_height, lb.mul_issue, lb.addsub_issue, lb.rf_port(),
                lb.rf_write_port, lb.rf_read_port, lb.tightest(), lb.tightest_name(),
                cp.critical.size(), pr.nodes.size());
  report += buf;
  {
    std::vector<int> chain = cp.chain;
    size_t total = chain.size();
    if (chain.size() > 12) chain.resize(12);
    report += "critical chain: " + sched::describe_chain(pr, chain);
    if (total > chain.size())
      report += " -> ... (" + std::to_string(total) + " ops total)";
    report += "\n\n";
  }
  tel.metrics.gauge("explain.bound.dep_height").set(lb.dep_height);
  tel.metrics.gauge("explain.bound.mul_issue").set(lb.mul_issue);
  tel.metrics.gauge("explain.bound.rf_port").set(lb.rf_port());
  tel.metrics.gauge("explain.bound.tightest").set(lb.tightest());

  // 3. Schedule, simulate and attribute stalls per backend.
  std::vector<asic::BackendExplain> results;
  std::vector<std::string> gantts;
  int best_makespan = -1;
  for (const std::string& name : backends) {
    sched::CompileOptions copt = copt_base;
    if (!solver_from_name(name, &copt.solver)) {
      std::fprintf(stderr, "fourqc explain: unknown backend '%s'\n", name.c_str());
      return 2;
    }
    if (copt.solver == sched::Solver::kBnb) {
      if (skip_bnb("explain", pr.nodes.size())) continue;
      if (best_makespan > 0) copt.bnb.upper_bound = best_makespan + 1;
    }

    sched::CompileResult r = sched::compile_program(program, copt);
    obs::RecordingSink sink;
    asic::SimResult res = asic::simulate(r.sm, put.bindings, put.ctx, &sink);
    asic::StallAttribution attr = asic::attribute_stalls(r.sm, sink.events);
    if (!attr.conservation_ok) {
      std::fprintf(stderr,
                   "fourqc explain: stall conservation check FAILED for %s "
                   "(attributed %d, simulator counted %d)\n",
                   name.c_str(), attr.stalls.total(), res.stats.stall_cycles);
      return 1;
    }

    asic::BackendExplain be;
    be.name = name;
    be.gap = sched::gap_to_bounds(lb, r.schedule.makespan);
    be.stats = res.stats;
    be.attribution = attr;
    record_explain_metrics(name, be.gap, attr);
    if (best_makespan < 0 || r.schedule.makespan < best_makespan)
      best_makespan = r.schedule.makespan;
    if (show_gantt)
      gantts.push_back("-- occupancy timeline: " + name + " (" +
                       std::to_string(r.schedule.makespan) + " cycles) --\n" +
                       asic::render_gantt(r.sm, attr));
    results.push_back(std::move(be));
  }

  // 4. Side-by-side comparison table.
  std::snprintf(buf, sizeof buf, "%-8s %7s %5s %6s %6s | %5s %6s %6s %6s %8s %s\n",
                "backend", "cycles", "gap", "eff%", "mulU%", "raw", "rfport", "width",
                "drain", "unforced", "sum=stalls");
  report += buf;
  report += std::string(92, '-') + "\n";
  for (const asic::BackendExplain& be : results) {
    const asic::StallBreakdown& s = be.attribution.stalls;
    std::snprintf(buf, sizeof buf,
                  "%-8s %7d %5d %5.1f%% %5.1f%% | %5d %6d %6d %6d %8d %d=%d %s\n",
                  be.name.c_str(), be.gap.makespan, be.gap.gap, 100.0 * be.gap.efficiency,
                  100.0 * be.stats.mul_utilisation(), s.of(asic::StallClass::kRawHazard),
                  s.of(asic::StallClass::kRfPort), s.of(asic::StallClass::kIssueWidth),
                  s.of(asic::StallClass::kDrain), s.of(asic::StallClass::kUnforced),
                  s.total(), be.stats.stall_cycles, be.attribution.conservation_ok ? "ok" : "FAIL");
    report += buf;
  }
  report += "\nstall classes: ";
  for (int c = 0; c < asic::kNumStallClasses; ++c) {
    auto cls = static_cast<asic::StallClass>(c);
    std::snprintf(buf, sizeof buf, "%s%c=%s", c ? "; " : "", asic::stall_class_letter(cls),
                  asic::stall_class_name(cls));
    report += buf;
  }
  report += "\n\n";

  // 5. Loop mode: how much further software pipelining could go (modulo
  //    scheduling analysis, steady-state cycles/iteration).
  if (loop_mode) {
    std::vector<sched::CarriedDep> carried = put.carried_deps(pr);
    sched::ModuloResult mr = sched::modulo_schedule(pr, carried);
    if (mr.feasible) {
      std::snprintf(buf, sizeof buf,
                    "modulo scheduling (steady-state analysis): II %d (ResMII %d, RecMII "
                    "%d), kernel %d cycles\n"
                    "  -> overlapped iterations would cost %d cycles/digit vs %d for the "
                    "best block schedule\n\n",
                    mr.ii, mr.res_mii, mr.rec_mii, mr.kernel_length, mr.ii, best_makespan);
      report += buf;
      tel.metrics.gauge("explain.modulo.ii").set(mr.ii);
    }
  }

  // 6. Full-SM mode: hardware-phase occupancy from the looped controller's
  //    segment boundaries (the same windows `fourqc profile` prices).
  if (!loop_mode) {
    asic::LoopedSm lsm = asic::build_looped_sm(looped_options(topt, copt_base));
    trace::InputBindings lb_bind;
    curve::Affine p = curve::deterministic_point(1);
    lb_bind.emplace_back(lsm.in_zero, curve::Fp2());
    lb_bind.emplace_back(lsm.in_one, curve::Fp2::from_u64(1));
    lb_bind.emplace_back(lsm.in_two_d, curve::curve_2d());
    lb_bind.emplace_back(lsm.in_px, p.x);
    lb_bind.emplace_back(lsm.in_py, p.y);
    for (size_t i = 0; i < lsm.in_endo_consts.size(); ++i)
      lb_bind.emplace_back(lsm.in_endo_consts[i], curve::Fp2::from_u64(3 + i, 7 + i));
    obs::RecordingSink loop_events;
    asic::simulate_looped(lsm, lb_bind, put.ctx, &loop_events);
    int pro_end = lsm.prologue.cycles();
    int loop_end = pro_end + lsm.iterations * lsm.body.cycles();
    struct Win {
      const char* name;
      int begin, end;
    } wins[] = {{"precompute", 0, pro_end},
                {"loop", pro_end, loop_end},
                {"normalize", loop_end, lsm.total_cycles()}};
    report += "per-phase occupancy (looped controller):\n";
    std::snprintf(buf, sizeof buf, "%-12s %8s %8s %9s %7s %7s\n", "phase", "cycles",
                  "muls", "add/subs", "mulU%", "stalls");
    report += buf;
    for (const Win& w : wins) {
      asic::SimStats ws = asic::stats_in_window(loop_events.events, w.begin, w.end);
      std::snprintf(buf, sizeof buf, "%-12s %8d %8d %9d %6.1f%% %7d\n", w.name, ws.cycles,
                    ws.mul_issues, ws.addsub_issues, 100.0 * ws.mul_utilisation(),
                    ws.stall_cycles);
      report += buf;
    }
    report += "\n";
  }

  std::printf("%s", report.c_str());
  for (const std::string& g : gantts) std::printf("%s", g.c_str());

  std::string json = asic::explain_json(lb, results);
  std::printf("== json ==\n%s\n", json.c_str());
  if (!obs::compiled_in())
    std::printf("(note: built with FOURQ_OBS=OFF — registry metrics not recorded)\n");

  if (!eopt.out_dir.empty()) {
    std::string full = report;
    for (const std::string& g : gantts) full += g;
    bool ok = write_file(out_path / "report.txt", full) &&
              write_file(out_path / "explain.json", json + "\n") &&
              write_file(out_path / "metrics.jsonl",
                         obs::provenance_line("fourq.metrics.v1",
                                              machine_hash_for(topt, copt_base)) +
                             tel.metrics.to_jsonl());
    if (!ok) return 1;
    std::printf("\nfourqc explain: report written to %s\n", out_path.string().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// fourqc lint — static microcode verification (docs/ANALYSIS.md): lift each
// backend's emitted ROM back to SSA, check equivalence against the traced
// reference, re-derive port/liveness legality, and prove the
// secret-independence certificate. Exit 1 on any error-severity finding.

struct LintOptions {
  std::string program = "loop";       // "loop" or "sm"
  std::vector<std::string> backends;  // default filled per program
  bool json = false;                  // machine-readable stdout
  std::string out_dir;                // also write lint.json/lint.txt/metrics
  bool ranges = false;                // abstract-interpretation range proofs
  bool fleet = false;                 // sweep backends x MachineConfig grid
  std::string fleet_grid = "smoke";   // "smoke" (3 configs) or "full" (12)
  int fleet_workers = 0;              // 0 = hardware concurrency
};

// Loop-carried value pairing for the range verifier: the Alg. 1 loop body's
// q-state inputs are fed, positionally, by the previous iteration's outputs
// (the same pairing body_carried_deps uses for the modulo backend).
analysis::range::RangeOptions range_options_for(const ProgramUnderTest& put) {
  analysis::range::RangeOptions ropt;
  if (put.loop_mode)
    for (size_t i = 0; i < put.body.q_inputs.size() && i < put.program.outputs.size(); ++i)
      ropt.carried.emplace_back(put.body.q_inputs[i], put.program.outputs[i].first);
  return ropt;
}

int run_lint(const trace::SmTraceOptions& topt, const sched::CompileOptions& copt_base,
             const LintOptions& lopt) {
  obs::Telemetry& tel = obs::global();
  tel.reset();

  std::filesystem::path out_path(lopt.out_dir);
  if (!lopt.out_dir.empty() && !ensure_out_dir(out_path)) return 2;

  ProgramUnderTest put;
  put.build(lopt.program, topt);

  std::vector<std::string> backends = lopt.backends;
  if (backends.empty()) {
    backends = {"seq", "list", "anneal"};
    if (put.loop_mode) {
      backends.push_back("bnb");     // exact search: small blocks only
      backends.push_back("modulo");  // steady-state kernel re-validation
    } else {
      backends.push_back("looped");  // blocked controller segments
    }
  }

  sched::Problem pr = sched::build_problem(put.program, copt_base.cfg);

  std::vector<analysis::LintedProgram> linted;
  auto add = [&](const std::string& label, analysis::LintReport rep) {
    analysis::record_lint_metrics(label, rep);
    linted.push_back({label, std::move(rep)});
  };

  // Range verification state: the DAG-side proof is machine- and
  // backend-independent, so it runs once; each backend's ROM then gets the
  // independent ROM-side propagation checked against it. `ranges_store`
  // gives the certificate entries stable addresses (looped mode adds one
  // per controller segment).
  double ranges_ms = 0;
  auto timed_ranges = [&](auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    ranges_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  };
  std::deque<analysis::range::ProgramRanges> ranges_store;
  std::vector<analysis::range::CertEntry> cert_entries;
  analysis::range::RangeOptions ropt = range_options_for(put);
  if (lopt.ranges) {
    analysis::LintReport dag_rep;
    timed_ranges([&] {
      ranges_store.push_back(analysis::range::analyze_program(put.program, ropt, dag_rep));
      analysis::range::check_certificate(ranges_store.back(), ropt, dag_rep);
    });
    cert_entries.push_back({lopt.program + "/ranges", &ranges_store.front()});
    add(lopt.program + "/ranges", std::move(dag_rep));
  }
  const analysis::range::ProgramRanges* dag_ranges =
      lopt.ranges ? &ranges_store.front() : nullptr;

  int best_makespan = -1;
  for (const std::string& name : backends) {
    if (name == "modulo") {
      if (!put.loop_mode) {
        std::fprintf(stderr, "fourqc lint: the modulo backend applies to --program loop only\n");
        return 2;
      }
      // No ROM is emitted for the modulo kernel; range coverage for this
      // backend is the DAG-side "<program>/ranges" entry.
      add(lopt.program + "/modulo", analysis::lint_modulo(pr, put.carried_deps(pr)));
      continue;
    }
    if (name == "looped") {
      if (put.loop_mode) {
        std::fprintf(stderr, "fourqc lint: the looped backend applies to --program sm only\n");
        return 2;
      }
      asic::LoopedSm lsm = asic::build_looped_sm(looped_options(topt, copt_base));
      auto segment = [&](const std::string& label, const sched::CompiledSm& ssm,
                         const trace::Program& sp) {
        analysis::LintReport rep = analysis::lint_rom(ssm, sp);
        if (lopt.ranges) {
          // Each controller segment is its own program: DAG proof, replay
          // check and ROM cross-check all land in the segment's report.
          timed_ranges([&] {
            analysis::range::RangeOptions seg_opt;
            ranges_store.push_back(analysis::range::analyze_program(sp, seg_opt, rep));
            analysis::range::check_certificate(ranges_store.back(), seg_opt, rep);
            analysis::range::analyze_rom(ssm, sp, ranges_store.back(), rep);
          });
          cert_entries.push_back({label + "/ranges", &ranges_store.back()});
        }
        add(label, std::move(rep));
      };
      segment("looped/prologue", lsm.prologue, lsm.prologue_program);
      segment("looped/body", lsm.body, lsm.body_program);
      segment("looped/epilogue", lsm.epilogue, lsm.epilogue_program);
      continue;
    }
    sched::CompileOptions copt = copt_base;
    if (!solver_from_name(name, &copt.solver)) {
      std::fprintf(stderr, "fourqc lint: unknown backend '%s'\n", name.c_str());
      return 2;
    }
    if (copt.solver == sched::Solver::kBnb) {
      if (skip_bnb("lint", pr.nodes.size())) continue;
      if (best_makespan > 0) copt.bnb.upper_bound = best_makespan + 1;
    }
    sched::CompileResult r = sched::compile_program(put.program, copt);
    if (best_makespan < 0 || r.schedule.makespan < best_makespan)
      best_makespan = r.schedule.makespan;
    analysis::LintReport rep = analysis::lint_rom(r.sm, put.program);
    if (dag_ranges)
      timed_ranges(
          [&] { analysis::range::analyze_rom(r.sm, put.program, *dag_ranges, rep); });
    add(lopt.program + "/" + name, std::move(rep));
  }

  if (lopt.ranges)
    tel.metrics.gauge("lint.ranges.total_ms").set(static_cast<int64_t>(ranges_ms));

  int errors = 0, warnings = 0;
  for (const analysis::LintedProgram& p : linted) {
    errors += p.report.errors();
    warnings += p.report.warnings();
  }
  std::string json = analysis::lint_json(linted);
  if (lopt.json) {
    std::printf("%s\n", json.c_str());
  } else {
    std::printf("%s", analysis::lint_text(linted).c_str());
    std::printf("\nfourqc lint: %zu program(s), %d error(s), %d warning(s) -> %s\n",
                linted.size(), errors, warnings, errors ? "FAIL" : "CLEAN");
  }

  if (!lopt.out_dir.empty()) {
    bool ok = write_file(out_path / "lint.json", json + "\n") &&
              write_file(out_path / "lint.txt", analysis::lint_text(linted)) &&
              write_file(out_path / "metrics.jsonl",
                         obs::provenance_line("fourq.metrics.v1",
                                              machine_hash_for(topt, copt_base)) +
                             tel.metrics.to_jsonl());
    if (ok && lopt.ranges)
      ok = write_file(out_path / "ranges.json",
                      analysis::range::ranges_json(cert_entries) + "\n");
    if (!ok) return 2;
    if (!lopt.json)
      std::printf("fourqc lint: report written to %s\n", out_path.string().c_str());
  }
  return errors ? 1 : 0;
}

// ---------------------------------------------------------------------------
// fourqc lint --fleet: sweep the full verifier (lift + liveness + taint +
// range proofs, always on here — the point is gating the DSE search space
// on provable overflow-freedom) over the scheduler-backend matrix times a
// MachineConfig grid, one grid point per BatchEngine task.

int run_fleet_lint(const trace::SmTraceOptions& topt,
                   const sched::CompileOptions& copt_base, const LintOptions& lopt) {
  obs::Telemetry& tel = obs::global();
  tel.reset();

  std::filesystem::path out_path(lopt.out_dir);
  if (!lopt.out_dir.empty() && !ensure_out_dir(out_path)) return 2;

  ProgramUnderTest put;
  put.build(lopt.program, topt);

  // Machine grid: multiplier pipeline depth x unit count x RF porting.
  // "smoke" is the CI leg (paper-like point, deeper pipeline, wide 2-issue
  // machine); "full" is the DSE gate.
  struct GridPoint {
    int mul_latency, units, read_ports, write_ports;
  };
  std::vector<GridPoint> grid;
  if (lopt.fleet_grid == "full") {
    for (int ml : {2, 3, 4})
      for (int units : {1, 2}) {
        grid.push_back({ml, units, 4, 2});
        grid.push_back({ml, units, 6, 3});
      }
  } else {
    grid = {{3, 1, 4, 2}, {4, 1, 4, 2}, {3, 2, 6, 3}};
  }

  std::vector<std::string> backends = lopt.backends;
  if (backends.empty()) {
    backends = {"seq", "list", "anneal"};
    if (put.loop_mode) {
      backends.push_back("bnb");
      backends.push_back("modulo");
    }
    // sm mode: the looped controller is rebuilt per config elsewhere
    // (microcode-lint CI leg); the fleet sweeps the flat schedulers.
  }

  auto start = std::chrono::steady_clock::now();

  // The DAG-side proof is machine-independent: one certificate covers the
  // whole grid, and every ROM is cross-checked against it.
  analysis::range::RangeOptions ropt = range_options_for(put);
  analysis::LintReport dag_rep;
  analysis::range::ProgramRanges pranges =
      analysis::range::analyze_program(put.program, ropt, dag_rep);
  analysis::range::check_certificate(pranges, ropt, dag_rep);

  // One result slot per grid point; metrics are recorded serially below
  // (the obs registry is shared), so workers only fill their own slot.
  std::vector<std::vector<analysis::LintedProgram>> per_cfg(grid.size());
  engine::EngineOptions eng_opt;
  unsigned hw = std::thread::hardware_concurrency();
  eng_opt.workers = lopt.fleet_workers > 0 ? lopt.fleet_workers
                                           : static_cast<int>(hw ? hw : 1);
  engine::BatchEngine eng(eng_opt);
  eng.parallel_for(grid.size(), [&](size_t gi) {
    const GridPoint& g = grid[gi];
    sched::CompileOptions cfg_base = copt_base;
    cfg_base.cfg.mul_latency = g.mul_latency;
    cfg_base.cfg.num_multipliers = g.units;
    cfg_base.cfg.num_addsubs = g.units;
    cfg_base.cfg.rf_read_ports = g.read_ports;
    cfg_base.cfg.rf_write_ports = g.write_ports;
    std::string tag = "@ml" + std::to_string(g.mul_latency) + "m" +
                      std::to_string(g.units) + "r" + std::to_string(g.read_ports) +
                      "w" + std::to_string(g.write_ports);
    sched::Problem pr = sched::build_problem(put.program, cfg_base.cfg);

    int best_makespan = -1;
    for (const std::string& name : backends) {
      if (name == "modulo") {
        if (!put.loop_mode) continue;
        per_cfg[gi].push_back({lopt.program + "/modulo" + tag,
                               analysis::lint_modulo(pr, put.carried_deps(pr))});
        continue;
      }
      sched::CompileOptions copt = cfg_base;
      if (!solver_from_name(name, &copt.solver)) continue;
      if (copt.solver == sched::Solver::kBnb) {
        // Exact search is block-sized and single-instance only.
        if (pr.nodes.size() > 64 || g.units != 1) continue;
        if (best_makespan > 0) copt.bnb.upper_bound = best_makespan + 1;
      }
      sched::CompileResult r = sched::compile_program(put.program, copt);
      if (best_makespan < 0 || r.schedule.makespan < best_makespan)
        best_makespan = r.schedule.makespan;
      analysis::LintReport rep = analysis::lint_rom(r.sm, put.program);
      analysis::range::analyze_rom(r.sm, put.program, pranges, rep);
      per_cfg[gi].push_back({lopt.program + "/" + name + tag, std::move(rep)});
    }
  });

  std::vector<analysis::LintedProgram> linted;
  linted.push_back({lopt.program + "/ranges", std::move(dag_rep)});
  for (std::vector<analysis::LintedProgram>& cfg : per_cfg)
    for (analysis::LintedProgram& p : cfg) linted.push_back(std::move(p));
  for (const analysis::LintedProgram& p : linted)
    analysis::record_lint_metrics(p.label, p.report);

  double total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  tel.metrics.gauge("lint.fleet.total_ms").set(static_cast<int64_t>(total_ms));
  tel.metrics.gauge("lint.fleet.configs").set(static_cast<int64_t>(grid.size()));

  int errors = 0, warnings = 0, proven = 0, checked = 0;
  for (const analysis::LintedProgram& p : linted) {
    errors += p.report.errors();
    warnings += p.report.warnings();
    if (p.report.ranges_checked) {
      ++checked;
      proven += p.report.ranges_proven ? 1 : 0;
    }
  }

  std::string json = analysis::lint_json(linted);
  if (lopt.json) {
    std::printf("%s\n", json.c_str());
  } else {
    std::printf("%s", analysis::lint_text(linted).c_str());
    std::printf(
        "\nfourqc lint --fleet: %zu config(s) x %zu backend(s), %zu report(s), "
        "%d/%d range-checked proven, %d error(s), %d warning(s) -> %s\n",
        grid.size(), backends.size(), linted.size(), proven, checked, errors,
        warnings, errors ? "FAIL" : "CLEAN");
  }

  if (!lopt.out_dir.empty()) {
    std::vector<analysis::range::CertEntry> cert{{lopt.program + "/ranges", &pranges}};
    bool ok = write_file(out_path / "lint.json", json + "\n") &&
              write_file(out_path / "lint.txt", analysis::lint_text(linted)) &&
              write_file(out_path / "ranges.json",
                         analysis::range::ranges_json(cert) + "\n") &&
              write_file(out_path / "metrics.jsonl",
                         obs::provenance_line("fourq.metrics.v1",
                                              machine_hash_for(topt, copt_base)) +
                             tel.metrics.to_jsonl());
    if (!ok) return 2;
    if (!lopt.json)
      std::printf("fourqc lint: fleet report written to %s\n", out_path.string().c_str());
  }
  return errors ? 1 : 0;
}

// ---------------------------------------------------------------------------
// batch subcommand: the batch execution engine from the command line.

struct BatchOptions {
  int jobs = 64;
  int workers = 1;
  size_t chunk = 0;         // 0 = BatchEngine auto
  std::string rom_cache;    // "" = in-memory process cache only
  uint64_t seed = 42;
  bool check = true;        // cross-check vs software [k]P (functional variant)
  int verify_sigs = 0;      // also batch-verify N SchnorrQ signatures
  std::vector<int> corrupt; // signature indices to corrupt before verifying
  std::string export_dir;   // "" = $FOURQ_OBS_EXPORT_DIR (exporter off if unset too)
  int export_interval_ms = 0;  // 0 = $FOURQ_OBS_EXPORT_INTERVAL_MS / default
  bool hw = false;          // per-worker perf_event counters + perf artifact
  std::string perf_out;     // fourq.perf.v1 path (default batch_perf.json)
};

int run_batch(const trace::SmTraceOptions& topt, const sched::CompileOptions& copt,
              const BatchOptions& bopt) {
  // Fresh telemetry so the solve/compile span counts below describe exactly
  // this invocation.
  obs::global().reset();
  if (bopt.hw) obs::perf_set_enabled(true);

  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace = topt;
  key.compile = copt;

  std::unique_ptr<engine::CompileCache> disk_cache;
  engine::CompileCache* cache = &engine::CompileCache::process_cache();
  if (!bopt.rom_cache.empty()) {
    disk_cache = std::make_unique<engine::CompileCache>(bopt.rom_cache);
    cache = disk_cache.get();
  }

  engine::EngineOptions eopt;
  eopt.workers = bopt.workers;
  eopt.chunk = bopt.chunk;
  eopt.key = key;
  eopt.cache = cache;
  engine::BatchEngine eng(eopt);

  // Live telemetry: when an export directory is configured (flag or env),
  // a background exporter refreshes scrape-ready Prometheus-text and
  // fourq.metrics.v1 JSON snapshots for `fourqc stats` / external scrapers.
  std::unique_ptr<obs::SnapshotExporter> exporter;
  {
    obs::ExporterOptions xopt;
    xopt.dir = bopt.export_dir;
    if (xopt.dir.empty())
      if (const char* d = std::getenv("FOURQ_OBS_EXPORT_DIR"); d && *d) xopt.dir = d;
    if (const char* iv = std::getenv("FOURQ_OBS_EXPORT_INTERVAL_MS"); iv && *iv)
      if (int v = std::atoi(iv); v > 0) xopt.interval_ms = v;
    if (bopt.export_interval_ms > 0) xopt.interval_ms = bopt.export_interval_ms;
    if (!xopt.dir.empty()) {
      xopt.machine_hash = key.hash_hex();
      int interval = xopt.interval_ms;
      std::string dir = xopt.dir;
      exporter = std::make_unique<obs::SnapshotExporter>(obs::global(), std::move(xopt));
      exporter->start();
      std::printf("fourqc batch: telemetry snapshots -> %s (every %d ms)\n", dir.c_str(),
                  interval);
    }
  }

  std::printf("fourqc batch: %d jobs on %d worker%s x %d lanes (%s variant, key %s)\n",
              bopt.jobs, eng.workers(), eng.workers() == 1 ? "" : "s", engine::kMaxLanes,
              topt.endo == trace::EndoVariant::kFunctional ? "functional" : "paper-cost",
              key.hash_hex().c_str());

  auto c0 = std::chrono::steady_clock::now();
  const engine::CompiledProgram& prog = eng.program();
  double compile_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - c0).count();
  engine::CompileCache::Stats cs = cache->stats();
  size_t solves = obs::global().spans.count("sched.compile");
  std::printf(
      "  program ready in %.2f ms  (cache: %zu hit, %zu miss, %zu disk; "
      "scheduler solves this run: %zu%s)\n",
      compile_ms, cs.hits, cs.misses, cs.disk_hits, solves,
      solves == 0 ? " -- warm start, solver skipped" : "");

  Rng rng(bopt.seed);
  curve::Affine base = curve::deterministic_point(1);
  std::vector<engine::SmJob> jobs(static_cast<size_t>(bopt.jobs));
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), base};

  auto t0 = std::chrono::steady_clock::now();
  std::vector<engine::SmResult> results = eng.run(jobs);
  double run_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  asic::SimStats stats = results.empty() ? asic::SimStats{} : results.front().stats;
  record_sim_metrics("sim.batch", stats);
  double jobs_per_s = run_s > 0 ? static_cast<double>(jobs.size()) / run_s : 0.0;
  std::printf("  simulated %zu scalar mults in %.1f ms -> %.1f jobs/s (%d cycles/job)\n",
              jobs.size(), run_s * 1e3, jobs_per_s, stats.cycles);

  int rc = 0;
  if (bopt.check && topt.endo == trace::EndoVariant::kFunctional && topt.include_inversion) {
    size_t bad = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
      curve::Affine sw = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
      if (!(results[i].out.x == sw.x) || !(results[i].out.y == sw.y)) ++bad;
    }
    if (bad) {
      std::printf("  cross-check vs software [k]P: %zu/%zu MISMATCH\n", bad, jobs.size());
      rc = 1;
    } else {
      std::printf("  cross-check vs software [k]P: %zu/%zu match\n", jobs.size(), jobs.size());
    }
  } else if (bopt.check) {
    std::printf("  cross-check skipped (needs --variant functional with inversion)\n");
  }

  if (bopt.verify_sigs > 0) {
    dsa::SchnorrQ scheme;
    Rng krng(bopt.seed ^ 0xdead5eed);
    std::vector<dsa::SchnorrQ::BatchItem> items;
    items.reserve(static_cast<size_t>(bopt.verify_sigs));
    for (int i = 0; i < bopt.verify_sigs; ++i) {
      dsa::SchnorrQ::KeyPair kp = scheme.keygen(krng);
      std::string msg = "fourqc batch message " + std::to_string(i);
      items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
    }
    for (int idx : bopt.corrupt) items[static_cast<size_t>(idx)].msg += " (tampered)";
    auto v0 = std::chrono::steady_clock::now();
    std::vector<uint8_t> verdicts = eng.verify(items);
    double ver_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - v0).count();
    std::string rejected;
    for (size_t i = 0; i < verdicts.size(); ++i)
      if (!verdicts[i]) rejected += (rejected.empty() ? "" : ",") + std::to_string(i);
    // Backend actually used by a clean full-size chunk: 2 MSM terms (R and Q)
    // per signature in the chunk the engine hands to verify_batch.
    size_t chunk_items = bopt.chunk
                             ? std::min(items.size(), bopt.chunk)
                             : std::max<size_t>(1, items.size() /
                                                       (static_cast<size_t>(eng.workers()) * 2));
    const char* backend =
        curve::msm_backend_name(curve::msm_choose_backend(2 * chunk_items));
    std::printf("  batch-verified %zu signatures in %.1f ms (msm backend: %s): %s\n",
                verdicts.size(), ver_ms, backend,
                rejected.empty() ? "all valid" : ("rejected [" + rejected + "]").c_str());
    // Same verdicts the slow way, for the speedup headline.
    auto s0 = std::chrono::steady_clock::now();
    for (const auto& it : items) (void)scheme.verify(it.pub, it.msg, it.sig);
    double ind_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - s0).count();
    std::printf("  individual verify of the same %zu: %.1f ms -> batch speedup %.2fx\n",
                items.size(), ind_ms, ver_ms > 0 ? ind_ms / ver_ms : 0.0);
    if (obs::compiled_in()) {
      // One-line curve.msm.* summary of every MSM the verification ran
      // (telemetry was reset at the top of this invocation). terms counts
      // both backends, whichever the crossover picked.
      obs::Registry& mreg = obs::global().metrics;
      uint64_t terms = 0;
      for (const char* b : {"straus", "pippenger"})
        terms += mreg.counter("curve.msm.terms", obs::Labels{{"backend", b}}).value();
      std::printf("  msm: calls=%llu terms=%llu chunks=%llu waves=%llu peak=%.0f KB\n",
                  static_cast<unsigned long long>(mreg.counter("curve.msm.calls").value()),
                  static_cast<unsigned long long>(terms),
                  static_cast<unsigned long long>(mreg.counter("curve.msm.chunks").value()),
                  static_cast<unsigned long long>(
                      mreg.counter("curve.msm.bucket_waves").value()),
                  mreg.gauge("curve.msm.peak_kb").value());
    }
  }

  obs::Registry& reg = obs::global().metrics;
  if (obs::compiled_in()) {
    // Wave-packing picture of the run: every wave (padded ones included),
    // the jobs that ran in a partial, padded wave, and how full the wave
    // slots were on average.
    std::printf("  lanes: waves=%llu padded-wave jobs=%llu occupancy=%.3f (fp kernels: %s)\n",
                static_cast<unsigned long long>(reg.counter("engine.lanes.waves").value()),
                static_cast<unsigned long long>(
                    reg.counter("engine.lanes.ragged_jobs").value()),
                reg.gauge("engine.lanes.occupancy").value(),
                field::lanes::active().name);
  }
  std::printf("  engine.cache.hit=%llu engine.cache.miss=%llu engine.cache.disk.hit=%llu "
              "sched.compile spans=%zu\n",
              static_cast<unsigned long long>(reg.counter("engine.cache.hit").value()),
              static_cast<unsigned long long>(reg.counter("engine.cache.miss").value()),
              static_cast<unsigned long long>(reg.counter("engine.cache.disk.hit").value()),
              obs::global().spans.count("sched.compile"));
  if (obs::compiled_in()) {
    obs::HistogramStats w =
        reg.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).stats();
    obs::HistogramStats s =
        reg.latency_histogram("engine.job.service_us", {{"kind", "sm"}}).stats();
    if (w.count && s.count)
      std::printf("  sm tasks: queue-wait p50/p99 %.0f/%.0f us, service p50/p99 "
                  "%.0f/%.0f us (%llu tasks)\n",
                  w.quantile(0.5), w.quantile(0.99), s.quantile(0.5), s.quantile(0.99),
                  static_cast<unsigned long long>(s.count));
  }
  if (bopt.hw && obs::compiled_in()) {
    // Per-kind attribution from the worker-maintained perf.* counters
    // (cycles-per-job and IPC gauges are refreshed after every batch).
    const char* src = obs::perf_source_name(obs::perf_thread_source());
    const obs::Labels sm_l{{"kind", "sm"}};
    double cpj = reg.gauge("perf.cycles_per_job", sm_l).value();
    double ipc = reg.gauge("perf.ipc", sm_l).value();
    if (cpj > 0)
      std::printf("  hw counters (%s): %.3g cpu-cycles/sm-job, IPC %.2f\n", src, cpj, ipc);
    else if (reg.counter("perf.task_clock_ns", sm_l).value() > 0)
      std::printf("  hw counters (%s): %.3g task-clock ns/sm-job\n", src,
                  static_cast<double>(reg.counter("perf.task_clock_ns", sm_l).value()) /
                      static_cast<double>(std::max<uint64_t>(
                          1, reg.counter("engine.jobs.sm").value())));
    else
      std::printf("  hw counters: unavailable (perf_event_open blocked here)\n");
    std::string path = bopt.perf_out.empty() ? "batch_perf.json" : bopt.perf_out;
    obs::PerfProfile prof = obs::global().spans.profile();
    if (write_file(path, obs::perf_profile_json(prof, key.hash_hex())))
      std::printf("  hw profile (fourq.perf.v1, counters: %s) -> %s\n",
                  prof.counters.c_str(), path.c_str());
  }
  if (exporter) {
    exporter->stop();  // final flush so the last snapshot covers the whole run
    std::printf("  telemetry: %llu snapshot(s) written to %s\n",
                static_cast<unsigned long long>(exporter->snapshots_written()),
                exporter->options().dir.c_str());
  }
  (void)prog;
  return rc;
}

// ---------------------------------------------------------------------------
// stats subcommand — read back the exporter's snapshot directory, validate the
// fourq.metrics.v1 JSON and the Prometheus text exposition, and pretty-print
// (or tail) them. Exit 1 on any malformed file, so CI can use this as the
// smoke check for the export pipeline.

struct StatsOptions {
  std::string dir;      // "" = $FOURQ_OBS_EXPORT_DIR
  bool json = false;    // dump validated metrics.json instead of the table
  int follow = 0;       // extra re-reads after the first
  int interval_ms = 1000;
};

bool read_text_file(const std::string& path, std::string* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// One Prometheus text-exposition line: `name value` or `name{labels} value`,
// or a `#` comment. Returns false (with a reason) on anything else.
bool validate_prom_line(const std::string& line, std::string* why) {
  if (line.empty() || line[0] == '#') return true;
  size_t i = 0;
  auto name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == ':';
  };
  while (i < line.size() && name_char(line[i])) ++i;
  if (i == 0) {
    *why = "metric name missing";
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    size_t close = line.find('}', i);
    if (close == std::string::npos) {
      *why = "unbalanced label braces";
      return false;
    }
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') {
    *why = "expected space before value";
    return false;
  }
  const char* start = line.c_str() + i + 1;
  char* end = nullptr;
  std::strtod(start, &end);
  if (end == start || *end != '\0') {
    *why = "value is not a number";
    return false;
  }
  return true;
}

// Validates metrics.json against the fourq.metrics.v1 shape (shared with
// the exporter tests via obs::validate_metrics_json_v1). Returns nullptr
// and sets *err on any violation.
obs::json::ValuePtr load_metrics_json(const std::string& path, std::string* err) {
  std::string text;
  if (!read_text_file(path, &text, err)) return nullptr;
  std::string verr;
  obs::json::ValuePtr doc = obs::validate_metrics_json_v1(text, &verr);
  if (!doc) {
    *err = path + ": " + verr;
    return nullptr;
  }
  return doc;
}

int run_stats(const StatsOptions& sopt) {
  std::string dir = sopt.dir;
  if (dir.empty())
    if (const char* d = std::getenv("FOURQ_OBS_EXPORT_DIR"); d && *d) dir = d;
  if (dir.empty()) {
    std::fprintf(stderr,
                 "fourqc stats: no snapshot directory (pass --dir or set "
                 "FOURQ_OBS_EXPORT_DIR)\n");
    return 2;
  }

  for (int round = 0; round <= sopt.follow; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sopt.interval_ms));
      std::printf("\n");
    }

    std::string err;
    obs::json::ValuePtr doc = load_metrics_json(dir + "/metrics.json", &err);
    if (!doc) {
      std::fprintf(stderr, "fourqc stats: %s\n", err.c_str());
      return 1;
    }

    std::string prom;
    if (!read_text_file(dir + "/metrics.prom", &prom, &err)) {
      std::fprintf(stderr, "fourqc stats: %s\n", err.c_str());
      return 1;
    }
    int prom_series = 0;
    size_t pos = 0, lineno = 0;
    while (pos <= prom.size()) {
      size_t nl = prom.find('\n', pos);
      std::string line =
          prom.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
      ++lineno;
      std::string why;
      if (!validate_prom_line(line, &why)) {
        std::fprintf(stderr, "fourqc stats: %s/metrics.prom:%zu: %s: %s\n", dir.c_str(),
                     lineno, why.c_str(), line.c_str());
        return 1;
      }
      if (!line.empty() && line[0] != '#') ++prom_series;
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }

    if (sopt.json) {
      std::string text;
      if (!read_text_file(dir + "/metrics.json", &text, &err)) {
        std::fprintf(stderr, "fourqc stats: %s\n", err.c_str());
        return 1;
      }
      std::fputs(text.c_str(), stdout);
      continue;
    }

    const obs::json::Value& prov = doc->at("provenance");
    std::printf("snapshot %s (sequence %.0f)\n", dir.c_str(),
                doc->has("sequence") ? doc->at("sequence").number() : 0.0);
    std::printf("  provenance: git %s, %s, machine %s\n",
                prov.at("git_sha").string().c_str(),
                prov.at("timestamp_utc").string().c_str(),
                prov.has("machine_hash") ? prov.at("machine_hash").string().c_str() : "-");
    const obs::json::Value& metrics = doc->at("metrics");
    std::printf("  %zu metric(s), %d prometheus series\n", metrics.arr.size(),
                prom_series);
    for (const auto& m : metrics.arr) {
      std::string label = m->at("name").string();
      if (m->has("labels") && !m->at("labels").obj.empty()) {
        label += "{";
        bool first = true;
        for (const auto& [k, v] : m->at("labels").obj) {
          if (!first) label += ",";
          first = false;
          label += k + "=\"" + v->string() + "\"";
        }
        label += "}";
      }
      const std::string& type = m->at("type").string();
      if (type == "histogram") {
        const obs::json::Value& q = m->at("quantiles");
        std::printf("  %-58s count=%-8.0f p50=%-10.1f p90=%-10.1f p99=%-10.1f\n",
                    label.c_str(), m->at("count").number(), q.at("p50").number(),
                    q.at("p90").number(), q.at("p99").number());
      } else {
        std::printf("  %-58s %s=%.6g\n", label.c_str(), type.c_str(),
                    m->at("value").number());
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// perf subcommand — differential profiling over fourq.perf.v1 artifacts.

int run_perf_diff(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> files;
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--json") json = true;
    else if (a == "--help" || a == "-h") {
      std::printf("usage: fourqc perf diff BASE.json CURRENT.json [--json]\n");
      return 0;
    } else files.push_back(a);
  }
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: fourqc perf diff BASE.json CURRENT.json [--json]\n");
    return 2;
  }
  obs::PerfProfile profs[2];
  for (int i = 0; i < 2; ++i) {
    std::string text, err;
    if (!read_text_file(files[static_cast<size_t>(i)], &text, &err)) {
      std::fprintf(stderr, "fourqc perf diff: %s\n", err.c_str());
      return 2;
    }
    if (!obs::parse_perf_profile(text, &profs[i], &err)) {
      std::fprintf(stderr, "fourqc perf diff: %s: %s\n",
                   files[static_cast<size_t>(i)].c_str(), err.c_str());
      return 2;
    }
  }
  obs::PerfDiffReport rep = obs::perf_diff(profs[0], profs[1]);
  std::string out = json ? obs::perf_diff_json(rep) : obs::perf_diff_text(rep);
  std::printf("%s", out.c_str());
  return 0;
}

// Largest accepted values: hardware shape parameters (units, ports,
// latencies) and thread counts stay far below anything that could
// overflow a schedule or exhaust the host.
constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr int kMaxHw = 64;
constexpr int kMaxThreads = 256;

// Reads one numeric flag value. The whole string must be a decimal integer
// in [lo, hi]; anything else is a usage error (exit 2) naming the flag.
uint64_t flag_value(const std::string& flag, const char* v, uint64_t lo, uint64_t hi) {
  errno = 0;
  char* end = nullptr;
  unsigned long long x = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' || errno == ERANGE ||
      x < lo || x > hi) {
    std::fprintf(stderr, "fourqc: bad %s value: %s\n", flag.c_str(), v);
    std::exit(2);
  }
  return x;
}

int fourqc_main(int argc, char** argv) {
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  sched::CompileOptions copt;
  copt.solver = sched::Solver::kList;

  bool report = false;
  bool looped = false;
  std::string save_path, vcd_path, dot_path, verilog_path;
  std::optional<U256> verify_k;
  int disasm_from = -1, disasm_count = 0;

  bool profile_mode = false;
  ProfileOptions popt;

  bool explain_mode = false;
  ExplainOptions eopt;

  bool lint_mode = false;
  LintOptions lopt;

  bool batch_mode = false;
  BatchOptions bopt;

  bool stats_mode = false;
  StatsOptions sopt;

  int argstart = 1;
  if (argc > 1 && std::strcmp(argv[1], "profile") == 0) {
    profile_mode = true;
    argstart = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "explain") == 0) {
    explain_mode = true;
    argstart = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "lint") == 0) {
    lint_mode = true;
    argstart = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "batch") == 0) {
    batch_mode = true;
    argstart = 2;
    // Batch runs default to the checkable program: functional endomorphism
    // constants so outputs equal software [k]P.
    topt.endo = trace::EndoVariant::kFunctional;
  } else if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    stats_mode = true;
    argstart = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "perf") == 0) {
    if (argc > 2 && std::strcmp(argv[2], "diff") == 0) return run_perf_diff(argc, argv);
    std::fprintf(stderr, "usage: fourqc perf diff BASE.json CURRENT.json [--json]\n");
    return 2;
  }

  for (int i = argstart; i < argc; ++i) {
    auto need = [&](int n) {
      if (i + n >= argc) {
        usage();
        std::exit(2);
      }
    };
    std::string a = argv[i];
    // The next argument as the value of flag `a`, an integer in [lo, hi].
    auto int_arg = [&](int lo, int hi) {
      need(1);
      return static_cast<int>(flag_value(a, argv[++i], lo, hi));
    };
    if (a == "--variant") {
      need(1);
      std::string v = argv[++i];
      if (v == "functional")
        topt.endo = trace::EndoVariant::kFunctional;
      else if (v == "paper-cost")
        topt.endo = trace::EndoVariant::kPaperCost;
      else {
        usage();
        return 2;
      }
    } else if (a == "--solver") {
      need(1);
      std::string v = argv[++i];
      if (v == "seq") copt.solver = sched::Solver::kSequential;
      else if (v == "list") copt.solver = sched::Solver::kList;
      else if (v == "anneal") copt.solver = sched::Solver::kAnneal;
      else if (v == "bnb") copt.solver = sched::Solver::kBnb;
      else {
        usage();
        return 2;
      }
    } else if (a == "--anneal-iters") {
      copt.anneal.iterations = int_arg(1, kMaxInt);
    } else if (a == "--mul-latency") {
      copt.cfg.mul_latency = int_arg(1, kMaxHw);
    } else if (a == "--mul-ii") {
      copt.cfg.mul_ii = int_arg(1, kMaxHw);
    } else if (a == "--read-ports") {
      copt.cfg.rf_read_ports = int_arg(1, kMaxHw);
    } else if (a == "--write-ports") {
      copt.cfg.rf_write_ports = int_arg(1, kMaxHw);
    } else if (a == "--multipliers") {
      copt.cfg.num_multipliers = int_arg(1, kMaxHw);
    } else if (a == "--addsubs") {
      copt.cfg.num_addsubs = int_arg(1, kMaxHw);
    } else if (a == "--no-forwarding") {
      copt.cfg.forwarding = false;
    } else if (a == "--no-inversion") {
      topt.include_inversion = false;
    } else if (a == "--looped") {
      looped = true;
    } else if (a == "--verify") {
      need(1);
      try {
        verify_k = U256::from_hex(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fourqc: bad --verify value: %s\n", e.what());
        return 2;
      }
    } else if (a == "--save-rom") {
      need(1);
      save_path = argv[++i];
    } else if (a == "--vcd") {
      need(1);
      vcd_path = argv[++i];
    } else if (a == "--dot") {
      need(1);
      dot_path = argv[++i];
    } else if (a == "--verilog") {
      need(1);
      verilog_path = argv[++i];
    } else if (a == "--disasm") {
      disasm_from = int_arg(0, kMaxInt);
      disasm_count = int_arg(1, kMaxInt);
    } else if (a == "--report") {
      report = true;
    } else if (profile_mode && a == "--out") {
      need(1);
      popt.out = argv[++i];
    } else if (profile_mode && a == "--scalar") {
      need(1);
      popt.scalar = argv[++i];
    } else if (profile_mode && a == "--events") {
      popt.events = true;
    } else if (profile_mode && a == "--hw") {
      popt.hw = true;
    } else if (profile_mode && a == "--repeat") {
      popt.repeat = int_arg(1, kMaxInt);
    } else if (profile_mode && a == "--flame") {
      need(1);
      popt.flame = argv[++i];
    } else if (explain_mode && a == "--program") {
      need(1);
      eopt.program = argv[++i];
      if (eopt.program != "loop" && eopt.program != "sm") {
        usage();
        return 2;
      }
    } else if (explain_mode && a == "--backends") {
      need(1);
      eopt.backends = split_csv(argv[++i]);
    } else if (lint_mode && a == "--program") {
      need(1);
      lopt.program = argv[++i];
      if (lopt.program != "loop" && lopt.program != "sm") {
        usage();
        return 2;
      }
    } else if (lint_mode && a == "--backends") {
      need(1);
      lopt.backends = split_csv(argv[++i]);
    } else if (lint_mode && a == "--json") {
      lopt.json = true;
    } else if (lint_mode && a == "--out") {
      need(1);
      lopt.out_dir = argv[++i];
    } else if (lint_mode && a == "--ranges") {
      lopt.ranges = true;
    } else if (lint_mode && a == "--fleet") {
      lopt.fleet = true;
    } else if (lint_mode && a == "--fleet-grid") {
      need(1);
      lopt.fleet_grid = argv[++i];
      if (lopt.fleet_grid != "smoke" && lopt.fleet_grid != "full") {
        usage();
        return 2;
      }
    } else if (lint_mode && a == "--fleet-workers") {
      lopt.fleet_workers = int_arg(0, kMaxThreads);
    } else if (explain_mode && a == "--gantt") {
      eopt.gantt = 1;
    } else if (explain_mode && a == "--no-gantt") {
      eopt.gantt = 0;
    } else if (explain_mode && a == "--out") {
      need(1);
      eopt.out_dir = argv[++i];
    } else if (batch_mode && a == "--jobs") {
      bopt.jobs = int_arg(1, kMaxInt);
    } else if (batch_mode && a == "--workers") {
      bopt.workers = int_arg(1, kMaxThreads);
    } else if (batch_mode && a == "--chunk") {
      bopt.chunk = static_cast<size_t>(int_arg(0, kMaxInt));
    } else if (batch_mode && a == "--rom-cache") {
      need(1);
      bopt.rom_cache = argv[++i];
    } else if (batch_mode && a == "--seed") {
      need(1);
      bopt.seed = flag_value(a, argv[++i], 0, UINT64_MAX);
    } else if (batch_mode && a == "--no-check") {
      bopt.check = false;
    } else if (batch_mode && a == "--verify-sigs") {
      bopt.verify_sigs = int_arg(0, kMaxInt);
    } else if (batch_mode && a == "--corrupt") {
      need(1);
      // Range-checked against --verify-sigs once every flag is read.
      for (const std::string& s : split_csv(argv[++i]))
        bopt.corrupt.push_back(static_cast<int>(flag_value(a, s.c_str(), 0, kMaxInt)));
    } else if (batch_mode && a == "--export-dir") {
      need(1);
      bopt.export_dir = argv[++i];
    } else if (batch_mode && a == "--export-interval-ms") {
      bopt.export_interval_ms = int_arg(0, kMaxInt);
    } else if (batch_mode && a == "--hw") {
      bopt.hw = true;
    } else if (batch_mode && a == "--perf-out") {
      need(1);
      bopt.perf_out = argv[++i];
    } else if (stats_mode && a == "--dir") {
      need(1);
      sopt.dir = argv[++i];
    } else if (stats_mode && a == "--json") {
      sopt.json = true;
    } else if (stats_mode && a == "--follow") {
      sopt.follow = int_arg(1, kMaxInt);
    } else if (stats_mode && a == "--interval-ms") {
      sopt.interval_ms = int_arg(1, kMaxInt);
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (profile_mode) return run_profile(topt, copt, popt);
  if (explain_mode) return run_explain(topt, copt, eopt);
  if (lint_mode)
    return lopt.fleet ? run_fleet_lint(topt, copt, lopt) : run_lint(topt, copt, lopt);
  if (stats_mode) return run_stats(sopt);
  if (batch_mode) {
    for (int idx : bopt.corrupt)
      if (idx >= bopt.verify_sigs) {
        std::fprintf(stderr, "fourqc: bad --corrupt value: %d (--verify-sigs %d)\n", idx,
                     bopt.verify_sigs);
        return 2;
      }
    return run_batch(topt, copt, bopt);
  }

  if (looped) {
    std::printf("fourqc: building blocked/looped controller (%s variant)...\n",
                topt.endo == trace::EndoVariant::kFunctional ? "functional" : "paper-cost");
    asic::LoopedSmOptions lopt;
    lopt.endo = topt.endo;
    lopt.cfg.mul_latency = copt.cfg.mul_latency;
    lopt.cfg.forwarding = copt.cfg.forwarding;
    asic::LoopedSm lsm = asic::build_looped_sm(lopt);
    std::printf("  prologue %d + %d x body %d + epilogue %d = %d cycles/SM\n",
                lsm.prologue.cycles(), lsm.iterations, lsm.body.cycles(),
                lsm.epilogue.cycles(), lsm.total_cycles());
    std::printf("  ROM: %d words (vs %d for the flat controller's unrolled program)\n",
                lsm.rom_words(), lsm.total_cycles());
    if (verify_k) {
      const U256& k = *verify_k;
      curve::Affine p = curve::deterministic_point(1);
      trace::InputBindings b;
      b.emplace_back(lsm.in_zero, curve::Fp2());
      b.emplace_back(lsm.in_one, curve::Fp2::from_u64(1));
      b.emplace_back(lsm.in_two_d, curve::curve_2d());
      b.emplace_back(lsm.in_px, p.x);
      b.emplace_back(lsm.in_py, p.y);
      for (size_t i = 0; i < lsm.in_endo_consts.size(); ++i)
        b.emplace_back(lsm.in_endo_consts[i], curve::Fp2::from_u64(3 + i, 7 + i));
      curve::Decomposition dec = curve::decompose(k);
      curve::RecodedScalar rec = curve::recode(dec.a);
      asic::SimResult res =
          asic::simulate_looped(lsm, b, trace::EvalContext{&rec, dec.k_was_even});
      if (lopt.endo == trace::EndoVariant::kFunctional) {
        curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
        bool ok = res.outputs.at("x") == expect.x && res.outputs.at("y") == expect.y;
        std::printf("fourqc: verify vs curve-level [k]P: %s\n", ok ? "MATCH" : "MISMATCH");
        if (!ok) return 1;
      } else {
        std::printf("fourqc: simulated %d cycles (paper-cost variant, no curve check)\n",
                    res.stats.cycles);
      }
    }
    if (disasm_from >= 0) {
      std::printf("-- body segment --\n%s",
                  asic::disassemble(lsm.body, disasm_from, disasm_count).c_str());
    }
    if (report) {
      power::Sotb65Model chip(lsm.total_cycles());
      for (double v : {1.20, 0.32}) {
        auto op = chip.at(v);
        std::printf("  @%.2f V: fmax %.1f MHz, %.2f us/SM, %.3f uJ/SM\n", v, op.fmax_mhz,
                    op.latency_us, op.energy_uj);
      }
    }
    return 0;
  }

  std::printf("fourqc: tracing SM program (%s variant)...\n",
              topt.endo == trace::EndoVariant::kFunctional ? "functional" : "paper-cost");
  trace::SmTrace sm = trace::build_sm_trace(topt);
  trace::OpStats ops = trace::count_ops(sm.program);
  std::printf("  %d muls + %d add/subs (%.1f%% muls)\n", ops.muls, ops.addsubs,
              100.0 * ops.mul_fraction());

  std::printf("fourqc: scheduling...\n");
  sched::CompileResult r = sched::compile_program(sm.program, copt);
  std::printf("  makespan %d cycles, register pressure %d/%d\n", r.schedule.makespan,
              r.register_pressure, copt.cfg.rf_size);

  if (verify_k) {
    const U256& k = *verify_k;
    curve::Affine p = curve::deterministic_point(1);
    trace::InputBindings b;
    b.emplace_back(sm.in_zero, curve::Fp2());
    b.emplace_back(sm.in_one, curve::Fp2::from_u64(1));
    b.emplace_back(sm.in_two_d, curve::curve_2d());
    b.emplace_back(sm.in_px, p.x);
    b.emplace_back(sm.in_py, p.y);
    for (size_t i = 0; i < sm.in_endo_consts.size(); ++i)
      b.emplace_back(sm.in_endo_consts[i], curve::Fp2::from_u64(3 + i, 7 + i));
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    trace::EvalContext ctx{&rec, dec.k_was_even};
    asic::SimResult res = asic::simulate(r.sm, b, ctx);
    auto ref = trace::evaluate(sm.program, b, ctx);
    bool ok = true;
    for (const auto& [name, v] : ref)
      if (res.outputs.at(name) != v) ok = false;
    if (topt.endo == trace::EndoVariant::kFunctional && topt.include_inversion) {
      curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
      ok = ok && res.outputs.at("x") == expect.x && res.outputs.at("y") == expect.y;
      std::printf("fourqc: verify vs curve-level [k]P: %s\n", ok ? "MATCH" : "MISMATCH");
    } else {
      std::printf("fourqc: verify vs trace interpreter: %s\n", ok ? "MATCH" : "MISMATCH");
    }
    if (!ok) return 1;
  }

  if (disasm_from >= 0) {
    std::printf("%s", asic::disassemble(r.sm, disasm_from, disasm_count).c_str());
  }

  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", save_path.c_str());
      return 1;
    }
    asic::save_rom(r.sm, out);
    std::printf("fourqc: ROM image written to %s\n", save_path.c_str());
  }

  if (!vcd_path.empty()) {
    std::ofstream out(vcd_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", vcd_path.c_str());
      return 1;
    }
    asic::write_vcd(r.sm, out);
    std::printf("fourqc: VCD waveform written to %s\n", vcd_path.c_str());
  }

  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", dot_path.c_str());
      return 1;
    }
    asic::write_dot(r.problem, r.schedule, out);
    std::printf("fourqc: DOT graph written to %s\n", dot_path.c_str());
  }

  if (!verilog_path.empty()) {
    std::ofstream out(verilog_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", verilog_path.c_str());
      return 1;
    }
    out << asic::emit_verilog(r.sm, "fourq_sm_unit");
    std::printf("fourqc: Verilog skeleton written to %s\n", verilog_path.c_str());
  }

  if (report) {
    asic::RomStats rs = asic::rom_stats(r.sm);
    power::AreaOptions aopt;
    aopt.cfg = copt.cfg;
    aopt.rom_words = rs.words;
    aopt.ctrl_word_bits = rs.word_bits;
    power::AreaBreakdown area = power::estimate_area(aopt);
    power::Sotb65Model chip(r.sm.cycles());
    std::printf("\nreport:\n");
    std::printf("  ROM: %d words x %d bits = %.1f kbit\n", rs.words, rs.word_bits,
                rs.total_kbits);
    std::printf("  area: %.0f kGE (multiplier %.0f, RF %.0f, ROM %.0f)\n", area.total_kge(),
                area.fp2_multiplier_kge, area.register_file_kge, area.rom_kge);
    for (double v : {1.20, 0.32}) {
      auto op = chip.at(v);
      std::printf("  @%.2f V: fmax %.1f MHz, %.2f us/SM, %.3f uJ/SM\n", v, op.fmax_mhz,
                  op.latency_us, op.energy_uj);
    }
  }
  return 0;
}

}  // namespace

// Anything thrown past argument parsing (a FOURQ_CHECK on a machine
// configuration the scheduler cannot meet, an allocation failure) is
// reported as an error, exit 1, rather than aborting the process.
int main(int argc, char** argv) {
  try {
    return fourqc_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fourqc: %s\n", e.what());
    return 1;
  }
}

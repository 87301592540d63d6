// fourqc profile — run one SM end to end (software, flat microcode, looped
// controller) and write the telemetry bundle, e.g.
// `fourqc profile --hw --repeat 3 --out profile_out --flame prof.folded`.
#include <cstdio>

#include "curve/scalarmul.hpp"
#include "fourqc/cli.hpp"
#include "obs/obs.hpp"
#include "obs/perf_profile.hpp"
#include "power/activity_energy.hpp"
#include "power/sotb65.hpp"

namespace fourq::cli {

namespace {

std::string hw_counter_table(const obs::PerfProfile& prof, int repeat) {
  std::string out = "\n== hardware counters (" + prof.counters + ", " +
                    std::to_string(repeat) + " repetition" + (repeat == 1 ? "" : "s") +
                    ") ==\n";
  if (prof.counters == "unavailable")
    return out + "(perf_event_open unavailable in this environment -- perf.json "
                 "carries wall times only)\n";
  char buf[220];
  if (prof.counters == "software") {
    // PMU events blocked (common under perf_event_paranoid >= 2 /
    // containers): only the software task-clock is live.
    std::snprintf(buf, sizeof buf, "%-52s %4s %14s\n", "span path", "n", "task-clock us");
    out += buf;
    for (const obs::PerfSpanStat& s : prof.spans) {
      if (!s.perf_n) continue;
      std::snprintf(buf, sizeof buf, "%-52s %4llu %14.1f\n", s.path.c_str(),
                    static_cast<unsigned long long>(s.perf_n), s.task_clock_ns.mean() / 1e3);
      out += buf;
    }
    return out;
  }
  std::snprintf(buf, sizeof buf, "%-46s %4s %14s %14s %6s %8s\n", "span path", "n", "cycles",
                "instrs", "IPC", "miss%");
  out += buf;
  for (const obs::PerfSpanStat& s : prof.spans) {
    if (!s.perf_n) continue;
    std::snprintf(buf, sizeof buf, "%-46s %4llu %14.0f %14.0f %6.2f %7.2f%%\n", s.path.c_str(),
                  static_cast<unsigned long long>(s.perf_n), s.cycles.mean(),
                  s.instructions.mean(), s.ipc(), 100.0 * s.cache_miss_rate());
    out += buf;
  }
  return out;
}

}  // namespace

int run_profile(int argc, char** argv) {
  Flow flow;
  std::string out = "profile_out", flame;
  U256 k = U256::from_hex(kDefaultScalar);
  bool hw = false;
  int repeat = 1;

  std::vector<Flag> flags = {
      text_flag("--out", "DIR", "bundle directory (default profile_out)", &out),
      hex_flag("--scalar", "scalar to profile (default fixed)", &k),
      switch_flag("--hw", "attach perf_event counters to every span (or a fallback)", &hw),
      int_flag("--repeat", "run the pipeline N times for perf.json noise bars", &repeat, 1,
               kMaxInt),
      text_flag("--flame", "FILE", "write collapsed stacks for flamegraph.pl / speedscope",
                &flame)};
  add_flow_flags(flags, flow);
  parse_flags("fourqc profile",
              "usage: fourqc profile [options]\n"
              "Run one SM end to end (software, flat microcode, looped controller) and\n"
              "write the telemetry bundle: trace.json [chrome://tracing], metrics.jsonl,\n"
              "perf.json [fourq.perf.v1] and summary.txt.",
              argc, argv, flags);

  std::filesystem::path dir(out);
  if (!ensure_out_dir(dir)) return 2;
  obs::Telemetry& tel = obs::global();
  tel.reset();
  if (hw) obs::perf_set_enabled(true);
  curve::Affine p = curve::deterministic_point(1);

  // Phases 1-3 run --repeat times: every repetition contributes one more
  // sample per span path, which is what gives `fourqc perf diff` its noise
  // bars. The looped event sink is cleared per repetition (energy
  // attribution below reads the last repetition's stream); the sim counters
  // are recorded once after the loop from the final repetition's stats.
  curve::Affine sw;
  obs::RecordingSink loop_events;
  asic::SimResult flat_res, loop_res;
  asic::LoopedSm lsm;
  for (int rep = 0; rep < repeat; ++rep) {
    loop_events.events.clear();

    // 1. Software pipeline: spans for decompose/precompute/loop/normalize.
    {
      FOURQ_SPAN("profile.software_sm");
      sw = curve::to_affine(curve::scalar_mul(k, p));
    }

    // 2. Hardware flow: trace -> schedule -> flat simulation with a recorder.
    {
      FOURQ_SPAN("profile.flat_sm");
      trace::SmTrace sm = trace::build_sm_trace(flow.topt);
      sched::CompileResult r = sched::compile_program(sm.program, flow.copt);
      SimInputs in;
      in.bind_sm(sm, p, k);
      {
        FOURQ_SPAN("asic.simulate_flat");
        flat_res = asic::simulate(r.sm, in.bindings, in.ctx);
      }
      if (flow.topt.endo == trace::EndoVariant::kFunctional && flow.topt.include_inversion &&
          (flat_res.outputs.at("x") != sw.x || flat_res.outputs.at("y") != sw.y)) {
        std::fprintf(stderr, "fourqc profile: simulator disagrees with software SM\n");
        return 1;
      }
    }

    // 3. Looped controller: segment boundaries give the hardware-phase
    //    windows for energy attribution.
    {
      FOURQ_SPAN("profile.looped_sm");
      lsm = asic::build_looped_sm(looped_options(flow, flow.copt.cfg));
      SimInputs in;
      in.bind_sm(lsm, p, k);
      FOURQ_SPAN("asic.simulate_looped");
      loop_res = asic::simulate_looped(lsm, in.bindings, in.ctx, &loop_events);
    }
  }
  record_sim_metrics("sim.flat", flat_res.stats);
  record_sim_metrics("sim.looped", loop_res.stats);

  // 4. Per-phase energy attribution from the looped event stream.
  const double vdd = power::Sotb65Model::kVNominal;
  power::Sotb65Model chip(lsm.total_cycles());
  power::ActivityEnergyModel energy(loop_res.stats, chip);
  std::vector<power::PhaseEnergy> phases =
      energy.attribute_phases(vdd, loop_events.events, phase_windows(lsm));
  for (const power::PhaseEnergy& ph : phases)
    tel.metrics.gauge("energy." + ph.window.name + "_uj").set(ph.energy.total_uj());
  tel.metrics.gauge("energy.sm_total_uj").set(energy.breakdown(vdd).total_uj());

  // 5. Export the bundle (directory already created up front).
  std::string summary;
  summary += "== spans (wall clock) ==\n" + tel.spans.to_table();
  summary += "\n== metrics ==\n" + tel.metrics.to_table();
  summary += "\n== per-phase energy (looped controller @ " + std::to_string(vdd) + " V) ==\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-12s %10s %10s %10s %12s\n", "phase", "cycles", "muls",
                "add/subs", "energy (uJ)");
  summary += buf;
  for (const power::PhaseEnergy& ph : phases) {
    std::snprintf(buf, sizeof buf, "%-12s %10d %10d %10d %12.4f\n", ph.window.name.c_str(),
                  ph.activity.cycles, ph.activity.mul_issues, ph.activity.addsub_issues,
                  ph.energy.total_uj());
    summary += buf;
  }
  // Hardware-counter profile (fourq.perf.v1) aggregated over all
  // repetitions. Always written — an artifact with counters:"unavailable"
  // still carries wall-time stats usable by `fourqc perf diff`.
  obs::PerfProfile prof = tel.spans.profile();
  if (hw) summary += hw_counter_table(prof, repeat);
  if (!obs::compiled_in())
    summary += "\n(note: built with FOURQ_OBS=OFF — span/counter macros compiled out)\n";

  bool ok = write_file(dir / "trace.json", tel.flight.chrome_trace_json()) &&
            write_metrics(dir, flow) &&
            write_file(dir / "perf.json", obs::perf_profile_json(prof, flow.key().hash_hex())) &&
            write_file(dir / "summary.txt", summary);
  if (ok && !flame.empty()) ok = write_file(flame, obs::perf_folded(prof));
  if (!ok) return 1;

  std::printf("%s", summary.c_str());
  std::printf("\nfourqc profile: bundle written to %s\n", dir.string().c_str());
  if (!flame.empty())
    std::printf("fourqc profile: collapsed stacks -> %s (flamegraph.pl / speedscope)\n",
                flame.c_str());
  return 0;
}

}  // namespace fourq::cli

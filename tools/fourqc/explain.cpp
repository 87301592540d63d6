// fourqc explain — schedule explainability (docs/OBSERVABILITY.md):
// critical-path lower bounds, bound gaps and stall root-cause attribution,
// side by side for every scheduler backend, e.g.
// `fourqc explain --program sm --backends seq,list,anneal`.
#include <cstdio>

#include "asic/explain.hpp"
#include "fourqc/cli.hpp"
#include "obs/obs.hpp"
#include "sched/critical_path.hpp"

namespace fourq::cli {

namespace {

// One scheduler backend's row of the report.
struct BackendExplain {
  std::string name;
  sched::BoundGap gap;  // achieved makespan vs tightest lower bound
  asic::SimStats stats;
  asic::StallAttribution attribution;
};

void record_explain_metrics(const BackendExplain& be) {
  obs::Registry& m = obs::global().metrics;
  const std::string prefix = "explain." + be.name + ".";
  m.gauge(prefix + "cycles").set(be.gap.makespan);
  m.gauge(prefix + "bound_gap").set(be.gap.gap);
  m.gauge(prefix + "efficiency").set(be.gap.efficiency);
  m.gauge(prefix + "mul_utilisation").set(be.stats.mul_utilisation());
  m.gauge(prefix + "addsub_utilisation").set(be.stats.addsub_utilisation());
  const std::pair<const char*, const asic::StallBreakdown*> kinds[] = {
      {"stall.", &be.attribution.stalls},
      {"mul_idle.", &be.attribution.mul_idle},
      {"addsub_idle.", &be.attribution.addsub_idle}};
  for (const auto& [kind, breakdown] : kinds)
    for (int c = 0; c < asic::kNumStallClasses; ++c)
      m.counter(prefix + kind + asic::stall_class_name(static_cast<asic::StallClass>(c)))
          .inc(static_cast<uint64_t>(breakdown->by_class[static_cast<size_t>(c)]));
}

}  // namespace

int run_explain(int argc, char** argv) {
  Flow flow;
  std::string program = "loop", backend_list, out_dir;
  bool gantt = false, no_gantt = false;

  std::vector<Flag> flags = {
      choice_flag("--program", "loop|sm", "Alg. 1 loop body (default) or full SM", &program),
      text_flag("--backends", "a,b,...", "subset of seq,list,anneal,bnb", &backend_list),
      switch_flag("--gantt", "occupancy timeline (default: on for loop)", &gantt),
      switch_flag("--no-gantt", "no occupancy timeline", &no_gantt),
      text_flag("--out", "DIR", "also write report.txt and metrics.jsonl", &out_dir)};
  add_flow_flags(flags, flow, /*with_solver=*/false);
  parse_flags("fourqc explain",
              "usage: fourqc explain [options]\n"
              "Schedule explainability: critical-path lower bounds, bound gaps and stall\n"
              "root-cause attribution, side by side for every scheduler backend.",
              argc, argv, flags);

  obs::Telemetry& tel = obs::global();
  tel.reset();
  std::filesystem::path out_path(out_dir);
  if (!out_dir.empty() && !ensure_out_dir(out_path)) return 2;

  ProgramUnderTest put(program, flow.topt);
  std::vector<std::string> backends = split_csv(backend_list);
  if (backends.empty()) {
    backends = {"seq", "list", "anneal"};
    if (put.loop_mode) backends.push_back("bnb");  // exact search: small blocks only
  }
  check_backends("explain", backends);
  const bool show_gantt = !no_gantt && (gantt || put.loop_mode);
  const sched::CompileOptions& copt = flow.copt;

  // 1. Simulation inputs: fixed operands for the loop body, [k]P over the
  //    default scalar for the full SM.
  SimInputs in;
  if (put.loop_mode) {
    curve::PointR1 q = curve::dbl(curve::to_r1(curve::deterministic_point(31)));
    curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(32)));
    const std::vector<int>& qi = put.body.q_inputs;
    const std::vector<int>& ti = put.body.table_inputs;
    in.bindings = {{qi[0], q.X},   {qi[1], q.Y},   {qi[2], q.Z},  {qi[3], q.Ta}, {qi[4], q.Tb},
                   {ti[0], e.xpy}, {ti[1], e.ymx}, {ti[2], e.z2}, {ti[3], e.dt2}};
  } else {
    in.bind_sm(put.sm, curve::deterministic_point(1), U256::from_hex(kDefaultScalar));
  }

  trace::OpStats ops = trace::count_ops(put.program);
  std::string report;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "== fourqc explain: %s ==\n"
                "program: %d Fp2 muls + %d add/subs (%d compute ops)\n"
                "machine: %d multiplier(s) (latency %d, II %d), %d add/sub (latency %d),"
                " RF %dR/%dW, forwarding %s\n\n",
                put.loop_mode ? "Alg. 1 double-and-add loop body" : "full scalar multiplication",
                ops.muls, ops.addsubs, ops.muls + ops.addsubs, copt.cfg.num_multipliers,
                copt.cfg.mul_latency, copt.cfg.mul_ii, copt.cfg.num_addsubs,
                copt.cfg.addsub_latency, copt.cfg.rf_read_ports, copt.cfg.rf_write_ports,
                copt.cfg.forwarding ? "on" : "off");
  report += buf;

  // 2. Bounds come from the DAG alone — identical for every backend.
  sched::Problem pr = sched::build_problem(put.program, copt.cfg);
  sched::CriticalPathInfo cp = sched::analyze_critical_path(pr);
  const sched::LowerBounds& lb = cp.bounds;
  std::snprintf(buf, sizeof buf,
                "lower bounds (cycles): dep-height %d | mul-issue %d | addsub-issue %d | "
                "rf-port %d (write %d, read %d)\n"
                "tightest bound: %d (%s); %zu of %zu ops on a critical chain\n",
                lb.dep_height, lb.mul_issue, lb.addsub_issue, lb.rf_port(), lb.rf_write_port,
                lb.rf_read_port, lb.tightest(), lb.tightest_name(), cp.critical.size(),
                pr.nodes.size());
  report += buf;
  {
    std::vector<int> chain = cp.chain;
    size_t total = chain.size();
    if (chain.size() > 12) chain.resize(12);
    report += "critical chain: " + sched::describe_chain(pr, chain);
    if (total > chain.size()) report += " -> ... (" + std::to_string(total) + " ops total)";
    report += "\n\n";
  }
  tel.metrics.gauge("explain.bound.dep_height").set(lb.dep_height);
  tel.metrics.gauge("explain.bound.mul_issue").set(lb.mul_issue);
  tel.metrics.gauge("explain.bound.addsub_issue").set(lb.addsub_issue);
  tel.metrics.gauge("explain.bound.rf_port").set(lb.rf_port());
  tel.metrics.gauge("explain.bound.tightest").set(lb.tightest());

  // 3. Schedule, simulate and attribute stalls per backend.
  std::vector<BackendExplain> results;
  std::vector<std::string> gantts;
  int best_makespan = -1;
  bool conserved = for_each_backend(
      "explain", backends, put.program, pr, copt, "",
      [&](const std::string& name, const sched::CompileResult& r) {
        obs::RecordingSink sink;
        asic::SimResult res = asic::simulate(r.sm, in.bindings, in.ctx, &sink);
        asic::StallAttribution attr = asic::attribute_stalls(r.sm, sink.events);
        if (!attr.conservation_ok) {
          std::fprintf(stderr,
                       "fourqc explain: stall conservation check FAILED for %s "
                       "(attributed %d, simulator counted %d)\n",
                       name.c_str(), attr.stalls.total(), res.stats.stall_cycles);
          return false;
        }
        BackendExplain be{name, sched::gap_to_bounds(lb, r.schedule.makespan), res.stats, attr};
        record_explain_metrics(be);
        if (show_gantt)
          gantts.push_back("-- occupancy timeline: " + name + " (" +
                           std::to_string(r.schedule.makespan) + " cycles) --\n" +
                           asic::render_gantt(r.sm, attr));
        results.push_back(std::move(be));
        return true;
      },
      nullptr, &best_makespan);
  if (!conserved) return 1;

  // 4. Side-by-side comparison table.
  std::snprintf(buf, sizeof buf, "%-8s %7s %5s %6s %6s | %5s %6s %6s %6s %8s %s\n", "backend",
                "cycles", "gap", "eff%", "mulU%", "raw", "rfport", "width", "drain", "unforced",
                "sum=stalls");
  report += buf;
  report += std::string(92, '-') + "\n";
  for (const BackendExplain& be : results) {
    const asic::StallBreakdown& s = be.attribution.stalls;
    std::snprintf(buf, sizeof buf, "%-8s %7d %5d %5.1f%% %5.1f%% | %5d %6d %6d %6d %8d %d=%d %s\n",
                  be.name.c_str(), be.gap.makespan, be.gap.gap, 100.0 * be.gap.efficiency,
                  100.0 * be.stats.mul_utilisation(), s.of(asic::StallClass::kRawHazard),
                  s.of(asic::StallClass::kRfPort), s.of(asic::StallClass::kIssueWidth),
                  s.of(asic::StallClass::kDrain), s.of(asic::StallClass::kUnforced), s.total(),
                  be.stats.stall_cycles, be.attribution.conservation_ok ? "ok" : "FAIL");
    report += buf;
  }
  report += "\nstall classes:\n";
  for (int c = 0; c < asic::kNumStallClasses; ++c) {
    auto cls = static_cast<asic::StallClass>(c);
    std::snprintf(buf, sizeof buf, "  %c=%s: %s\n", asic::stall_class_letter(cls),
                  asic::stall_class_name(cls), asic::stall_class_meaning(cls));
    report += buf;
  }
  report += "\n";

  // 5. Loop mode: how much further software pipelining could go (modulo
  //    scheduling analysis, steady-state cycles/iteration).
  if (put.loop_mode) {
    sched::ModuloResult mr = sched::modulo_schedule(pr, put.carried_deps(pr));
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
  if (!put.loop_mode) {
    asic::LoopedSm lsm = asic::build_looped_sm(looped_options(flow, copt.cfg));
    SimInputs lin;
    lin.bind_sm(lsm, curve::deterministic_point(1), U256::from_hex(kDefaultScalar));
    obs::RecordingSink loop_events;
    asic::simulate_looped(lsm, lin.bindings, lin.ctx, &loop_events);
    report += "per-phase occupancy (looped controller):\n";
    std::snprintf(buf, sizeof buf, "%-12s %8s %8s %9s %7s %7s\n", "phase", "cycles", "muls",
                  "add/subs", "mulU%", "stalls");
    report += buf;
    for (const power::PhaseWindow& w : phase_windows(lsm)) {
      asic::SimStats ws =
          asic::stats_in_window(loop_events.events, w.begin_cycle, w.end_cycle);
      std::snprintf(buf, sizeof buf, "%-12s %8d %8d %9d %6.1f%% %7d\n", w.name.c_str(), ws.cycles,
                    ws.mul_issues, ws.addsub_issues, 100.0 * ws.mul_utilisation(),
                    ws.stall_cycles);
      report += buf;
    }
    report += "\n";
  }

  std::printf("%s", report.c_str());
  for (const std::string& g : gantts) std::printf("%s", g.c_str());

  if (!obs::compiled_in())
    std::printf("(note: built with FOURQ_OBS=OFF — registry metrics not recorded)\n");

  if (!out_dir.empty()) {
    std::string full = report;
    for (const std::string& g : gantts) full += g;
    bool ok = write_file(out_path / "report.txt", full) && write_metrics(out_path, flow);
    if (!ok) return 1;
    std::printf("\nfourqc explain: report written to %s\n", out_path.string().c_str());
  }
  return 0;
}

}  // namespace fourq::cli

// fourqc lint — static microcode verification (docs/ANALYSIS.md): lift each
// backend's emitted ROM back to SSA, check equivalence against the traced
// reference, re-derive port/liveness legality, and prove the
// secret-independence certificate. With --ranges, or always with --fleet,
// also prove overflow-freedom of the lazy-reduction datapath. --fleet runs
// the same loop over a MachineConfig grid, one grid point per BatchEngine
// task, e.g. `fourqc lint --program loop --fleet --fleet-grid full`.
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "analysis/lint.hpp"
#include "analysis/range/range.hpp"
#include "engine/batch.hpp"
#include "fourqc/cli.hpp"
#include "obs/obs.hpp"

namespace fourq::cli {

namespace {

namespace range = analysis::range;

// Loop-carried value pairing for the range verifier: the Alg. 1 loop body's
// q-state inputs are fed, positionally, by the previous iteration's outputs
// (the same pairing body_carried_deps uses for the modulo backend).
range::RangeOptions range_options_for(const ProgramUnderTest& put) {
  range::RangeOptions ropt;
  if (put.loop_mode)
    for (size_t i = 0; i < put.body.q_inputs.size() && i < put.program.outputs.size(); ++i)
      ropt.carried.emplace_back(put.body.q_inputs[i], put.program.outputs[i].first);
  return ropt;
}

// The machine grid --fleet sweeps: multiplier pipeline depth x unit count x
// RF porting. "smoke" is the CI leg (paper-like point, deeper pipeline, wide
// 2-issue machine); "full" is the DSE gate.
std::vector<sched::MachineConfig> fleet_grid(const sched::MachineConfig& base, bool full) {
  std::vector<sched::MachineConfig> grid;
  auto add = [&](int mul_latency, int units, int read_ports, int write_ports) {
    sched::MachineConfig& cfg = grid.emplace_back(base);
    cfg.mul_latency = mul_latency;
    cfg.num_multipliers = cfg.num_addsubs = units;
    cfg.rf_read_ports = read_ports;
    cfg.rf_write_ports = write_ports;
  };
  if (!full) {
    add(3, 1, 4, 2);
    add(4, 1, 4, 2);
    add(3, 2, 6, 3);
    return grid;
  }
  for (int ml : {2, 3, 4})
    for (int units : {1, 2}) {
      add(ml, units, 4, 2);
      add(ml, units, 6, 3);
    }
  return grid;
}

// One grid point's reports, with the range certificates of its looped
// segments (a deque, so the certificate entries keep stable addresses).
struct PointReports {
  std::vector<analysis::LintedProgram> linted;
  std::deque<range::ProgramRanges> segment_ranges;
  std::vector<range::CertEntry> cert;
  double ranges_ms = 0;
};

}  // namespace

int run_lint(int argc, char** argv) {
  Flow flow;
  std::string program = "loop", backend_list, out_dir, grid_name = "smoke";
  bool json = false, ranges = false, fleet = false;
  int fleet_workers = 0;

  std::vector<Flag> flags = {
      choice_flag("--program", "loop|sm", "Alg. 1 loop body (default) or full SM", &program),
      text_flag("--backends", "a,b,...",
                "subset of seq,list,anneal,bnb plus modulo (loop) / looped (sm)", &backend_list),
      switch_flag("--json", "fourq.lint.v1 JSON on stdout", &json),
      text_flag("--out", "DIR", "write lint.json, lint.txt, metrics.jsonl (+ ranges.json)",
                &out_dir),
      switch_flag("--ranges", "range proofs: overflow-freedom of the lazy-reduction datapath",
                  &ranges),
      switch_flag("--fleet", "sweep backends x a MachineConfig grid (ranges always on)", &fleet),
      choice_flag("--fleet-grid", "smoke|full", "3-point CI grid (default) or 12-point DSE gate",
                  &grid_name),
      int_flag("--fleet-workers", "fleet pool size (0 = hw concurrency)", &fleet_workers, 0,
               kMaxThreads)};
  add_flow_flags(flags, flow, /*with_solver=*/false);
  Args args = parse_flags("fourqc lint",
                          "usage: fourqc lint [options]\n"
                          "Static microcode verification without simulation: ROM-to-SSA\n"
                          "lifting + equivalence vs the traced program, liveness and port\n"
                          "legality, and the secret-independence (constant-time) certificate.\n"
                          "Exits 1 on any error-severity finding.",
                          argc, argv, flags);
  args.needs("--fleet-grid", "--fleet");
  args.needs("--fleet-workers", "--fleet");
  if (fleet) {
    for (const char* f :
         {"--mul-latency", "--multipliers", "--addsubs", "--read-ports", "--write-ports"})
      args.reject(f, "with --fleet: its grid sets the machine shape");
    ranges = true;
  }

  obs::Telemetry& tel = obs::global();
  tel.reset();
  std::filesystem::path out_path(out_dir);
  if (!out_dir.empty() && !ensure_out_dir(out_path)) return 2;

  ProgramUnderTest put(program, flow.topt);
  std::vector<std::string> backends = split_csv(backend_list);
  if (backends.empty()) {
    backends = {"seq", "list", "anneal"};
    if (put.loop_mode) {
      backends.push_back("bnb");     // exact search: small blocks only
      backends.push_back("modulo");  // steady-state kernel re-validation
    } else if (!fleet) {
      // The blocked controller's segments. The fleet sweeps the flat
      // schedulers; the microcode-lint CI leg covers the segments.
      backends.push_back("looped");
    }
  }
  for (const std::string& name : backends)
    if (name == (put.loop_mode ? "looped" : "modulo")) {
      std::fprintf(stderr, "fourqc lint: the %s backend applies to --program %s only\n",
                   name.c_str(), put.loop_mode ? "sm" : "loop");
      return 2;
    }
  check_backends("lint", backends, {"modulo", "looped"});

  const std::vector<sched::MachineConfig> grid =
      fleet ? fleet_grid(flow.copt.cfg, grid_name == "full")
            : std::vector<sched::MachineConfig>{flow.copt.cfg};
  auto start = std::chrono::steady_clock::now();

  // The DAG-side proof is backend- and machine-independent: it runs once,
  // and covers every ROM that lint proves equivalent (range::cover_rom).
  const range::RangeOptions ropt = range_options_for(put);
  analysis::LintReport dag_rep;
  range::ProgramRanges dag_ranges;
  double dag_ms = 0;
  if (ranges) {
    dag_ranges = range::analyze_program(put.program, ropt, dag_rep);
    range::check_certificate(dag_ranges, ropt, dag_rep);
    dag_ms = ms_since(start);
  }

  // Each grid point fills only its own slot; metrics are recorded serially
  // below (the obs registry is shared).
  std::vector<PointReports> per_point(grid.size());
  auto lint_point = [&](size_t gi) {
    const sched::MachineConfig& cfg = grid[gi];
    PointReports& out = per_point[gi];
    const std::string tag =
        fleet ? "@ml" + std::to_string(cfg.mul_latency) + "m" +
                    std::to_string(cfg.num_multipliers) + "r" +
                    std::to_string(cfg.rf_read_ports) + "w" + std::to_string(cfg.rf_write_ports)
              : "";
    sched::CompileOptions copt = flow.copt;
    copt.cfg = cfg;
    sched::Problem pr = sched::build_problem(put.program, cfg);
    // Each controller segment is its own program: its DAG proof and replay
    // check land in the segment's report, and the proof covers the ROM.
    auto segment = [&](const std::string& label, const sched::CompiledSm& ssm,
                       const trace::Program& sp) {
      analysis::LintReport rep = analysis::lint_rom(ssm, sp);
      if (ranges) {
        auto t0 = std::chrono::steady_clock::now();
        range::RangeOptions seg_opt;
        out.segment_ranges.push_back(range::analyze_program(sp, seg_opt, rep));
        range::check_certificate(out.segment_ranges.back(), seg_opt, rep);
        out.ranges_ms += ms_since(t0);
        range::cover_rom(out.segment_ranges.back(), rep);
        out.cert.push_back({label + "/ranges", &out.segment_ranges.back()});
      }
      out.linted.push_back({label, std::move(rep)});
    };
    for_each_backend(
        "lint", backends, put.program, pr, copt, tag,
        [&](const std::string& name, const sched::CompileResult& r) {
          analysis::LintReport rep = analysis::lint_rom(r.sm, put.program);
          if (ranges) range::cover_rom(dag_ranges, rep);
          out.linted.push_back({program + "/" + name + tag, std::move(rep)});
          return true;
        },
        [&](const std::string& name) {
          if (name == "modulo") {
            // No ROM is emitted for the modulo kernel; range coverage for
            // this backend is the DAG-side "<program>/ranges" entry.
            out.linted.push_back(
                {program + "/modulo" + tag, analysis::lint_modulo(pr, put.carried_deps(pr))});
          } else {
            asic::LoopedSm lsm = asic::build_looped_sm(looped_options(flow, cfg));
            segment("looped/prologue" + tag, lsm.prologue, lsm.prologue_program);
            segment("looped/body" + tag, lsm.body, lsm.body_program);
            segment("looped/epilogue" + tag, lsm.epilogue, lsm.epilogue_program);
          }
          return true;
        });
  };
  if (fleet) {
    engine::EngineOptions eng_opt;
    unsigned hw = std::thread::hardware_concurrency();
    eng_opt.workers = fleet_workers > 0 ? fleet_workers : static_cast<int>(hw ? hw : 1);
    engine::BatchEngine(eng_opt).parallel_for(grid.size(), lint_point);
  } else {
    lint_point(0);
  }

  std::vector<analysis::LintedProgram> linted;
  std::vector<range::CertEntry> cert;
  if (ranges) {
    linted.push_back({program + "/ranges", std::move(dag_rep)});
    cert.push_back({program + "/ranges", &dag_ranges});
  }
  for (PointReports& p : per_point) {
    for (analysis::LintedProgram& l : p.linted) linted.push_back(std::move(l));
    cert.insert(cert.end(), p.cert.begin(), p.cert.end());
  }
  for (const analysis::LintedProgram& p : linted) analysis::record_lint_metrics(p.label, p.report);
  if (fleet) {
    tel.metrics.gauge("lint.fleet.total_ms").set(static_cast<int64_t>(ms_since(start)));
    tel.metrics.gauge("lint.fleet.configs").set(static_cast<int64_t>(grid.size()));
  } else if (ranges) {
    tel.metrics.gauge("lint.ranges.total_ms")
        .set(static_cast<int64_t>(dag_ms + per_point[0].ranges_ms));
  }

  int errors = 0, warnings = 0, proven = 0, checked = 0;
  for (const analysis::LintedProgram& p : linted) {
    errors += p.report.errors();
    warnings += p.report.warnings();
    if (p.report.ranges_checked) {
      ++checked;
      proven += p.report.ranges_proven ? 1 : 0;
    }
  }
  const std::string lint_json = analysis::lint_json(linted);
  const std::string text = analysis::lint_text(linted);
  if (json) {
    std::printf("%s\n", lint_json.c_str());
  } else {
    std::printf("%s", text.c_str());
    if (fleet)
      std::printf(
          "\nfourqc lint --fleet: %zu config(s) x %zu backend(s), %zu report(s), "
          "%d/%d range-checked proven, %d error(s), %d warning(s) -> %s\n",
          grid.size(), backends.size(), linted.size(), proven, checked, errors, warnings,
          errors ? "FAIL" : "CLEAN");
    else
      std::printf("\nfourqc lint: %zu program(s), %d error(s), %d warning(s) -> %s\n",
                  linted.size(), errors, warnings, errors ? "FAIL" : "CLEAN");
  }

  if (!out_dir.empty()) {
    bool ok = write_file(out_path / "lint.json", lint_json + "\n") &&
              write_file(out_path / "lint.txt", text) && write_metrics(out_path, flow);
    if (ok && ranges)
      ok = write_file(out_path / "ranges.json", range::ranges_json(cert) + "\n");
    if (!ok) return 2;
    if (!json)
      std::printf("fourqc lint: %sreport written to %s\n", fleet ? "fleet " : "",
                  out_path.string().c_str());
  }
  return errors ? 1 : 0;
}

}  // namespace fourq::cli

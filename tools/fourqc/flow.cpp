// fourqc (no subcommand) — the design flow: trace the SM program, schedule
// it, emit the control ROM (or build the looped controller), optionally
// simulate/verify, disassemble, save the ROM image, and report silicon
// projections, e.g. `fourqc --variant functional --verify 1f2e3d4c --report`.
#include <cstdio>
#include <optional>
#include <sstream>

#include "asic/romfile.hpp"
#include "curve/scalarmul.hpp"
#include "fourqc/cli.hpp"
#include "power/area.hpp"
#include "power/sotb65.hpp"

namespace fourq::cli {

int run_flow(int argc, char** argv) {
  Flow flow;
  bool looped = false, report = false;
  U256 verify_k;
  int disasm[2] = {-1, 0};
  std::string save_path;

  std::vector<Flag> flags = {
      switch_flag("--looped", "blocked/looped controller instead of flat ROM", &looped),
      hex_flag("--verify", "simulate [k]P and check vs software", &verify_k),
      {"--disasm", "FROM COUNT", "print a ROM listing range",
       [&](char** v) {
         disasm[0] = static_cast<int>(flag_value("--disasm", v[0], 0, kMaxInt));
         disasm[1] = static_cast<int>(flag_value("--disasm", v[1], 1, kMaxInt));
         return true;
       }},
      text_flag("--save-rom", "FILE", "write the ROM image", &save_path),
      switch_flag("--report", "print cycle/area/power report", &report)};
  add_flow_flags(flags, flow);
  Args args = parse_flags(
      "fourqc",
      "usage: fourqc [profile|explain|lint|batch|stats|perf] [options]\n"
      "(`fourqc COMMAND --help` lists a subcommand's options)\n\n"
      "Without a subcommand: trace, schedule and emit the SM control ROM.\n"
      "(latency, interval, ports and units: 1..64)",
      argc, argv, flags);
  if (looped)
    args.only({"--looped", "--variant", "--mul-latency", "--no-forwarding", "--verify",
               "--disasm", "--report"},
              "--looped");

  // The controller under test: the looped one, or the flat ROM of the
  // scheduled trace. --verify, --disasm and --report read whichever it is.
  std::optional<asic::LoopedSm> lsm;
  trace::SmTrace sm;
  sched::CompileResult r;
  if (looped) {
    std::printf("fourqc: building blocked/looped controller (%s variant)...\n",
                flow.variant_name());
    lsm = asic::build_looped_sm(looped_options(flow, flow.copt.cfg));
    std::printf("  prologue %d + %d x body %d + epilogue %d = %d cycles/SM\n",
                lsm->prologue.cycles(), lsm->iterations, lsm->body.cycles(),
                lsm->epilogue.cycles(), lsm->total_cycles());
    std::printf("  ROM: %d words (vs %d for the flat controller's unrolled program)\n",
                lsm->rom_words(), lsm->total_cycles());
  } else {
    std::printf("fourqc: tracing SM program (%s variant)...\n", flow.variant_name());
    sm = trace::build_sm_trace(flow.topt);
    trace::OpStats ops = trace::count_ops(sm.program);
    std::printf("  %d muls + %d add/subs (%.1f%% muls)\n", ops.muls, ops.addsubs,
                100.0 * ops.mul_fraction());
    std::printf("fourqc: scheduling...\n");
    r = sched::compile_program(sm.program, flow.copt);
    std::printf("  makespan %d cycles, register pressure %d/%d\n", r.schedule.makespan,
                r.register_pressure, flow.copt.cfg.rf_size);
  }

  if (args.has("--verify")) {
    curve::Affine p = curve::deterministic_point(1);
    SimInputs in;
    asic::SimResult res;
    bool ok = true;
    if (lsm) {
      in.bind_sm(*lsm, p, verify_k);
      res = asic::simulate_looped(*lsm, in.bindings, in.ctx);
    } else {
      in.bind_sm(sm, p, verify_k);
      res = asic::simulate(r.sm, in.bindings, in.ctx);
      for (const auto& [name, v] : trace::evaluate(sm.program, in.bindings, in.ctx))
        ok = ok && res.outputs.at(name) == v;
    }
    if (flow.topt.endo == trace::EndoVariant::kFunctional && flow.topt.include_inversion) {
      curve::Affine expect = curve::to_affine(curve::scalar_mul(verify_k, p));
      ok = ok && res.outputs.at("x") == expect.x && res.outputs.at("y") == expect.y;
      std::printf("fourqc: verify vs curve-level [k]P: %s\n", ok ? "MATCH" : "MISMATCH");
    } else if (lsm) {
      std::printf("fourqc: simulated %d cycles (paper-cost variant, no curve check)\n",
                  res.stats.cycles);
    } else {
      std::printf("fourqc: verify vs trace interpreter: %s\n", ok ? "MATCH" : "MISMATCH");
    }
    if (!ok) return 1;
  }

  if (disasm[0] >= 0)
    std::printf("%s%s", lsm ? "-- body segment --\n" : "",
                asic::disassemble(lsm ? lsm->body : r.sm, disasm[0], disasm[1]).c_str());

  if (!save_path.empty()) {
    std::ostringstream out;
    asic::save_rom(r.sm, out);
    if (!write_file(save_path, out.str())) return 1;
    std::printf("fourqc: ROM image written to %s\n", save_path.c_str());
  }

  if (report) {
    if (!lsm) {
      asic::RomStats rs = asic::rom_stats(r.sm);
      power::AreaOptions aopt;
      aopt.cfg = flow.copt.cfg;
      aopt.rom_words = rs.words;
      aopt.ctrl_word_bits = rs.word_bits;
      power::AreaBreakdown area = power::estimate_area(aopt);
      std::printf("\nreport:\n");
      std::printf("  ROM: %d words x %d bits = %.1f kbit\n", rs.words, rs.word_bits,
                  rs.total_kbits);
      std::printf("  area: %.0f kGE (multiplier %.0f, RF %.0f, ROM %.0f)\n", area.total_kge(),
                  area.fp2_multiplier_kge, area.register_file_kge, area.rom_kge);
    }
    power::Sotb65Model chip(lsm ? lsm->total_cycles() : r.sm.cycles());
    for (double v : {1.20, 0.32}) {
      auto op = chip.at(v);
      std::printf("  @%.2f V: fmax %.1f MHz, %.2f us/SM, %.3f uJ/SM\n", v, op.fmax_mhz,
                  op.latency_us, op.energy_uj);
    }
  }
  return 0;
}

}  // namespace fourq::cli

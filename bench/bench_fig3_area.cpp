// Experiment E4 — paper Fig. 3: chip complexity. The microphotograph itself
// cannot be reproduced in software; its quantitative content — the SM unit's
// 1400 kGE complexity — is reproduced as a per-block gate-equivalent
// breakdown from the area accounting model.
#include <cstdio>

#include "asic/romfile.hpp"
#include "bench_util.hpp"
#include "power/area.hpp"

int main(int argc, char** argv) {
  using namespace fourq;
  bench::parse_bench_args(argc, argv);
  bench::print_header("E4 / Fig. 3 — SM unit complexity breakdown (kGE, 2-input NAND eq.)");

  // ROM depth and word width from the compiled program, as `fourqc
  // --report` prices it.
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  sched::CompileResult r = sched::compile_program(trace::build_sm_trace(topt).program, {});
  const asic::RomStats rs = asic::rom_stats(r.sm);

  power::AreaOptions opt;
  opt.rom_words = rs.words;
  opt.ctrl_word_bits = rs.word_bits;
  power::AreaBreakdown a = power::estimate_area(opt);

  std::printf("%-44s %10s\n", "Block", "kGE");
  bench::print_rule(56);
  std::printf("%-44s %10.0f\n", "Fp2 Karatsuba multiplier (3 Fp cores, pipelined)",
              a.fp2_multiplier_kge);
  std::printf("%-44s %10.0f\n", "Fp2 adder/subtractor", a.fp2_addsub_kge);
  std::printf("%-44s %10.0f\n", "Register file (64 x 256 b, 4R/2W)", a.register_file_kge);
  std::string rom_label = "Program ROM (" + std::to_string(opt.rom_words) + " words x " +
                          std::to_string(opt.ctrl_word_bits) + " b)";
  std::printf("%-44s %10.0f\n", rom_label.c_str(), a.rom_kge);
  std::printf("%-44s %10.0f\n", "FSM sequencer + host interface", a.sequencer_kge);
  std::printf("%-44s %10.0f\n", "Layout overhead (utilisation)", a.other_kge);
  bench::print_rule(56);
  std::printf("%-44s %10.0f\n", "Total (model)", a.total_kge());
  std::printf("%-44s %10.0f\n", "Total (paper, Fig. 3)", power::kPaperTotalKge);
  std::printf("\nPaper: SM unit occupies 1.76 mm x 3.56 mm of a 3.1 mm x 6.1 mm die\n"
              "in a 65 nm SOTB process (~1400 kGE).\n");
  return 0;
}

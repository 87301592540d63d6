// Extension experiment — throughput scheduling: interleaving two
// independent scalar multiplications in one globally scheduled program
// fills the idle multiplier slots (single-stream utilisation ~64%), an
// alternative to the multi-core replication used by the FPGA rows of
// Table II. Costs: a larger register file (two working sets + two tables);
// no second datapath.
//
// The single-stream program comes from the engine's CompileCache: with
// $FOURQ_ROM_CACHE_DIR set its solved ROM persists, so re-runs of this bench
// skip its scheduler solve (its compile time below drops to the ROM-load
// cost). The cache keys only the single-SM program the engine runs, so the
// dual-stream program is compiled directly, as test_dual_stream does.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "engine/cache.hpp"
#include "power/area.hpp"
#include "power/sotb65.hpp"

int main(int argc, char** argv) {
  using namespace fourq;
  bench::parse_bench_args(argc, argv);

  bench::print_header("Extension — dual-stream throughput scheduling vs replication");

  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;

  engine::CompileCache& cache = engine::CompileCache::process_cache();

  engine::CompileKey single_key;
  single_key.trace = topt;

  sched::CompileOptions dual_opt;
  dual_opt.cfg.rf_size = 128;  // two working sets and two tables

  auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const engine::CompiledProgram> single = cache.get_or_compile(single_key);
  auto t1 = std::chrono::steady_clock::now();
  const sched::CompiledSm dual =
      sched::compile_program(trace::build_dual_sm_trace(topt).program, dual_opt).sm;
  auto t2 = std::chrono::steady_clock::now();
  double single_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  double dual_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();

  power::AreaOptions a_single;
  a_single.rom_words = single->sm.cycles();
  power::AreaOptions a_dual;
  a_dual.cfg = dual_opt.cfg;
  a_dual.rom_words = dual.cycles();
  double kge_single = power::estimate_area(a_single).total_kge();
  double kge_dual = power::estimate_area(a_dual).total_kge();
  double kge_twocore = 2 * kge_single;

  power::Sotb65Model chip_single(single->sm.cycles());
  double f_mhz = chip_single.fmax_mhz(1.20);

  auto row = [&](const char* name, double cycles_per_sm, double kge, int parallel) {
    double ops = parallel * f_mhz * 1e6 / cycles_per_sm;
    std::printf("%-30s %14.0f %12.0f %14.0f %16.2f\n", name, cycles_per_sm, kge, ops,
                ops / kge);
  };

  std::printf("%-30s %14s %12s %14s %16s\n", "Organisation", "cycles/SM", "kGE",
              "SM/s @1.2V", "SM/s per kGE");
  bench::print_rule(92);
  row("1 core, single stream", single->sm.cycles(), kge_single, 1);
  row("1 core, dual stream", dual.cycles() / 2.0, kge_dual, 1);
  row("2 replicated cores", single->sm.cycles(), kge_twocore, 2);

  std::printf("\nRF slots used: single %d, dual %d (of %d)\n", single->sm.rf_slots,
              dual.rf_slots, dual_opt.cfg.rf_size);

  engine::CompileCache::Stats cs = cache.stats();
  std::printf("Program acquisition: single %.2f ms%s, dual %.2f ms\n", single_ms,
              single->loaded_from_disk ? " (ROM cache)" : "", dual_ms);

  bench::JsonRecorder rec("throughput");
  rec.record("single.cycles_per_sm", single->sm.cycles(), "cycles");
  rec.record("dual.cycles_per_sm", dual.cycles() / 2.0, "cycles");
  rec.record("single.kge", kge_single, "kGE");
  rec.record("dual.kge", kge_dual, "kGE");
  rec.record("single.sm_per_s", f_mhz * 1e6 / single->sm.cycles(), "SM/s");
  rec.record("dual.sm_per_s", f_mhz * 1e6 / (dual.cycles() / 2.0), "SM/s");
  rec.record("single.rf_slots", single->sm.rf_slots);
  rec.record("dual.rf_slots", dual.rf_slots);
  rec.record("compile.single_ms", single_ms, "ms");
  rec.record("compile.dual_ms", dual_ms, "ms");
  rec.record("compile.solves", static_cast<double>(cs.misses + 1));  // + the dual solve
  std::printf(
      "\nDual-stream scheduling raises throughput per area over replication: the\n"
      "second stream reuses the same multiplier during dependence stalls of the\n"
      "first, paying only a doubled register file instead of a whole datapath.\n"
      "(Latency per individual SM lengthens — the classic throughput/latency trade.)\n");
  return 0;
}

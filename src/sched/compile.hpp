// End-to-end compilation pipeline: traced program -> scheduling problem ->
// schedule (selected solver) -> validation -> register allocation ->
// microcode ROM. This is the paper's automated design flow (§III-C) in one
// call.
#pragma once

#include "sched/anneal.hpp"
#include "sched/bnb.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/microcode.hpp"

namespace fourq::sched {

enum class Solver {
  kSequential,  // no-ILP baseline
  kList,        // critical-path list scheduling (default)
  kAnneal,      // list + simulated-annealing refinement
  kBnb,         // exact branch & bound (small programs only)
};

struct CompileOptions {
  MachineConfig cfg;
  Solver solver = Solver::kList;
  AnnealOptions anneal;
  BnbOptions bnb;
};

struct CompileResult {
  Problem problem;
  Schedule schedule;
  Allocation alloc;
  CompiledSm sm;
  int register_pressure = 0;
};

CompileResult compile_program(const trace::Program& p, const CompileOptions& opt = {});

// Variant for the blocked/looped controller: block inputs/outputs live in
// architecturally fixed register-file slots shared across segments
// (PinSpec), temporaries above spec.temp_base. opt.cfg.rf_size is not
// checked: the result's sm.rf_slots is the size the block needs.
CompileResult compile_block(const trace::Program& p, const CompileOptions& opt,
                            const PinSpec& spec);

}  // namespace fourq::sched

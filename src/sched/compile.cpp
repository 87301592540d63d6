#include "sched/compile.hpp"

#include "obs/obs.hpp"
#include "sched/validate.hpp"

namespace fourq::sched {

namespace {

Schedule run_solver(const Problem& pr, const CompileOptions& opt) {
  FOURQ_SPAN("sched.solve");
  switch (opt.solver) {
    case Solver::kSequential:
      return sequential_schedule(pr);
    case Solver::kList:
      return list_schedule(pr);
    case Solver::kAnneal:
      return anneal_schedule(pr, opt.anneal).schedule;
    case Solver::kBnb:
      return branch_and_bound(pr, opt.bnb).schedule;
  }
  return list_schedule(pr);
}

// Shared stage pipeline: the flat controller checks its register file's
// size, the looped controller's segments pin their shared slots.
CompileResult compile_stages(const trace::Program& p, const CompileOptions& opt,
                             std::optional<int> capacity, const PinSpec& spec) {
  FOURQ_SPAN("sched.compile");
  CompileResult res;
  {
    FOURQ_SPAN("sched.extract_dag");
    res.problem = build_problem(p, opt.cfg);
  }
  res.schedule = run_solver(res.problem, opt);
  {
    FOURQ_SPAN("sched.validate");
    require_valid(res.problem, res.schedule);
  }
  res.register_pressure = register_pressure(res.problem, res.schedule);
  {
    FOURQ_SPAN("sched.regalloc");
    res.alloc = allocate_registers(res.problem, res.schedule, capacity, spec);
  }
  {
    FOURQ_SPAN("sched.emit_microcode");
    res.sm = emit_microcode(res.problem, res.schedule, res.alloc);
  }
  FOURQ_COUNTER_INC("sched.compiles");
  FOURQ_GAUGE_SET("sched.makespan", res.schedule.makespan);
  FOURQ_GAUGE_SET("sched.register_pressure", res.register_pressure);
  return res;
}

}  // namespace

CompileResult compile_program(const trace::Program& p, const CompileOptions& opt) {
  return compile_stages(p, opt, opt.cfg.rf_size, {});
}

CompileResult compile_block(const trace::Program& p, const CompileOptions& opt,
                            const PinSpec& spec) {
  return compile_stages(p, opt, std::nullopt, spec);
}

}  // namespace fourq::sched

// Scheduler tests: problem extraction, the three solvers, the independent
// validator, and register allocation (paper §III-C step 3).
#include "sched/compile.hpp"

#include <gtest/gtest.h>

#include "sched/validate.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::sched {
namespace {

trace::LoopBodyTrace body() { return trace::build_loop_body_trace(); }

TEST(Problem, LoopBodyShape) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  EXPECT_EQ(pr.nodes.size(), 27u);  // 15 muls + 12 add/subs
  EXPECT_GT(pr.critical_path(), 0);
  // Heights are monotone along dependencies.
  for (size_t i = 0; i < pr.nodes.size(); ++i)
    for (int c : pr.consumers[i]) EXPECT_GT(pr.height[i], pr.height[static_cast<size_t>(c)] - 100);
}

TEST(Scheduler, SequentialMatchesClosedForm) {
  auto b = body();
  MachineConfig cfg;
  Problem pr = build_problem(b.program, cfg);
  Schedule s = sequential_schedule(pr);
  require_valid(pr, s);
  // 15 muls * (Lm+1) + 12 addsubs * (La+1); fully serial.
  EXPECT_EQ(s.makespan, 15 * (cfg.mul_latency + 1) + 12 * (cfg.addsub_latency + 1));
}

TEST(Scheduler, ListBeatsSequential) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  Schedule seq = sequential_schedule(pr);
  Schedule lst = list_schedule(pr);
  require_valid(pr, lst);
  EXPECT_LT(lst.makespan, seq.makespan);
  EXPECT_GE(lst.makespan, pr.critical_path() + 1);
}

TEST(Scheduler, MobilityPriorityAlsoValid) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  ListOptions lo;
  lo.priority = ListOptions::Priority::kMobility;
  Schedule s = list_schedule(pr, lo);
  require_valid(pr, s);
  // Heuristics differ but both stay near the critical path.
  Schedule cp = list_schedule(pr);
  EXPECT_LE(s.makespan, cp.makespan + 8);
  EXPECT_GE(s.makespan, pr.critical_path() + 1);
}

TEST(Problem, AsapMobilityConsistent) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  for (size_t i = 0; i < pr.nodes.size(); ++i) {
    EXPECT_GE(pr.mobility(static_cast<int>(i)), 0) << i;
    // asap + height <= critical path by definition.
    EXPECT_LE(pr.asap[i] + pr.height[i], pr.critical_path());
  }
  // At least one node is on the critical path (mobility 0).
  bool any_critical = false;
  for (size_t i = 0; i < pr.nodes.size(); ++i)
    if (pr.mobility(static_cast<int>(i)) == 0) any_critical = true;
  EXPECT_TRUE(any_critical);
}

TEST(Scheduler, AnnealNeverWorseThanList) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  AnnealOptions ao;
  ao.iterations = 300;
  AnnealResult ar = anneal_schedule(pr, ao);
  EXPECT_LE(ar.schedule.makespan, ar.initial_makespan);
  require_valid(pr, ar.schedule);
}

TEST(Scheduler, BnbOptimalOnLoopBody) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  BnbOptions bo;
  bo.node_limit = 2'000'000;
  BnbResult br = branch_and_bound(pr, bo);
  require_valid(pr, br.schedule);
  Schedule lst = list_schedule(pr);
  EXPECT_LE(br.schedule.makespan, lst.makespan);
  if (br.proven_optimal) {
    // The optimum can never beat the resource/critical-path lower bounds.
    EXPECT_GE(br.schedule.makespan, pr.critical_path() + 1);
    EXPECT_GE(br.schedule.makespan, 15 - 1 + 3 + 1);  // 15 muls, II=1, Lm=3
  }
}

TEST(Scheduler, ForwardingHelps) {
  auto b = body();
  MachineConfig with;
  MachineConfig without;
  without.forwarding = false;
  Schedule s1 = list_schedule(build_problem(b.program, with));
  Schedule s2 = list_schedule(build_problem(b.program, without));
  EXPECT_LE(s1.makespan, s2.makespan);
}

TEST(Scheduler, TightReadPortsStillValid) {
  auto b = body();
  MachineConfig cfg;
  cfg.rf_read_ports = 2;
  Problem pr = build_problem(b.program, cfg);
  Schedule s = list_schedule(pr);
  require_valid(pr, s);
  MachineConfig wide;
  Schedule sw = list_schedule(build_problem(b.program, wide));
  EXPECT_GE(s.makespan, sw.makespan);
}

TEST(Scheduler, SingleWritePortStillValid) {
  auto b = body();
  MachineConfig cfg;
  cfg.rf_write_ports = 1;
  Problem pr = build_problem(b.program, cfg);
  Schedule s = list_schedule(pr);
  require_valid(pr, s);
}

TEST(Scheduler, DeeperPipelineLengthensSchedule) {
  auto b = body();
  MachineConfig shallow, deep;
  shallow.mul_latency = 1;
  deep.mul_latency = 8;
  Schedule s1 = list_schedule(build_problem(b.program, shallow));
  Schedule s2 = list_schedule(build_problem(b.program, deep));
  EXPECT_LT(s1.makespan, s2.makespan);
}

TEST(Validator, CatchesLatencyViolation) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  Schedule s = list_schedule(pr);
  // Pull the last node to cycle 0: must violate something.
  s.cycle.back() = 0;
  s.makespan = makespan_of(pr, s.cycle);
  EXPECT_FALSE(check_schedule(pr, s).ok());
}

TEST(Validator, CatchesUnitConflict) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  Schedule s = list_schedule(pr);
  // Find two muls and force them onto the same cycle.
  int first = -1;
  for (size_t i = 0; i < pr.nodes.size(); ++i) {
    if (pr.nodes[i].kind != trace::OpKind::kMul) continue;
    if (first < 0) {
      first = static_cast<int>(i);
    } else {
      s.cycle[i] = s.cycle[static_cast<size_t>(first)];
      break;
    }
  }
  s.makespan = makespan_of(pr, s.cycle);
  auto rep = check_schedule(pr, s);
  EXPECT_FALSE(rep.ok());
}

TEST(Validator, AcceptsAllSolvers) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  EXPECT_TRUE(check_schedule(pr, sequential_schedule(pr)).ok());
  EXPECT_TRUE(check_schedule(pr, list_schedule(pr)).ok());
}

TEST(RegAlloc, NoOverlappingLifetimesShareASlot) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  Schedule s = list_schedule(pr);
  Allocation a = allocate_registers(pr, s, pr.cfg.rf_size);
  // Brute-force overlap check: for every pair sharing a slot, their
  // [write, last-read] windows must not overlap.
  const trace::Program& p = b.program;
  std::vector<int> issue(p.ops.size(), -1);
  for (size_t i = 0; i < pr.nodes.size(); ++i) issue[static_cast<size_t>(pr.nodes[i].op_id)] = s.cycle[i];
  auto window = [&](int op) {
    int st = p.ops[static_cast<size_t>(op)].kind == trace::OpKind::kInput
                 ? 0
                 : issue[static_cast<size_t>(op)] + latency(pr.cfg, p.ops[static_cast<size_t>(op)].kind);
    int en = st;
    for (size_t ni = 0; ni < pr.nodes.size(); ++ni)
      for (const OperandReq& req : pr.nodes[ni].operands)
        for (int prod : req.producers)
          if (prod == op) en = std::max(en, s.cycle[ni]);
    for (const auto& [id, nm] : p.outputs)
      if (id == op) en = std::max(en, s.makespan);
    return std::make_pair(st, en);
  };
  for (size_t i = 0; i < p.ops.size(); ++i) {
    for (size_t j = i + 1; j < p.ops.size(); ++j) {
      int si = a.slot(static_cast<int>(i)), sj = a.slot(static_cast<int>(j));
      if (si < 0 || si != sj) continue;
      auto [s1, e1] = window(static_cast<int>(i));
      auto [s2, e2] = window(static_cast<int>(j));
      bool disjoint = e1 < s2 || e2 < s1;
      EXPECT_TRUE(disjoint) << "ops " << i << "," << j << " share slot " << si;
    }
  }
}

TEST(RegAlloc, LoopBodyFitsComfortably) {
  auto b = body();
  Problem pr = build_problem(b.program, MachineConfig{});
  Schedule s = list_schedule(pr);
  int pressure = register_pressure(pr, s);
  EXPECT_LE(pressure, 24);  // 9 inputs + ~12 temps
  EXPECT_GE(pressure, 9);
}

TEST(RegAlloc, RejectsTooSmallFile) {
  auto b = body();
  MachineConfig cfg;
  cfg.rf_size = 4;
  Problem pr = build_problem(b.program, cfg);
  Schedule s = list_schedule(pr);
  EXPECT_THROW(allocate_registers(pr, s, pr.cfg.rf_size), std::logic_error);
}

TEST(Microcode, RomLengthEqualsMakespan) {
  auto b = body();
  CompileResult r = compile_program(b.program, {});
  EXPECT_EQ(r.sm.cycles(), r.schedule.makespan);
  EXPECT_EQ(r.sm.preload.size(), 9u);
  EXPECT_EQ(r.sm.outputs.size(), 5u);
}

TEST(Scheduler, SecondMultiplierShortensSchedule) {
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  trace::SmTrace sm = trace::build_sm_trace(topt);
  MachineConfig one, two;
  two.num_multipliers = 2;
  two.rf_read_ports = 6;  // feed the second multiplier
  two.rf_write_ports = 3;
  Problem pr1 = build_problem(sm.program, one);
  Problem pr2 = build_problem(sm.program, two);
  Schedule s1 = list_schedule(pr1);
  Schedule s2 = list_schedule(pr2);
  require_valid(pr2, s2);
  EXPECT_LT(s2.makespan, s1.makespan);
}

TEST(Scheduler, DualUnitsRespectCapacity) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  MachineConfig cfg;
  cfg.num_multipliers = 2;
  cfg.num_addsubs = 2;
  cfg.rf_read_ports = 8;
  cfg.rf_write_ports = 4;
  Problem pr = build_problem(body.program, cfg);
  Schedule s = list_schedule(pr);
  require_valid(pr, s);
  // Force a third issue onto a cycle that already has two muls: invalid.
  std::vector<int> muls;
  for (size_t i = 0; i < pr.nodes.size(); ++i)
    if (pr.nodes[i].kind == trace::OpKind::kMul) muls.push_back(static_cast<int>(i));
  ASSERT_GE(muls.size(), 3u);
  Schedule bad = s;
  bad.cycle[static_cast<size_t>(muls[1])] = bad.cycle[static_cast<size_t>(muls[0])];
  bad.cycle[static_cast<size_t>(muls[2])] = bad.cycle[static_cast<size_t>(muls[0])];
  bad.makespan = makespan_of(pr, bad.cycle);
  EXPECT_FALSE(check_schedule(pr, bad).ok());
}

TEST(Scheduler, BnbRejectsMultiInstanceConfig) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  MachineConfig cfg;
  cfg.num_multipliers = 2;
  Problem pr = build_problem(body.program, cfg);
  EXPECT_THROW(branch_and_bound(pr), std::logic_error);
}

TEST(Compile, FullSmProgramSchedules) {
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  trace::SmTrace sm = trace::build_sm_trace(topt);
  CompileOptions copt;
  copt.solver = Solver::kList;
  CompileResult r = compile_program(sm.program, copt);
  EXPECT_GT(r.sm.cycles(), 1000);
  EXPECT_LT(r.sm.cycles(), 6000);
  EXPECT_LE(r.register_pressure, copt.cfg.rf_size);
}

}  // namespace
}  // namespace fourq::sched

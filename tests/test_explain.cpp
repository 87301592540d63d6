// Schedule-explainability tests: critical-path analysis and makespan lower
// bounds on a hand-built DAG with known answers, and the stall-attribution
// conservation law (classes sum exactly to SimStats::stall_cycles) across
// every scheduler backend, on the Table I loop body and on randomly
// generated programs.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "asic/explain.hpp"
#include "asic/simulator.hpp"
#include "curve/point.hpp"
#include "obs/events.hpp"
#include "sched/compile.hpp"
#include "sched/critical_path.hpp"
#include "trace/sm_trace.hpp"

namespace {

using namespace fourq;

// a, b inputs; m1 = a*b; s1 = m1+a; m2 = s1*b; s2 = a+b (off-path).
// Default machine: mul latency 3, add/sub latency 1, II 1, 4R/2W ports.
trace::Program tiny_program() {
  trace::Program p;
  trace::Op in;
  in.kind = trace::OpKind::kInput;
  int a = p.add_op(in);
  int b = p.add_op(in);
  trace::Op m1;
  m1.kind = trace::OpKind::kMul;
  m1.a = trace::Operand::of(a);
  m1.b = trace::Operand::of(b);
  int m1_id = p.add_op(m1);
  trace::Op s1;
  s1.kind = trace::OpKind::kAdd;
  s1.a = trace::Operand::of(m1_id);
  s1.b = trace::Operand::of(a);
  int s1_id = p.add_op(s1);
  trace::Op m2;
  m2.kind = trace::OpKind::kMul;
  m2.a = trace::Operand::of(s1_id);
  m2.b = trace::Operand::of(b);
  int m2_id = p.add_op(m2);
  trace::Op s2;
  s2.kind = trace::OpKind::kAdd;
  s2.a = trace::Operand::of(a);
  s2.b = trace::Operand::of(b);
  int s2_id = p.add_op(s2);
  p.outputs.emplace_back(m2_id, "m2");
  p.outputs.emplace_back(s2_id, "s2");
  return p;
}

TEST(CriticalPath, HandBuiltDagKnownAnswers) {
  trace::Program p = tiny_program();
  sched::MachineConfig cfg;
  sched::Problem pr = sched::build_problem(p, cfg);
  ASSERT_EQ(pr.nodes.size(), 4u);  // m1, s1, m2, s2 in program order

  sched::CriticalPathInfo info = sched::analyze_critical_path(pr);

  // ASAP under the latency-only relaxation: m1@0, s1@3 (mul latency),
  // m2@4 (add latency), s2@0.
  EXPECT_EQ(info.asap, (std::vector<int>{0, 3, 4, 0}));
  // ALAP against the dependence-height horizon (critical path = 7 cycles:
  // mul 3 + add 1 + mul 3).
  EXPECT_EQ(info.alap, (std::vector<int>{0, 3, 4, 6}));
  EXPECT_EQ(info.slack, (std::vector<int>{0, 0, 0, 6}));
  // The chain m1 -> s1 -> m2 is critical; s2 has 6 cycles of freedom.
  EXPECT_EQ(info.critical, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(info.chain, (std::vector<int>{0, 1, 2}));

  // Bounds. Dependence height: 7 + 1 (makespan counts the last writeback
  // cycle itself). Mul issue: 2 muls on one unit, (2-1)*1 + 3 + 1 = 5.
  // Add/sub issue: (2-1)*1 + 1 + 1 = 3. Write ports: ceil(4 results / 2)
  // cycles of writeback + min latency 1 = 3. Read ports: 6 input-operand
  // reads (2+1+1+2) / 4 per cycle -> 2 cycles + min latency 1 = 3.
  EXPECT_EQ(info.bounds.dep_height, 8);
  EXPECT_EQ(info.bounds.mul_issue, 5);
  EXPECT_EQ(info.bounds.addsub_issue, 3);
  EXPECT_EQ(info.bounds.rf_write_port, 3);
  EXPECT_EQ(info.bounds.rf_read_port, 3);
  EXPECT_EQ(info.bounds.rf_port(), 3);
  EXPECT_EQ(info.bounds.issue(), 5);
  EXPECT_EQ(info.bounds.tightest(), 8);
  EXPECT_STREQ(info.bounds.tightest_name(), "dep-height");

  // Problem::mobility agrees with slack by construction.
  for (size_t n = 0; n < pr.nodes.size(); ++n)
    EXPECT_EQ(info.slack[n], pr.mobility(static_cast<int>(n))) << "node " << n;

  sched::BoundGap at_bound = sched::gap_to_bounds(info.bounds, 8);
  EXPECT_EQ(at_bound.gap, 0);
  EXPECT_DOUBLE_EQ(at_bound.efficiency, 1.0);
  sched::BoundGap above = sched::gap_to_bounds(info.bounds, 10);
  EXPECT_EQ(above.gap, 2);
  EXPECT_DOUBLE_EQ(above.efficiency, 0.8);

  std::string chain = sched::describe_chain(pr, info.chain);
  EXPECT_NE(chain.find("->"), std::string::npos);
}

TEST(CriticalPath, BoundsNeverExceedAchievedMakespan) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  for (sched::Solver s : {sched::Solver::kSequential, sched::Solver::kList,
                          sched::Solver::kAnneal, sched::Solver::kBnb}) {
    sched::CompileOptions opt;
    opt.solver = s;
    if (s == sched::Solver::kBnb) {
      sched::CompileOptions warm;
      warm.solver = sched::Solver::kList;
      opt.bnb.upper_bound = sched::compile_program(body.program, warm).schedule.makespan + 1;
    }
    sched::CompileResult r = sched::compile_program(body.program, opt);
    sched::CriticalPathInfo info = sched::analyze_critical_path(r.problem);
    EXPECT_LE(info.bounds.tightest(), r.schedule.makespan);
    sched::BoundGap gap = sched::gap_to_bounds(info.bounds, r.schedule.makespan);
    EXPECT_EQ(gap.gap, r.schedule.makespan - info.bounds.tightest());
    EXPECT_GE(gap.gap, 0);
    EXPECT_GT(gap.efficiency, 0.0);
    EXPECT_LE(gap.efficiency, 1.0);
  }
}

trace::InputBindings loop_body_bindings(const trace::LoopBodyTrace& body) {
  curve::PointR1 q = curve::dbl(curve::to_r1(curve::deterministic_point(31)));
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(32)));
  trace::InputBindings b;
  b.emplace_back(body.q_inputs[0], q.X);
  b.emplace_back(body.q_inputs[1], q.Y);
  b.emplace_back(body.q_inputs[2], q.Z);
  b.emplace_back(body.q_inputs[3], q.Ta);
  b.emplace_back(body.q_inputs[4], q.Tb);
  b.emplace_back(body.table_inputs[0], e.xpy);
  b.emplace_back(body.table_inputs[1], e.ymx);
  b.emplace_back(body.table_inputs[2], e.z2);
  b.emplace_back(body.table_inputs[3], e.dt2);
  return b;
}

// The acceptance criterion for `fourqc explain`: per backend, the stall
// classes sum exactly to SimStats::stall_cycles on the Alg. 1 loop body.
TEST(StallAttribution, LoopBodyConservationAllBackends) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  trace::InputBindings bindings = loop_body_bindings(body);
  for (sched::Solver s : {sched::Solver::kSequential, sched::Solver::kList,
                          sched::Solver::kAnneal, sched::Solver::kBnb}) {
    sched::CompileOptions opt;
    opt.solver = s;
    if (s == sched::Solver::kBnb) opt.bnb.upper_bound = 26;  // list reaches 25
    sched::CompileResult r = sched::compile_program(body.program, opt);

    obs::RecordingSink sink;
    asic::SimResult res = asic::simulate(r.sm, bindings, trace::EvalContext{}, &sink);
    asic::StallAttribution attr = asic::attribute_stalls(r.sm, sink.events);

    EXPECT_TRUE(attr.conservation_ok);
    EXPECT_EQ(attr.stalls.total(), res.stats.stall_cycles);
    // Idle accounting covers every non-issue cycle of each unit.
    EXPECT_EQ(attr.mul_idle.total(), res.stats.cycles - res.stats.mul_issues);
    EXPECT_EQ(attr.addsub_idle.total(), res.stats.cycles - res.stats.addsub_issues);
    // The per-cycle classification marks exactly the stall cycles.
    ASSERT_EQ(attr.stall_class_of_cycle.size(), static_cast<size_t>(res.stats.cycles));
    int marked = 0;
    for (int8_t c : attr.stall_class_of_cycle) marked += c >= 0;
    EXPECT_EQ(marked, res.stats.stall_cycles);

    // The report renders and mentions each unit row.
    std::string gantt = asic::render_gantt(r.sm, attr);
    EXPECT_NE(gantt.find("mul"), std::string::npos);
    EXPECT_NE(gantt.find("addsub"), std::string::npos);
  }
}

// Random-program property: conservation holds for any scheduled program,
// not just the loop body. Programs are random add/sub/mul/conj DAGs over a
// few inputs (no selects, so EvalContext{} suffices).
TEST(StallAttribution, RandomProgramsConserveStallCycles) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(seed);
    trace::Program p;
    trace::Op in;
    in.kind = trace::OpKind::kInput;
    std::vector<int> ids;
    int n_inputs = 2 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n_inputs; ++i) ids.push_back(p.add_op(in));

    int n_compute = 4 + static_cast<int>(rng() % 14);
    for (int i = 0; i < n_compute; ++i) {
      trace::Op op;
      switch (rng() % 4) {
        case 0: op.kind = trace::OpKind::kMul; break;
        case 1: op.kind = trace::OpKind::kAdd; break;
        case 2: op.kind = trace::OpKind::kSub; break;
        default: op.kind = trace::OpKind::kConj; break;
      }
      op.a = trace::Operand::of(ids[rng() % ids.size()]);
      if (op.kind != trace::OpKind::kConj)
        op.b = trace::Operand::of(ids[rng() % ids.size()]);
      ids.push_back(p.add_op(op));
    }
    // Every sink is an output so nothing is dead code.
    std::vector<bool> consumed(p.ops.size(), false);
    for (const trace::Op& op : p.ops) {
      if (op.a.ssa >= 0) consumed[static_cast<size_t>(op.a.ssa)] = true;
      if (op.b.ssa >= 0) consumed[static_cast<size_t>(op.b.ssa)] = true;
    }
    for (size_t i = 0; i < p.ops.size(); ++i)
      if (!consumed[i] && trace::is_compute(p.ops[i].kind))
        p.outputs.emplace_back(static_cast<int>(i), "out" + std::to_string(i));
    if (p.outputs.empty()) p.outputs.emplace_back(static_cast<int>(p.ops.size()) - 1, "out");
    trace::validate(p);

    trace::InputBindings bindings;
    for (int i = 0; i < n_inputs; ++i)
      bindings.emplace_back(i, field::Fp2::from_u64(seed + static_cast<uint32_t>(i) + 1,
                                                    2 * seed + static_cast<uint32_t>(i) + 3));

    for (sched::Solver s :
         {sched::Solver::kSequential, sched::Solver::kList, sched::Solver::kAnneal}) {
      sched::CompileOptions opt;
      opt.solver = s;
      sched::CompileResult r = sched::compile_program(p, opt);
      obs::RecordingSink sink;
      asic::SimResult res = asic::simulate(r.sm, bindings, trace::EvalContext{}, &sink);
      asic::StallAttribution attr = asic::attribute_stalls(r.sm, sink.events);
      EXPECT_TRUE(attr.conservation_ok) << "seed " << seed << " solver " << static_cast<int>(s);
      EXPECT_EQ(attr.stalls.total(), res.stats.stall_cycles)
          << "seed " << seed << " solver " << static_cast<int>(s);
      sched::CriticalPathInfo info = sched::analyze_critical_path(r.problem);
      EXPECT_LE(info.bounds.tightest(), r.schedule.makespan)
          << "seed " << seed << " solver " << static_cast<int>(s);
    }
  }
}

}  // namespace

// Cycle-accurate simulator tests: the compiled microcode, executed through
// the modelled datapath, must agree with the trace interpreter and — for
// the functional program variant — with the curve-level scalar
// multiplication. This is the repository's "RTL vs golden model" check.
#include "asic/simulator.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::asic {
namespace {

using curve::Fp2;
using trace::EvalContext;
using trace::InputBindings;

TEST(Simulator, LoopBodyMatchesInterpreter) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileResult r = sched::compile_program(body.program, {});

  curve::PointR1 q = curve::dbl(curve::to_r1(curve::deterministic_point(31)));
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(32)));
  InputBindings b;
  b.emplace_back(body.q_inputs[0], q.X);
  b.emplace_back(body.q_inputs[1], q.Y);
  b.emplace_back(body.q_inputs[2], q.Z);
  b.emplace_back(body.q_inputs[3], q.Ta);
  b.emplace_back(body.q_inputs[4], q.Tb);
  b.emplace_back(body.table_inputs[0], e.xpy);
  b.emplace_back(body.table_inputs[1], e.ymx);
  b.emplace_back(body.table_inputs[2], e.z2);
  b.emplace_back(body.table_inputs[3], e.dt2);

  SimResult sim = simulate(r.sm, b, EvalContext{});
  auto ref = trace::evaluate(body.program, b, EvalContext{});
  for (const char* name : {"Qx", "Qy", "Qz", "Ta", "Tb"})
    EXPECT_EQ(sim.outputs.at(name), ref.at(name)) << name;
  EXPECT_EQ(sim.stats.mul_issues, 15);
  EXPECT_EQ(sim.stats.addsub_issues, 12);
}

class FullSmSim : public ::testing::Test {
 protected:
  static const sched::CompileResult& compiled() {
    static sched::CompileResult r = [] {
      trace::SmTrace sm = trace::build_sm_trace({});
      return sched::compile_program(sm.program, {});
    }();
    return r;
  }
  static const trace::SmTrace& smtrace() {
    static trace::SmTrace sm = trace::build_sm_trace({});
    return sm;
  }
};

TEST_F(FullSmSim, MatchesCurveScalarMul) {
  curve::Affine p = curve::deterministic_point(33);
  InputBindings b;
  trace::bind_sm_inputs(smtrace(), p, b);
  Rng rng(501);
  for (int i = 0; i < 3; ++i) {
    U256 k = rng.next_u256();
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    SimResult sim = simulate(compiled().sm, b, EvalContext{&rec, dec.k_was_even});
    curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
    EXPECT_EQ(sim.outputs.at("x"), expect.x) << "k=" << k.to_hex();
    EXPECT_EQ(sim.outputs.at("y"), expect.y);
  }
}

TEST_F(FullSmSim, EvenScalarCorrectionWorksInHardware) {
  curve::Affine p = curve::deterministic_point(34);
  InputBindings b;
  trace::bind_sm_inputs(smtrace(), p, b);
  U256 k = Rng(502).next_u256();
  k.set_bit(0, false);
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  SimResult sim = simulate(compiled().sm, b, EvalContext{&rec, true});
  curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
  EXPECT_EQ(sim.outputs.at("x"), expect.x);
  EXPECT_EQ(sim.outputs.at("y"), expect.y);
}

TEST_F(FullSmSim, StatsAreConsistent) {
  curve::Affine p = curve::deterministic_point(35);
  InputBindings b;
  trace::bind_sm_inputs(smtrace(), p, b);
  U256 k(12345);
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  SimResult sim = simulate(compiled().sm, b, EvalContext{&rec, dec.k_was_even});

  trace::OpStats st = trace::count_ops(smtrace().program);
  EXPECT_EQ(sim.stats.mul_issues, st.muls);
  EXPECT_EQ(sim.stats.addsub_issues, st.addsubs);
  EXPECT_EQ(sim.stats.cycles, compiled().sm.cycles());
  EXPECT_LE(sim.stats.max_reads_in_cycle, 4);
  EXPECT_GT(sim.stats.forwarded_operands, 0);
  EXPECT_GT(sim.stats.mul_utilisation(), 0.4);  // the multiplier is the bottleneck
}

TEST(Simulator, PaperCostVariantMatchesInterpreter) {
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  trace::SmTrace sm = trace::build_sm_trace(topt);
  sched::CompileResult r = sched::compile_program(sm.program, {});

  curve::Affine p = curve::deterministic_point(36);
  InputBindings b;
  b.emplace_back(sm.in_zero, Fp2());
  b.emplace_back(sm.in_one, Fp2::from_u64(1));
  b.emplace_back(sm.in_two_d, curve::curve_2d());
  b.emplace_back(sm.in_px, p.x);
  b.emplace_back(sm.in_py, p.y);
  for (size_t i = 0; i < sm.in_endo_consts.size(); ++i)
    b.emplace_back(sm.in_endo_consts[i], Fp2::from_u64(11 + i, 13 + i));

  U256 k = Rng(503).next_u256();
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  EvalContext ctx{&rec, dec.k_was_even};
  SimResult sim = simulate(r.sm, b, ctx);
  auto ref = trace::evaluate(sm.program, b, ctx);
  EXPECT_EQ(sim.outputs.at("x"), ref.at("x"));
  EXPECT_EQ(sim.outputs.at("y"), ref.at("y"));
}

TEST(Simulator, SequentialScheduleAlsoCorrect) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileOptions copt;
  copt.solver = sched::Solver::kSequential;
  sched::CompileResult r = sched::compile_program(body.program, copt);

  curve::PointR1 q = curve::to_r1(curve::deterministic_point(37));
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(38)));
  InputBindings b;
  b.emplace_back(body.q_inputs[0], q.X);
  b.emplace_back(body.q_inputs[1], q.Y);
  b.emplace_back(body.q_inputs[2], q.Z);
  b.emplace_back(body.q_inputs[3], q.Ta);
  b.emplace_back(body.q_inputs[4], q.Tb);
  b.emplace_back(body.table_inputs[0], e.xpy);
  b.emplace_back(body.table_inputs[1], e.ymx);
  b.emplace_back(body.table_inputs[2], e.z2);
  b.emplace_back(body.table_inputs[3], e.dt2);
  SimResult sim = simulate(r.sm, b, EvalContext{});
  auto ref = trace::evaluate(body.program, b, EvalContext{});
  EXPECT_EQ(sim.outputs.at("Qx"), ref.at("Qx"));
  // No forwarding opportunities exist in a fully serial schedule... results
  // land in the RF before the next op issues, so no bus operands are used.
  EXPECT_EQ(sim.stats.forwarded_operands, 0);
}

TEST(Simulator, DualMultiplierDatapathCorrect) {
  // A 2-multiplier / 2-adder machine still produces bit-exact results.
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  trace::SmTrace sm = trace::build_sm_trace(topt);
  sched::CompileOptions copt;
  copt.cfg.num_multipliers = 2;
  copt.cfg.num_addsubs = 2;
  copt.cfg.rf_read_ports = 8;
  copt.cfg.rf_write_ports = 4;
  sched::CompileResult r = sched::compile_program(sm.program, copt);

  curve::Affine p = curve::deterministic_point(41);
  trace::InputBindings b;
  b.emplace_back(sm.in_zero, Fp2());
  b.emplace_back(sm.in_one, Fp2::from_u64(1));
  b.emplace_back(sm.in_two_d, curve::curve_2d());
  b.emplace_back(sm.in_px, p.x);
  b.emplace_back(sm.in_py, p.y);
  for (size_t i = 0; i < sm.in_endo_consts.size(); ++i)
    b.emplace_back(sm.in_endo_consts[i], Fp2::from_u64(17 + i, 19 + i));

  U256 k = Rng(504).next_u256();
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  EvalContext ctx{&rec, dec.k_was_even};
  SimResult sim = simulate(r.sm, b, ctx);
  auto ref = trace::evaluate(sm.program, b, ctx);
  EXPECT_EQ(sim.outputs.at("x"), ref.at("x"));
  EXPECT_EQ(sim.outputs.at("y"), ref.at("y"));
  // It must actually have used the second multiplier somewhere.
  bool dual_issue = false;
  for (const auto& w : r.sm.rom)
    if (w.mul.size() >= 2) dual_issue = true;
  EXPECT_TRUE(dual_issue);
}

TEST(MulPipeline, EdgeOperands) {
  // One product through the datapath's pipelined multiplier, on the extreme
  // operands 0, 1, i, p - 1 and (p - 1)(1 + i) in every pairing.
  trace::Program p;
  int a = p.add_op({trace::OpKind::kInput, {}, {}, "a"});
  int b = p.add_op({trace::OpKind::kInput, {}, {}, "b"});
  int m = p.add_op({trace::OpKind::kMul, trace::Operand::of(a), trace::Operand::of(b), "m"});
  p.outputs.emplace_back(m, "m");
  sched::CompileResult r = sched::compile_program(p, {});

  const curve::Fp pm1 = curve::Fp() - curve::Fp::from_u64(1);
  const Fp2 cases[] = {
      Fp2(), Fp2::from_u64(1), Fp2::from_u64(0, 1), Fp2(pm1, pm1), Fp2(pm1, curve::Fp()),
  };
  for (const Fp2& x : cases) {
    for (const Fp2& y : cases) {
      SimResult sim = simulate(r.sm, {{a, x}, {b, y}}, EvalContext{});
      EXPECT_EQ(sim.outputs.at("m"), Fp2::mul_karatsuba(x, y)) << x.to_hex() << " * " << y.to_hex();
      EXPECT_EQ(sim.stats.mul_issues, 1);
    }
  }
}

TEST(Simulator, MissingInputBindingRejected) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileResult r = sched::compile_program(body.program, {});
  EXPECT_THROW(simulate(r.sm, {}, EvalContext{}), std::logic_error);
}

TEST(Simulator, CorruptedRomDetected) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileResult r = sched::compile_program(body.program, {});
  // Drop a writeback whose register is read by a later control word, so a
  // later read must hit an uninitialised (or stale) register.
  sched::CompiledSm broken = r.sm;
  bool dropped = false;
  for (size_t t = 0; t < broken.rom.size() && !dropped; ++t) {
    auto& w = broken.rom[t];
    for (size_t wi = 0; wi < w.writebacks.size() && !dropped; ++wi) {
      int reg = w.writebacks[wi].reg;
      auto reads_reg = [&](const sched::SrcSel& s) {
        return s.kind == sched::SrcSel::Kind::kReg && s.reg == reg;
      };
      for (size_t u = t + 1; u < broken.rom.size() && !dropped; ++u) {
        const auto& later = broken.rom[u];
        for (const auto& slot : later.mul)
          if (reads_reg(slot.a) || reads_reg(slot.b)) dropped = true;
        for (const auto& slot : later.addsub)
          if (reads_reg(slot.a) || reads_reg(slot.b)) dropped = true;
        if (dropped) w.writebacks.erase(w.writebacks.begin() + static_cast<long>(wi));
      }
    }
  }
  ASSERT_TRUE(dropped);
  curve::PointR1 q = curve::to_r1(curve::deterministic_point(39));
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(40)));
  InputBindings b;
  b.emplace_back(body.q_inputs[0], q.X);
  b.emplace_back(body.q_inputs[1], q.Y);
  b.emplace_back(body.q_inputs[2], q.Z);
  b.emplace_back(body.q_inputs[3], q.Ta);
  b.emplace_back(body.q_inputs[4], q.Tb);
  b.emplace_back(body.table_inputs[0], e.xpy);
  b.emplace_back(body.table_inputs[1], e.ymx);
  b.emplace_back(body.table_inputs[2], e.z2);
  b.emplace_back(body.table_inputs[3], e.dt2);
  // Either the simulator traps an uninitialised read, or (if the slot held a
  // stale earlier value) the outputs must diverge from the golden model.
  auto ref = trace::evaluate(body.program, b, EvalContext{});
  bool detected = false;
  try {
    SimResult sim = simulate(broken, b, EvalContext{});
    for (const char* name : {"Qx", "Qy", "Qz", "Ta", "Tb"})
      if (sim.outputs.at(name) != ref.at(name)) detected = true;
  } catch (const std::logic_error&) {
    detected = true;
  }
  EXPECT_TRUE(detected) << "dropped writeback went unnoticed";
}

}  // namespace
}  // namespace fourq::asic

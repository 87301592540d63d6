// Tests for the blocked/looped controller: functional equivalence with the
// flat (globally scheduled) controller and with curve-level scalar
// multiplication, plus the ROM-vs-cycles trade-off the design embodies.
#include "asic/looped.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/rng.hpp"
#include "curve/scalarmul.hpp"

namespace fourq::asic {
namespace {

using curve::Fp2;

class LoopedFunctional : public ::testing::Test {
 protected:
  static const LoopedSm& machine() {
    static LoopedSm sm = [] {
      LoopedSmOptions opt;
      opt.endo = trace::EndoVariant::kFunctional;
      return build_looped_sm(opt);
    }();
    return sm;
  }
};

TEST_F(LoopedFunctional, MatchesCurveScalarMul) {
  curve::Affine p = curve::deterministic_point(95);
  trace::InputBindings b;
  trace::bind_sm_inputs(machine(), p, b);
  Rng rng(901);
  for (int i = 0; i < 3; ++i) {
    U256 k = rng.next_u256();
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    SimResult res = simulate_looped(machine(), b, trace::EvalContext{&rec, dec.k_was_even});
    curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
    EXPECT_EQ(res.outputs.at("x"), expect.x) << "k=" << k.to_hex();
    EXPECT_EQ(res.outputs.at("y"), expect.y);
  }
}

TEST_F(LoopedFunctional, EvenScalarCorrection) {
  curve::Affine p = curve::deterministic_point(96);
  trace::InputBindings b;
  trace::bind_sm_inputs(machine(), p, b);
  U256 k = Rng(902).next_u256();
  k.set_bit(0, false);
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  SimResult res = simulate_looped(machine(), b, trace::EvalContext{&rec, true});
  curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
  EXPECT_EQ(res.outputs.at("x"), expect.x);
  EXPECT_EQ(res.outputs.at("y"), expect.y);
}

TEST_F(LoopedFunctional, SmallScalars) {
  curve::Affine p = curve::deterministic_point(97);
  trace::InputBindings b;
  trace::bind_sm_inputs(machine(), p, b);
  for (uint64_t k : {0ull, 1ull, 2ull, 7ull}) {
    curve::Decomposition dec = curve::decompose(U256(k));
    curve::RecodedScalar rec = curve::recode(dec.a);
    SimResult res = simulate_looped(machine(), b, trace::EvalContext{&rec, dec.k_was_even});
    if (k == 0) {
      // [0]P = O has no affine form; Z of the accumulator is zero only for
      // the identity... the identity IS affine (0, 1), so check that.
      EXPECT_TRUE(res.outputs.at("x").is_zero());
      EXPECT_EQ(res.outputs.at("y"), Fp2::from_u64(1));
      continue;
    }
    curve::Affine expect = curve::to_affine(curve::scalar_mul(U256(k), p));
    EXPECT_EQ(res.outputs.at("x"), expect.x) << k;
    EXPECT_EQ(res.outputs.at("y"), expect.y) << k;
  }
}

TEST(Looped, RomMuchSmallerCyclesLarger) {
  LoopedSmOptions lopt;  // paper-cost default
  LoopedSm looped = build_looped_sm(lopt);

  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  sched::CompileResult flat = sched::compile_program(trace::build_sm_trace(topt).program, {});

  // The paper's point: global scheduling wins cycles; blocking wins ROM.
  EXPECT_LT(looped.rom_words(), flat.sm.cycles() / 3);
  EXPECT_GT(looped.total_cycles(), flat.sm.cycles());
}

TEST(Looped, PaperCostVariantRunsDeterministically) {
  LoopedSm sm = build_looped_sm({});
  curve::Affine p = curve::deterministic_point(98);
  trace::InputBindings b;
  trace::bind_sm_inputs(sm, p, b);
  U256 k = Rng(903).next_u256();
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  trace::EvalContext ctx{&rec, dec.k_was_even};
  SimResult r1 = simulate_looped(sm, b, ctx);
  SimResult r2 = simulate_looped(sm, b, ctx);
  EXPECT_EQ(r1.outputs.at("x"), r2.outputs.at("x"));
  EXPECT_EQ(r1.stats.cycles, r2.stats.cycles);
  EXPECT_EQ(r1.stats.cycles, sm.total_cycles());
}

class LoopedUnroll : public ::testing::TestWithParam<int> {};

TEST_P(LoopedUnroll, FunctionalCorrectnessWithUnrolledBody) {
  LoopedSmOptions opt;
  opt.endo = trace::EndoVariant::kFunctional;
  opt.body_unroll = GetParam();
  LoopedSm sm = build_looped_sm(opt);
  EXPECT_EQ(sm.iterations * sm.body_unroll, curve::kDigits);

  curve::Affine p = curve::deterministic_point(110 + static_cast<uint64_t>(GetParam()));
  trace::InputBindings b;
  trace::bind_sm_inputs(sm, p, b);
  Rng rng(905);
  for (int i = 0; i < 2; ++i) {
    U256 k = rng.next_u256();
    if (i == 1) k.set_bit(0, false);
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    SimResult res = simulate_looped(sm, b, trace::EvalContext{&rec, dec.k_was_even});
    curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
    EXPECT_EQ(res.outputs.at("x"), expect.x) << "unroll=" << GetParam();
    EXPECT_EQ(res.outputs.at("y"), expect.y);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, LoopedUnroll, ::testing::Values(1, 5, 13));

TEST(Looped, UnrollingReducesTotalCycles) {
  // The solver overlaps the unrolled iterations: fewer cycles per digit.
  int prev = 1 << 30;
  for (int u : {1, 5, 13}) {
    LoopedSmOptions opt;
    opt.body_unroll = u;
    LoopedSm sm = build_looped_sm(opt);
    EXPECT_LT(sm.total_cycles(), prev) << "unroll=" << u;
    prev = sm.total_cycles();
  }
}

TEST(Looped, UnrollRejectsNonDivisors) {
  LoopedSmOptions opt;
  opt.body_unroll = 4;
  EXPECT_THROW(build_looped_sm(opt), std::logic_error);
}

// Machine-config matrix for the looped controller: correctness must hold
// for every datapath shape, like the flat controller's sweep.
using LoopedCfg = std::tuple<int, bool, int>;  // mul_latency, forwarding, unroll

class LoopedConfigMatrix : public ::testing::TestWithParam<LoopedCfg> {};

TEST_P(LoopedConfigMatrix, FunctionalAcrossConfigs) {
  auto [lat, fwd, unroll] = GetParam();
  LoopedSmOptions opt;
  opt.endo = trace::EndoVariant::kFunctional;
  opt.cfg.mul_latency = lat;
  opt.cfg.forwarding = fwd;
  opt.body_unroll = unroll;
  LoopedSm sm = build_looped_sm(opt);

  curve::Affine p = curve::deterministic_point(120);
  trace::InputBindings b;
  trace::bind_sm_inputs(sm, p, b);
  U256 k = Rng(906).next_u256();
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  SimResult res = simulate_looped(sm, b, trace::EvalContext{&rec, dec.k_was_even});
  curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
  EXPECT_EQ(res.outputs.at("x"), expect.x);
  EXPECT_EQ(res.outputs.at("y"), expect.y);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LoopedConfigMatrix,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 5)),
                         [](const ::testing::TestParamInfo<LoopedCfg>& info) {
                           return "lat" + std::to_string(std::get<0>(info.param)) +
                                  (std::get<1>(info.param) ? "_fwd" : "_nofwd") + "_u" +
                                  std::to_string(std::get<2>(info.param));
                         });

// The register file is sized from the allocation, so every machine shape
// builds (mul_latency 2 and no-forwarding shapes need up to 98 slots), and
// the paper-cost controller computes what the flat paper-cost program does.
using LoopedShape = std::tuple<int, bool>;  // mul_latency, forwarding

class LoopedRegisterFile : public ::testing::TestWithParam<LoopedShape> {};

TEST_P(LoopedRegisterFile, SizedFromTheLargestSegment) {
  auto [lat, fwd] = GetParam();
  LoopedSmOptions opt;  // paper-cost
  opt.cfg.mul_latency = lat;
  opt.cfg.forwarding = fwd;
  LoopedSm sm = build_looped_sm(opt);
  EXPECT_EQ(sm.rf_size, std::max({sm.prologue.rf_slots, sm.body.rf_slots, sm.epilogue.rf_slots}));
  for (const sched::CompiledSm* seg : {&sm.prologue, &sm.body, &sm.epilogue})
    EXPECT_EQ(seg->cfg.rf_size, sm.rf_size);

  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  trace::SmTrace flat = trace::build_sm_trace(topt);
  curve::Affine p = curve::deterministic_point(121);
  trace::InputBindings b, flat_b;
  trace::bind_sm_inputs(sm, p, b);
  trace::bind_sm_inputs(flat, p, flat_b);
  U256 k = Rng(907).next_u256();
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  trace::EvalContext ctx{&rec, dec.k_was_even};
  SimResult res = simulate_looped(sm, b, ctx);
  std::map<std::string, Fp2> want = trace::evaluate(flat.program, flat_b, ctx);
  EXPECT_EQ(res.outputs.at("x"), want.at("x"));
  EXPECT_EQ(res.outputs.at("y"), want.at("y"));
}

INSTANTIATE_TEST_SUITE_P(Shapes, LoopedRegisterFile,
                         ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Bool()),
                         [](const ::testing::TestParamInfo<LoopedShape>& info) {
                           return "lat" + std::to_string(std::get<0>(info.param)) +
                                  (std::get<1>(info.param) ? "_fwd" : "_nofwd");
                         });

TEST(Looped, FixedCycleCountAcrossScalars) {
  LoopedSm sm = build_looped_sm({});
  curve::Affine p = curve::deterministic_point(99);
  trace::InputBindings b;
  trace::bind_sm_inputs(sm, p, b);
  Rng rng(904);
  int cycles = -1;
  for (int i = 0; i < 3; ++i) {
    U256 k = rng.next_u256();
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    SimResult res = simulate_looped(sm, b, trace::EvalContext{&rec, dec.k_was_even});
    if (cycles < 0) cycles = res.stats.cycles;
    EXPECT_EQ(res.stats.cycles, cycles);
  }
}

// The traced program of every looped segment, pinned by its fingerprint
// (see SmTrace.OpStreamsArePinned): paper-cost and functional prologues,
// and the body and epilogue at each legal unroll.
TEST(Looped, SegmentOpStreamsArePinned) {
  struct Pin {
    trace::EndoVariant endo;
    int unroll;
    uint64_t prologue, body, epilogue;
  };
  const auto pc = trace::EndoVariant::kPaperCost, fn = trace::EndoVariant::kFunctional;
  const Pin pins[] = {
      {pc, 1, 0xf067ead5faba27b6ull, 0x49c4cc8cab1788eaull, 0x3ab7d073ba204b3aull},
      {pc, 5, 0xf067ead5faba27b6ull, 0xb82961e1d9b0d706ull, 0x3ab7d073ba204b3aull},
      {pc, 13, 0xf067ead5faba27b6ull, 0x8566a736b9314f3eull, 0x3ab7d073ba204b3aull},
      {fn, 1, 0x885e4b0301eb8addull, 0x49c4cc8cab1788eaull, 0x3ab7d073ba204b3aull},
  };
  for (const Pin& pin : pins) {
    LoopedSmOptions opt;
    opt.endo = pin.endo;
    opt.body_unroll = pin.unroll;
    LoopedSm sm = build_looped_sm(opt);
    SCOPED_TRACE("unroll " + std::to_string(pin.unroll));
    EXPECT_EQ(trace::fingerprint(sm.prologue_program), pin.prologue);
    EXPECT_EQ(trace::fingerprint(sm.body_program), pin.body);
    EXPECT_EQ(trace::fingerprint(sm.epilogue_program), pin.epilogue);
  }
}

}  // namespace
}  // namespace fourq::asic

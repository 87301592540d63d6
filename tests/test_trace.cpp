// Tests for the tracing layer: the recorded SM program, interpreted over
// concrete field values, must reproduce curve::scalar_mul exactly — the
// trace is a faithful re-expression of Algorithm 1 (paper §III-C step 2).
#include "trace/sm_trace.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "trace/eval.hpp"

namespace fourq::trace {
namespace {

using curve::Fp2;

TEST(SmTrace, FunctionalVariantMatchesScalarMul) {
  SmTrace sm = build_sm_trace({});
  curve::Affine p = curve::deterministic_point(21);
  InputBindings bindings;
  bind_sm_inputs(sm, p, bindings);
  Rng rng(401);
  for (int i = 0; i < 6; ++i) {
    U256 k = rng.next_u256();
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    EvalContext ctx{&rec, dec.k_was_even};
    auto out = evaluate(sm.program, bindings, ctx);
    curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
    EXPECT_EQ(out.at("x"), expect.x) << "k=" << k.to_hex();
    EXPECT_EQ(out.at("y"), expect.y);
  }
}

TEST(SmTrace, FunctionalVariantEvenScalar) {
  SmTrace sm = build_sm_trace({});
  curve::Affine p = curve::deterministic_point(22);
  InputBindings bindings;
  bind_sm_inputs(sm, p, bindings);
  U256 k = Rng(402).next_u256();
  k.set_bit(0, false);
  curve::Decomposition dec = curve::decompose(k);
  ASSERT_TRUE(dec.k_was_even);
  curve::RecodedScalar rec = curve::recode(dec.a);
  auto out = evaluate(sm.program, bindings, EvalContext{&rec, true});
  curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
  EXPECT_EQ(out.at("x"), expect.x);
  EXPECT_EQ(out.at("y"), expect.y);
}

TEST(SmTrace, ProjectiveVariantMatches) {
  SmTraceOptions opt;
  opt.include_inversion = false;
  SmTrace sm = build_sm_trace(opt);
  curve::Affine p = curve::deterministic_point(23);
  U256 k(0x1234567890abcdefull, 42, 0, 99);
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  InputBindings bindings;
  bind_sm_inputs(sm, p, bindings);
  auto out = evaluate(sm.program, bindings, EvalContext{&rec, dec.k_was_even});
  // X/Z, Y/Z must equal the affine result.
  curve::Affine expect = curve::to_affine(curve::scalar_mul(k, p));
  Fp2 zi = out.at("Z").inv();
  EXPECT_EQ(out.at("X") * zi, expect.x);
  EXPECT_EQ(out.at("Y") * zi, expect.y);
}

TEST(SmTrace, PaperCostVariantEvaluates) {
  SmTraceOptions opt;
  opt.endo = EndoVariant::kPaperCost;
  SmTrace sm = build_sm_trace(opt);
  EXPECT_EQ(sm.in_endo_consts.size(), 6u);
  curve::Affine p = curve::deterministic_point(24);
  U256 k = Rng(403).next_u256();
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  // No curve-level meaning (placeholder endomorphisms), but it must evaluate
  // deterministically and produce a consistent result.
  InputBindings bindings;
  bind_sm_inputs(sm, p, bindings);
  auto out1 = evaluate(sm.program, bindings, EvalContext{&rec, dec.k_was_even});
  auto out2 = evaluate(sm.program, bindings, EvalContext{&rec, dec.k_was_even});
  EXPECT_EQ(out1.at("x"), out2.at("x"));
  EXPECT_FALSE(out1.at("x").is_zero());
}

TEST(SmTrace, OpMixNearPaperProfile) {
  // §III-B: F_{p^2} multiplications ≈ 57% of arithmetic operations.
  SmTraceOptions opt;
  opt.endo = EndoVariant::kPaperCost;
  SmTrace sm = build_sm_trace(opt);
  OpStats s = count_ops(sm.program);
  EXPECT_GT(s.mul_fraction(), 0.50);
  EXPECT_LT(s.mul_fraction(), 0.65);
  // Main loop alone: 64 iterations of 15 muls.
  EXPECT_GT(s.muls, 64 * 15);
}

TEST(SmTrace, FunctionalVariantLarger) {
  // The functional variant pays 192 doublings, the paper-cost one does not.
  OpStats fn = count_ops(build_sm_trace({}).program);
  SmTraceOptions opt;
  opt.endo = EndoVariant::kPaperCost;
  OpStats pc = count_ops(build_sm_trace(opt).program);
  EXPECT_GT(fn.muls, pc.muls + 1000);
}

TEST(SmTrace, DigitCountRespected) {
  SmTraceOptions opt;
  opt.digits = 10;
  opt.include_inversion = false;
  SmTrace sm = build_sm_trace(opt);
  EXPECT_EQ(sm.program.iterations, 10);
}

// Every traced SM program's op stream, pinned by its fingerprint (ops in
// emission order, select tables, outputs; labels excluded). A change to the
// tracing code that adds, drops or reorders one op fails here, although op
// counts, cycle counts and results may all stay the same.
TEST(SmTrace, OpStreamsArePinned) {
  auto flat = [](EndoVariant endo, bool inversion) {
    SmTraceOptions opt;
    opt.endo = endo;
    opt.include_inversion = inversion;
    return fingerprint(build_sm_trace(opt).program);
  };
  auto dual = [](EndoVariant endo) {
    SmTraceOptions opt;
    opt.endo = endo;
    return fingerprint(build_dual_sm_trace(opt).program);
  };
  EXPECT_EQ(flat(EndoVariant::kFunctional, true), 0xd6a57142c53da38bull);
  EXPECT_EQ(flat(EndoVariant::kFunctional, false), 0x953eb99d209ce736ull);
  EXPECT_EQ(flat(EndoVariant::kPaperCost, true), 0x459ebecd491c2c95ull);
  EXPECT_EQ(flat(EndoVariant::kPaperCost, false), 0xe2729fb2ef4650f2ull);
  EXPECT_EQ(dual(EndoVariant::kFunctional), 0x81f4be8cefc51450ull);
  EXPECT_EQ(dual(EndoVariant::kPaperCost), 0xf68631c03a6dfbaeull);
  EXPECT_EQ(fingerprint(build_loop_body_trace().program), 0xd9e63a3eb7a0714aull);
}

TEST(LoopBody, MatchesPaperOperationCounts) {
  // Fig. 2(b): the double-and-add body is 15 F_{p^2} multiplications and
  // ~13 add/subs (ours: 12 — the negated-dt2 table layout absorbs the sign
  // op into addressing).
  LoopBodyTrace body = build_loop_body_trace();
  OpStats s = count_ops(body.program);
  EXPECT_EQ(s.muls, 15);
  EXPECT_EQ(s.addsubs, 12);
  EXPECT_EQ(s.inputs, 9);  // 5 accumulator coords + 4 table coords
  EXPECT_EQ(body.program.outputs.size(), 5u);
}

TEST(LoopBody, EvaluatesLikePointFormulas) {
  LoopBodyTrace body = build_loop_body_trace();
  curve::Affine pa = curve::deterministic_point(25);
  curve::PointR1 q = curve::dbl(curve::to_r1(pa));  // arbitrary state
  curve::PointR2 e = curve::to_r2(curve::to_r1(curve::deterministic_point(26)));
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
  auto out = evaluate(body.program, b, EvalContext{});
  curve::PointR1 expect = curve::add(curve::dbl(q), e);
  EXPECT_EQ(out.at("Qx"), expect.X);
  EXPECT_EQ(out.at("Qy"), expect.Y);
  EXPECT_EQ(out.at("Qz"), expect.Z);
  EXPECT_EQ(out.at("Ta"), expect.Ta);
  EXPECT_EQ(out.at("Tb"), expect.Tb);
}

TEST(Eval, UnboundInputRejected) {
  LoopBodyTrace body = build_loop_body_trace();
  EXPECT_THROW(evaluate(body.program, {}, EvalContext{}), std::logic_error);
}

TEST(Eval, DigitSelectWithoutRecodedRejected) {
  SmTraceOptions opt;
  opt.include_inversion = false;
  SmTrace sm = build_sm_trace(opt);
  InputBindings bindings;
  bind_sm_inputs(sm, curve::deterministic_point(27), bindings);
  EXPECT_THROW(evaluate(sm.program, bindings, EvalContext{}),
               std::logic_error);
}

TEST(Validate, RejectsForwardReference) {
  Program p;
  Op input;
  input.kind = OpKind::kInput;
  p.add_op(input);
  Op bad;
  bad.kind = OpKind::kAdd;
  bad.a = Operand::of(0);
  bad.b = Operand::of(5);  // forward/out-of-range
  p.add_op(bad);
  EXPECT_THROW(validate(p), std::logic_error);
}

TEST(Validate, AcceptsTracedPrograms) {
  EXPECT_NO_THROW(validate(build_loop_body_trace().program));
  EXPECT_NO_THROW(validate(build_sm_trace({}).program));
}

TEST(Tracer, ConjSemantics) {
  Tracer t;
  Fp2Var a = t.input("a");
  Fp2Var c = t.conj(a);
  t.mark_output(c, "out");
  Fp2 v = Fp2::from_u64(5, 9);
  auto out = evaluate(t.program(), {{a.id, v}}, EvalContext{});
  EXPECT_EQ(out.at("out"), v.conj());
}

TEST(Tracer, MixedTracerOperandsRejected) {
  Tracer t1, t2;
  Fp2Var a = t1.input("a");
  Fp2Var b = t2.input("b");
  EXPECT_THROW((void)(a + b), std::logic_error);
}

}  // namespace
}  // namespace fourq::trace

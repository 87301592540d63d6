// Tests for the abstract-interpretation range verifier: known-answer
// tightest bounds on the Karatsuba datapath expansion, a seeded-defect
// matrix (every range rule fires on its counterexample), certificate
// tamper detection, ROM-side agreement, randomized soundness of the proven
// bounds against the concrete interpreter, and a differential check of the
// micro-op semantics against field::Fp2.
#include "analysis/range/range.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"
#include "field/fp2.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::analysis::range {
namespace {

bool has_rule(const LintReport& r, Rule rule) {
  for (const Finding& f : r.findings)
    if (f.rule == rule) return true;
  return false;
}

int count_rule(const LintReport& r, Rule rule) {
  int n = 0;
  for (const Finding& f : r.findings) n += f.rule == rule;
  return n;
}

// Finds the wide node expanding trace op `origin` with stage role `role`.
int node_with_role(const WideProgram& wp, int origin, const char* role) {
  for (size_t n = 0; n < wp.ops.size(); ++n)
    if (wp.ops[n].origin == origin && std::string(wp.ops[n].role) == role)
      return static_cast<int>(n);
  ADD_FAILURE() << "no node with role " << role << " for op " << origin;
  return -1;
}

// in0, in1, z = in0 * in1 — the whole Algorithm 2 datapath once.
trace::Program mul_program() {
  trace::Program p;
  int a = p.add_op({trace::OpKind::kInput, {}, {}, "a"});
  int b = p.add_op({trace::OpKind::kInput, {}, {}, "b"});
  int z = p.add_op({trace::OpKind::kMul, trace::Operand::of(a),
                    trace::Operand::of(b), "z"});
  p.outputs.emplace_back(z, "z");
  return p;
}

TEST(RangeDomain, BoundArithmeticIsExact) {
  Bound five = Bound::of_u64(5);
  Bound seven = Bound::of_u64(7);
  EXPECT_EQ(badd(five, seven).max, U512(U256(12)));
  EXPECT_EQ(bmul(five, seven).max, U512(U256(35)));
  EXPECT_EQ(bjoin(five, seven).max, U512(U256(7)));
  EXPECT_EQ(five.bits(), 3);
  EXPECT_TRUE(five.fits_bits(3));
  EXPECT_FALSE(five.fits_bits(2));

  Bound top = Bound::unbounded();
  EXPECT_TRUE(badd(top, five).top);
  EXPECT_TRUE(bmul(five, top).top);
  EXPECT_TRUE(bjoin(top, five).top);
  EXPECT_EQ(top.bits(), 513);

  EXPECT_EQ(Bound::canonical().bits(), 127);
  EXPECT_EQ(canonical_max().top_bit(), 126);
  EXPECT_EQ(pshift127().top_bit(), 253);
  EXPECT_EQ(bits_max(128).top_bit(), 127);
}

// The fixed point of the mul expansion must be *exactly* the hand-derived
// stage bounds of paper Algorithm 2 — not merely sound, but tight.
TEST(RangeKnownAnswer, MulExpansionTightestBounds) {
  trace::Program p = mul_program();
  LintReport rep;
  ProgramRanges pr = analyze_program(p, {}, rep);
  ASSERT_TRUE(pr.result.proven) << lint_text({{"mul", rep}});
  EXPECT_TRUE(rep.ranges_proven);
  EXPECT_EQ(rep.range_reduce_sites, 2);
  EXPECT_EQ(pr.result.stats.redundant_reduces, 0);

  const WideProgram& wp = pr.expand.wide;
  auto bound_at = [&](const char* role) {
    return pr.result.bounds[static_cast<size_t>(node_with_role(wp, 2, role))];
  };

  const U256 cmax = canonical_max().lo256();  // p - 1
  const U512 prod = mul_wide(cmax, cmax);     // (p-1)^2
  U512 lazy2;                                 // 2(p-1)
  add(U512(cmax), U512(cmax), lazy2);
  U512 acc2;                                  // 2(p-1)^2
  add(prod, prod, acc2);
  const U512 cross = mul_wide(lazy2.lo256(), lazy2.lo256());  // 4(p-1)^2
  U512 t7max;                                 // p*2^127 - 1
  sub(pshift127(), U512(U256(1)), t7max);

  EXPECT_EQ(bound_at("t0").max, prod);
  EXPECT_EQ(bound_at("t1").max, prod);
  EXPECT_EQ(bound_at("t2").max, lazy2);
  EXPECT_EQ(bound_at("t3").max, lazy2);
  EXPECT_EQ(bound_at("t5").max, acc2);
  EXPECT_EQ(bound_at("t6").max, cross);
  // t7 = max((p-1)^2, p*2^127 - 1): the borrow branch dominates.
  EXPECT_EQ(bound_at("t7").max, t7max);
  // t8 <= t6 by the Karatsuba identity.
  EXPECT_EQ(bound_at("t8").max, cross);
  EXPECT_EQ(bound_at("z0").max, canonical_max());
  EXPECT_EQ(bound_at("z1").max, canonical_max());

  // Widest live value is t6/t8 at exactly the 256-bit accumulator width.
  EXPECT_EQ(pr.result.max_bits, 256);
  EXPECT_EQ(rep.range_max_bits, 256);
}

TEST(RangeKnownAnswer, AddSubConjStayCanonical) {
  trace::Program p;
  int a = p.add_op({trace::OpKind::kInput, {}, {}, "a"});
  int b = p.add_op({trace::OpKind::kInput, {}, {}, "b"});
  int s = p.add_op({trace::OpKind::kAdd, trace::Operand::of(a),
                    trace::Operand::of(b), "s"});
  int d = p.add_op({trace::OpKind::kSub, trace::Operand::of(s),
                    trace::Operand::of(b), "d"});
  int c = p.add_op({trace::OpKind::kConj, trace::Operand::of(d), {}, "c"});
  p.outputs.emplace_back(c, "c");

  LintReport rep;
  ProgramRanges pr = analyze_program(p, {}, rep);
  ASSERT_TRUE(pr.result.proven) << lint_text({{"addsub", rep}});
  // Both components of every op result are canonical; the widest live value
  // is the 128-bit lazy sum feeding the adder's fold.
  EXPECT_EQ(pr.result.max_bits, 128);
  for (int op : {s, d, c}) {
    auto [re, im] = pr.expand.op_nodes[static_cast<size_t>(op)];
    EXPECT_EQ(pr.result.bounds[static_cast<size_t>(re)].max, canonical_max());
    EXPECT_EQ(pr.result.bounds[static_cast<size_t>(im)].max, canonical_max());
  }
}

// ---- Seeded-defect matrix -------------------------------------------------

// Dropping the reduction before a multiplier: seed an input with a lazy
// 128-bit bound instead of canonical. The 127-bit multiplier-operand
// contract at t0/t1 must fire reduce-missing, and the analysis must clamp
// (not cascade) so the defect surfaces at the multiplier sites only.
TEST(RangeDefects, DroppedReductionFiresReduceMissing) {
  trace::Program p = mul_program();
  ExpandResult ex = expand_program(p);
  RangeOptions opt;
  opt.input_bounds.emplace_back(ex.op_nodes[0].first, Bound::exact(bits_max(128)));
  LintReport rep;
  RangeResult res = analyze_wide(ex.wide, opt, {}, rep);
  EXPECT_FALSE(res.proven);
  EXPECT_FALSE(rep.ranges_proven);
  EXPECT_TRUE(has_rule(rep, Rule::kReduceMissing)) << lint_text({{"seed", rep}});
  // a feeds t0 and the t2 lazy sum; only the multiplier contract fires.
  EXPECT_EQ(count_rule(rep, Rule::kReduceMissing), 1);
  EXPECT_FALSE(has_rule(rep, Rule::kRangeUnbounded));
}

// A pure width overflow (no canonicality contract involved): two 128-bit
// values into a 128-bit lazy-sum register.
TEST(RangeDefects, RegisterOverflowFiresOverflowPossible) {
  WideProgram wp;
  int a = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "a"});
  int b = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "b"});
  wp.add({WideKind::kLazyAdd, a, b, 128, InLimit::kNone, -1, -1, "s"});
  RangeOptions opt;
  opt.input_bounds.emplace_back(a, Bound::exact(bits_max(128)));
  opt.input_bounds.emplace_back(b, Bound::exact(bits_max(128)));
  LintReport rep;
  RangeResult res = analyze_wide(wp, opt, {}, rep);
  EXPECT_FALSE(res.proven);
  EXPECT_EQ(count_rule(rep, Rule::kOverflowPossible), 1);
  EXPECT_FALSE(has_rule(rep, Rule::kReduceMissing));
}

// A redundant reduction — folding a value that is already canonical — is
// advisory: the program still proves, but the fold is flagged.
TEST(RangeDefects, RedundantReductionIsAdvisory) {
  WideProgram wp;
  int a = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "a"});
  wp.add({WideKind::kFold, a, -1, 127, InLimit::kBits256, -1, -1, "z"});
  LintReport rep;
  RangeResult res = analyze_wide(wp, {}, {}, rep);
  EXPECT_TRUE(res.proven);
  EXPECT_EQ(res.stats.reduce_sites, 1);
  EXPECT_EQ(res.stats.redundant_reduces, 1);
  EXPECT_TRUE(has_rule(rep, Rule::kReduceRedundant));
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_EQ(rep.warnings(), 1);
}

// A loop-carried value that grows every iteration (a lazy sum fed back
// without a reduce) has no finite fixed point: the carried bound must widen
// to Top and the analysis must say so rather than loop forever or
// under-approximate.
TEST(RangeDefects, UnreducedCarriedValueWidens) {
  WideProgram wp;
  int in = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "carry"});
  int s = wp.add({WideKind::kLazyAdd, in, in, 0, InLimit::kNone, -1, -1, "grow"});
  LintReport rep;
  RangeResult res = analyze_wide(wp, {}, {{in, s}}, rep);
  EXPECT_FALSE(res.proven);
  EXPECT_EQ(res.stats.widened, 1);
  EXPECT_TRUE(res.bounds[static_cast<size_t>(in)].top);
  EXPECT_TRUE(has_rule(rep, Rule::kBoundWideningLoop)) << lint_text({{"widen", rep}});
  EXPECT_EQ(rep.range_widened, 1);

  // The fixed datapath closes the loop with a fold: same shape plus a
  // reduce converges to canonical with no widening.
  WideProgram ok;
  int in2 = ok.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "carry"});
  int s2 = ok.add({WideKind::kLazyAdd, in2, in2, 128, InLimit::kNone, -1, -1, "sum"});
  int z2 = ok.add({WideKind::kFold, s2, -1, 127, InLimit::kBits128, -1, -1, "z"});
  LintReport rep2;
  RangeResult res2 = analyze_wide(ok, {}, {{in2, z2}}, rep2);
  EXPECT_TRUE(res2.proven) << lint_text({{"fold", rep2}});
  EXPECT_EQ(res2.stats.widened, 0);
  EXPECT_EQ(res2.bounds[static_cast<size_t>(in2)].max, canonical_max());
}

// Select candidates with unequal bounds: the chosen magnitude depends on
// the secret digit. Advisory (the join still takes the max), but flagged.
TEST(RangeDefects, SelectBoundDivergenceIsFlagged) {
  WideProgram wp;
  int a = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "a"});
  int b = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "b"});
  wp.joins.push_back({a, b});
  int j = wp.add({WideKind::kJoin, -1, -1, 0, InLimit::kNone, -1, 0, "sel"});
  RangeOptions opt;
  opt.input_bounds.emplace_back(b, Bound::of_u64(5));
  LintReport rep;
  RangeResult res = analyze_wide(wp, opt, {}, rep);
  EXPECT_TRUE(res.proven);
  EXPECT_TRUE(has_rule(rep, Rule::kSelectBoundDivergence));
  // The join itself is sound: it holds the larger candidate bound.
  EXPECT_EQ(res.bounds[static_cast<size_t>(j)].max, canonical_max());
}

// ---- Certificate ----------------------------------------------------------

TEST(RangeCertificate, CleanCertificateReplays) {
  trace::Program p = mul_program();
  LintReport rep;
  ProgramRanges pr = analyze_program(p, {}, rep);
  ASSERT_TRUE(pr.result.proven);

  LintReport replay;
  EXPECT_TRUE(check_certificate(pr, {}, replay));
  EXPECT_EQ(replay.errors(), 0);

  std::string json = ranges_json({{"mul", &pr}});
  EXPECT_NE(json.find("\"fourq.ranges.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"proven\":true"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"mul-core\""), std::string::npos);
}

TEST(RangeCertificate, TamperedBoundIsRejected) {
  trace::Program p = mul_program();
  LintReport rep;
  ProgramRanges pr = analyze_program(p, {}, rep);
  ASSERT_TRUE(pr.result.proven);

  // Claim a tighter bound than the t6 transfer justifies.
  int t6 = node_with_role(pr.expand.wide, 2, "t6");
  pr.result.bounds[static_cast<size_t>(t6)] = Bound::of_u64(1);
  LintReport replay;
  EXPECT_FALSE(check_certificate(pr, {}, replay));
  EXPECT_TRUE(has_rule(replay, Rule::kRangeCertInvalid)) << lint_text({{"tamper", replay}});

  // Loosening is sound and must still replay — but only if every downstream
  // claim is loosened consistently (t8 inherits t6's bound via the monus).
  pr.result.bounds[static_cast<size_t>(t6)] = Bound::exact(bits_max(256));
  int t8 = node_with_role(pr.expand.wide, 2, "t8");
  pr.result.bounds[static_cast<size_t>(t8)] = Bound::exact(bits_max(256));
  LintReport loose;
  EXPECT_TRUE(check_certificate(pr, {}, loose));
}

TEST(RangeCertificate, BrokenFixedPointIsRejected) {
  // in(op0) -> add(op0, op0) = op1, with op1 carried back into op0.
  trace::Program p;
  int a = p.add_op({trace::OpKind::kInput, {}, {}, "a"});
  int s = p.add_op({trace::OpKind::kAdd, trace::Operand::of(a),
                    trace::Operand::of(a), "s"});
  p.outputs.emplace_back(s, "s");
  RangeOptions opt;
  opt.carried.emplace_back(a, s);

  LintReport rep;
  ProgramRanges pr = analyze_program(p, opt, rep);
  ASSERT_TRUE(pr.result.proven);
  LintReport replay;
  EXPECT_TRUE(check_certificate(pr, opt, replay));

  // Tighten the carried input below its loop source: no longer a fixed point.
  pr.result.bounds[static_cast<size_t>(pr.expand.op_nodes[0].first)] = Bound::of_u64(1);
  LintReport broken;
  EXPECT_FALSE(check_certificate(pr, opt, broken));
  EXPECT_TRUE(has_rule(broken, Rule::kRangeCertInvalid));

  // A truncated bounds vector is rejected outright.
  pr.result.bounds.pop_back();
  LintReport truncated;
  EXPECT_FALSE(check_certificate(pr, {}, truncated));
}

// ---- ROM-side pass --------------------------------------------------------

TEST(RangeRom, LoopBodyAgreesWithDagProof) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileOptions copt;
  copt.solver = sched::Solver::kSequential;
  sched::CompileResult res = sched::compile_program(body.program, copt);

  LintReport dag_rep;
  ProgramRanges dag = analyze_program(body.program, {}, dag_rep);
  ASSERT_TRUE(dag.result.proven) << lint_text({{"dag", dag_rep}});

  LintReport rep;
  analyze_rom(res.sm, body.program, dag, rep);
  EXPECT_TRUE(rep.ranges_checked);
  EXPECT_TRUE(rep.ranges_proven) << lint_text({{"rom", rep}});
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_GT(rep.range_nodes, 0);
  EXPECT_GT(rep.range_reduce_sites, 0);
}

TEST(RangeRom, TamperedDagBoundFiresMismatch) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::CompileOptions copt;
  copt.solver = sched::Solver::kSequential;
  sched::CompileResult res = sched::compile_program(body.program, copt);

  LintReport dag_rep;
  ProgramRanges dag = analyze_program(body.program, {}, dag_rep);
  ASSERT_TRUE(dag.result.proven);

  // Understate the DAG-side bound of the first multiplication's real
  // component: the ROM recomputes the honest (larger) bound and the
  // dominance check must catch the disagreement.
  for (size_t i = 0; i < body.program.ops.size(); ++i) {
    if (body.program.ops[i].kind != trace::OpKind::kMul) continue;
    dag.result.bounds[static_cast<size_t>(dag.expand.op_nodes[i].first)] =
        Bound::of_u64(1);
    break;
  }
  LintReport rep;
  analyze_rom(res.sm, body.program, dag, rep);
  EXPECT_FALSE(rep.ranges_proven);
  EXPECT_TRUE(has_rule(rep, Rule::kDagRomBoundMismatch)) << lint_text({{"rom", rep}});
}

// ---- Concrete interpreter: soundness + differential vs field::Fp2 ---------

// a*b, a+b, (a*b)-(a+b), conj of that — every datapath shape, chained.
trace::Program mixed_program() {
  trace::Program p;
  int a = p.add_op({trace::OpKind::kInput, {}, {}, "a"});
  int b = p.add_op({trace::OpKind::kInput, {}, {}, "b"});
  int m = p.add_op({trace::OpKind::kMul, trace::Operand::of(a),
                    trace::Operand::of(b), "m"});
  int s = p.add_op({trace::OpKind::kAdd, trace::Operand::of(a),
                    trace::Operand::of(b), "s"});
  int d = p.add_op({trace::OpKind::kSub, trace::Operand::of(m),
                    trace::Operand::of(s), "d"});
  int c = p.add_op({trace::OpKind::kConj, trace::Operand::of(d), {}, "c"});
  p.outputs.emplace_back(c, "c");
  return p;
}

U512 wide_of(const field::Fp& v) { return U512(v.to_u256()); }

U256 canon(const U512& v) {
  return mod(v, U256(~0ull, 0x7fffffffffffffffull, 0, 0));
}

TEST(RangeEval, RandomSoundnessAndFp2Differential) {
  trace::Program p = mixed_program();
  LintReport rep;
  ProgramRanges pr = analyze_program(p, {}, rep);
  ASSERT_TRUE(pr.result.proven);
  const WideProgram& wp = pr.expand.wide;

  auto check = [&](const field::Fp2& a, const field::Fp2& b, const std::string& what) {
    std::vector<std::pair<int, U512>> inputs = {
        {pr.expand.op_nodes[0].first, wide_of(a.re())},
        {pr.expand.op_nodes[0].second, wide_of(a.im())},
        {pr.expand.op_nodes[1].first, wide_of(b.re())},
        {pr.expand.op_nodes[1].second, wide_of(b.im())},
    };
    std::vector<U512> v;
    // Any invariant break (negative Karatsuba middle term, failed p<<127
    // correction, stage-register overflow) throws; a proven program must
    // execute every input cleanly.
    ASSERT_NO_THROW(v = eval_wide(wp, inputs, {})) << what;

    // Soundness: every executed value respects its proven bound.
    for (size_t n = 0; n < v.size(); ++n) {
      const Bound& bd = pr.result.bounds[n];
      ASSERT_FALSE(bd.top);
      ASSERT_TRUE(bd.max >= v[n]) << what << " node " << n;
    }

    // Differential: the micro-op semantics agree with field::Fp2.
    field::Fp2 want = ((a * b) - (a + b)).conj();
    auto [re, im] = pr.expand.op_nodes[static_cast<size_t>(p.outputs[0].first)];
    EXPECT_EQ(canon(v[static_cast<size_t>(re)]), canon(wide_of(want.re()))) << what;
    EXPECT_EQ(canon(v[static_cast<size_t>(im)]), canon(wide_of(want.im()))) << what;
  };

  // The extreme operands in every pairing: 0, 1, i, p - 1, (p - 1)(1 + i).
  const field::Fp pm1 = field::Fp() - field::Fp::from_u64(1);
  const field::Fp2 edges[] = {field::Fp2(), field::Fp2::from_u64(1), field::Fp2::from_u64(0, 1),
                              field::Fp2(pm1, field::Fp()), field::Fp2(pm1, pm1)};
  for (const field::Fp2& a : edges)
    for (const field::Fp2& b : edges) check(a, b, a.to_hex() + " * " + b.to_hex());

  Rng rng(42);
  auto random_fp = [&] {
    uint64_t lo = rng.next_u64();
    uint64_t hi = rng.next_u64() & 0x7fffffffffffffffull;
    if (hi == 0x7fffffffffffffffull && lo == ~0ull) lo = 0;  // keep < p
    return field::Fp::from_words(lo, hi);
  };
  for (int trial = 0; trial < 10000; ++trial) {
    field::Fp2 a(random_fp(), random_fp());
    field::Fp2 b(random_fp(), random_fp());
    check(a, b, "trial " + std::to_string(trial));
  }
}

TEST(RangeEval, SelectPicksCandidate) {
  trace::Program p;
  int a = p.add_op({trace::OpKind::kInput, {}, {}, "a"});
  int b = p.add_op({trace::OpKind::kInput, {}, {}, "b"});
  trace::SelectTable t;
  t.candidates = {{a, b}};
  p.tables.push_back(t);
  trace::Op sel_op;
  sel_op.kind = trace::OpKind::kSelect;
  sel_op.a = trace::Operand{trace::SelKind::kDigitTable, -1, 0, 0};
  int sel = p.add_op(sel_op);
  int z = p.add_op({trace::OpKind::kAdd, trace::Operand::of(sel),
                    trace::Operand::of(a), "z"});
  p.outputs.emplace_back(z, "z");

  LintReport rep;
  ProgramRanges pr = analyze_program(p, {}, rep);
  ASSERT_TRUE(pr.result.proven);
  ASSERT_EQ(pr.expand.wide.joins.size(), 2u);  // sel.re and sel.im

  field::Fp2 av = field::Fp2::from_u64(3, 4), bv = field::Fp2::from_u64(5, 6);
  std::vector<std::pair<int, U512>> inputs = {
      {pr.expand.op_nodes[0].first, wide_of(av.re())},
      {pr.expand.op_nodes[0].second, wide_of(av.im())},
      {pr.expand.op_nodes[1].first, wide_of(bv.re())},
      {pr.expand.op_nodes[1].second, wide_of(bv.im())},
  };
  auto [zre, zim] = pr.expand.op_nodes[static_cast<size_t>(z)];
  for (int c = 0; c < 2; ++c) {
    std::vector<U512> v = eval_wide(pr.expand.wide, inputs, {c, c});
    field::Fp2 want = (c == 0 ? av : bv) + av;
    EXPECT_EQ(canon(v[static_cast<size_t>(zre)]), canon(wide_of(want.re())));
    EXPECT_EQ(canon(v[static_cast<size_t>(zim)]), canon(wide_of(want.im())));
  }
}

// eval_wide enforces the stage invariants it documents: feeding an
// unreduced operand into the 127-bit multiplier contract of a *defective*
// expansion trips the register-width check.
TEST(RangeEval, InvariantViolationThrows) {
  WideProgram wp;
  int a = wp.add({WideKind::kInput, -1, -1, 0, InLimit::kNone, -1, -1, "a"});
  wp.add({WideKind::kLazyAdd, a, a, 127, InLimit::kNone, -1, -1, "s"});
  U512 big = shl(U512(U256(1)), 126);
  EXPECT_THROW(eval_wide(wp, {{a, big}}, {}), std::logic_error);
}

// ---- Diagnostic determinism -----------------------------------------------

// The finding list is canonically ordered (rule, node, cycle, reg, message)
// and the JSON document is byte-stable across identical runs — required for
// fleet-lint artifact diffing in CI.
TEST(RangeReport, FindingsSortedAndJsonDeterministic) {
  trace::Program p = mul_program();
  ExpandResult ex = expand_program(p);
  RangeOptions opt;
  // Two defects at once: both multiplier operands unreduced.
  opt.input_bounds.emplace_back(ex.op_nodes[0].first, Bound::exact(bits_max(128)));
  opt.input_bounds.emplace_back(ex.op_nodes[1].second, Bound::exact(bits_max(128)));

  auto run = [&] {
    LintReport rep;
    analyze_wide(ex.wide, opt, {}, rep);
    return rep;
  };
  LintReport r1 = run(), r2 = run();
  ASSERT_GE(r1.findings.size(), 2u);
  auto key = [](const Finding& f) {
    return std::tie(f.rule, f.node, f.cycle, f.reg, f.message);
  };
  EXPECT_TRUE(std::is_sorted(r1.findings.begin(), r1.findings.end(),
                             [&](const Finding& x, const Finding& y) {
                               return key(x) < key(y);
                             }));
  EXPECT_EQ(lint_json({{"seed", r1}}), lint_json({{"seed", r2}}));
}

}  // namespace
}  // namespace fourq::analysis::range

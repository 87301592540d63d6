// Scalar multiplication on FourQ — the paper's Algorithm 1, written once.
//
// Alg. 1's phases are templates over the field type F below, like the
// point formulas of point.hpp they call:
//   1. aux_points: the three auxiliary points (3 x 64 doublings);
//   2. table_r1: the 8-entry table, 7 additions;
//   3. digit_loop: the 65-digit signed double-and-add over a digit read
//      the caller supplies;
//   4. correction_operands: the even-k correction's two candidates.
// Four programs instantiate them:
//   * scalar_mul (F = Fp2): table in projective R2, full add();
//   * FixedBaseMul::mul (fixed_base.hpp): table normalised once to affine
//     R2, add_mixed();
//   * the flat and dual-stream traced programs (trace/sm_trace.cpp,
//     F = trace::Fp2Var), whose digit and correction reads are
//     runtime-indexed register reads;
//   * the looped controller's prologue and epilogue (asic/looped.cpp),
//     whose body replays one loop step per digit.
//
// scalar_mul_reference() is the classic 256-bit double-and-add of §II-A,
// both the correctness oracle and the baseline the 4-way decomposition is
// compared against (the "1/4 of the iterations" claim of §II-B.3).
#pragma once

#include <array>

#include "curve/point.hpp"
#include "curve/scalar.hpp"

namespace fourq::curve {

// p doubled n times.
template <class F>
R1T<F> dbl_n(R1T<F> p, int n) {
  for (int i = 0; i < n; ++i) p = dbl(p);
  return p;
}

// Phase 1: [2^64]P, [2^128]P, [2^192]P, standing in for phi(P), psi(P)
// and psi(phi(P)) (DESIGN.md §2 substitution).
template <class F>
std::array<R1T<F>, 3> aux_points(const R1T<F>& p) {
  const R1T<F> p2 = dbl_n(p, 64);
  const R1T<F> p3 = dbl_n(p2, 64);
  return {p2, p3, dbl_n(p3, 64)};
}

// Phase 2 (Alg. 1 step 2): T[u] = P + u0*P2 + u1*P3 + u2*P4 for
// u = (u2 u1 u0)_2, in R1; (P2, P3, P4) = aux. Exactly 7 additions:
// T1 = T0+P2, T2 = T0+P3, T3 = T1+P3, T4..T7 = T0..T3 + P4.
template <class F>
std::array<R1T<F>, 8> table_r1(const R1T<F>& p, const std::array<R1T<F>, 3>& aux,
                               const F& two_d) {
  const R2T<F> p2 = to_r2(aux[0], two_d), p3 = to_r2(aux[1], two_d), p4 = to_r2(aux[2], two_d);
  std::array<R1T<F>, 8> t;
  t[0] = p;
  t[1] = add(t[0], p2);
  t[2] = add(t[0], p3);
  t[3] = add(t[1], p3);
  for (size_t u = 0; u < 4; ++u) t[u + 4] = add(t[u], p4);
  return t;
}

// Phase 3 (Alg. 1 lines 6-10): from Q = identity, for each digit i from
// the top, Q = 2Q then Q = Q + read(i), where read(i) is digit i's signed
// table entry in the form the caller's add() takes (R2 or affine R2). The
// top digit skips the doubling, which would double the identity.
template <class F, class Read>
R1T<F> digit_loop(const F& zero, const F& one, int digits, Read&& read) {
  R1T<F> q = identity_r1(zero, one);
  for (int i = digits - 1; i >= 0; --i) {
    if (i != digits - 1) q = dbl(q);
    q = add(q, read(i));
  }
  return q;
}

// Phase 4 (Alg. 1 step 11): the uniform even-k correction always adds one
// more point: the identity (1, 1, 2, 0) when k was odd, -P when decompose()
// made an even k odd. Both in R2, indexed by Decomposition::k_was_even.
template <class F>
std::array<R2T<F>, 2> correction_operands(const R1T<F>& p, const F& zero, const F& one,
                                          const F& two_d) {
  return {R2T<F>{one, one, one + one, zero}, neg_r2(to_r2(p, two_d), zero)};
}

// [k]P for any k in [0, 2^256). Cost: fixed-shape program independent of k.
PointR1 scalar_mul(const U256& k, const Affine& p);

// Classic double-and-add (the paper's §II-A baseline).
PointR1 scalar_mul_reference(const U256& k, const Affine& p);

// [k]P for a 64-bit k by double-and-add from k's top set bit (so [392]P
// costs 8 doublings and 3 additions). Used for cofactor checks, tests and
// parameter validation.
PointR1 mul_small(uint64_t k, const PointR1& p);

// Number of point doublings/additions the two algorithms perform for a
// 256-bit scalar — used by the op-mix profiling bench (experiment E5).
struct MulOpCounts {
  int doublings = 0;
  int additions = 0;
};
MulOpCounts scalar_mul_op_counts();
MulOpCounts reference_op_counts();

}  // namespace fourq::curve

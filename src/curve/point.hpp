// Point representations on the twisted Edwards curve (paper §II-B, §III).
//
// Representations follow Costello–Longa / the paper:
//   Affine : (x, y)
//   R1     : (X, Y, Z, Ta, Tb) extended projective with T = Ta*Tb — the
//            working representation of the accumulator Q.
//   R2     : (X+Y, Y-X, 2Z, 2dT) — the representation the 8-entry table is
//            stored in (paper Alg. 1 step 2).
//
// All formula templates are parameterised over the field type F so the same
// source is instantiated with field::Fp2 (functional path) and with the
// tracing value type trace::Fp2Var (microinstruction extraction) — the C++
// equivalent of the paper's Python execution-trace recording.
#pragma once

#include <vector>

#include "curve/params.hpp"

namespace fourq::curve {

template <class F>
struct AffineT {
  F x, y;
};

template <class F>
struct R1T {
  F X, Y, Z, Ta, Tb;  // T = Ta * Tb
};

template <class F>
struct R2T {
  F xpy;  // X + Y
  F ymx;  // Y - X
  F z2;   // 2Z
  F dt2;  // 2dT
};

// Affine-normalised R2: (x+y, y-x, 2d*x*y) with Z = 1 implicit. The z2
// coordinate of a general R2 point degenerates to the constant 2, so the
// D = Z1*z2 multiplication of the unified addition becomes a doubling of
// Z1 — mixed addition costs 7M instead of 8M. Tables and Pippenger bucket
// inputs are stored in this form after a batched normalisation
// (batch_to_r2aff, one shared field inversion).
template <class F>
struct R2AffT {
  F xpy;  // x + y
  F ymx;  // y - x
  F dt2;  // 2d*x*y
};

using Affine = AffineT<Fp2>;
using PointR1 = R1T<Fp2>;
using PointR2 = R2T<Fp2>;
using PointR2Aff = R2AffT<Fp2>;

// `sqr(v)` hook: concrete fields use the optimised squaring; tracing types
// record it as a plain multiplication (hardware has one multiplier).
inline Fp2 sqr(const Fp2& v) { return v.sqr(); }

// --- Generic formulas (single source of truth, see header comment) --------

// Identity element (0, 1) in R1.
template <class F>
R1T<F> identity_r1(const F& zero, const F& one) {
  return R1T<F>{zero, one, one, zero, one};
}

// Affine -> R1 (Z = 1, Ta = x, Tb = y).
template <class F>
R1T<F> to_r1(const AffineT<F>& p, const F& one) {
  return R1T<F>{p.x, p.y, one, p.x, p.y};
}

// R1 -> R2: (X+Y, Y-X, 2Z, 2d*Ta*Tb). Cost 2M + 3A (one mul is by the
// constant 2d).
template <class F>
R2T<F> to_r2(const R1T<F>& p, const F& two_d) {
  F t = p.Ta * p.Tb;
  return R2T<F>{p.X + p.Y, p.Y - p.X, p.Z + p.Z, t * two_d};
}

// Negation of an R2 point: swap the (X+Y)/(Y-X) coordinates, negate 2dT.
template <class F>
R2T<F> neg_r2(const R2T<F>& p, const F& zero) {
  return R2T<F>{p.ymx, p.xpy, p.z2, zero - p.dt2};
}

// Point doubling R1 -> R1 (a = -1 twisted Edwards, Hisil et al.):
// 3M + 4S + 6A — with S folded into M on the single-multiplier datapath,
// 7 multiplications, matching the paper's 15M loop body together with ADD.
template <class F>
R1T<F> dbl(const R1T<F>& p) {
  F a = sqr(p.X);            // X^2
  F b = sqr(p.Y);            // Y^2
  F c = sqr(p.Z);
  c = c + c;                 // 2Z^2
  F h = a + b;
  F e = sqr(p.X + p.Y) - h;  // 2XY
  F g = b - a;
  F f = c - g;
  return R1T<F>{e * f, g * h, f * g, e, h};
}

// Unified addition R1 + R2 -> R1 (a = -1, d' = 2d; complete on this curve):
// 8M + 6A. The completeness of the twisted Edwards formulas means the same
// microinstruction sequence handles every input — required for the
// input-independent FSM schedule.
template <class F>
R1T<F> add(const R1T<F>& p, const R2T<F>& q) {
  F t = p.Ta * p.Tb;         // T1
  F a = (p.Y - p.X) * q.ymx;
  F b = (p.Y + p.X) * q.xpy;
  F c = t * q.dt2;
  F d = p.Z * q.z2;
  F e = b - a;
  F f = d - c;
  F g = d + c;
  F h = b + a;
  return R1T<F>{e * f, g * h, f * g, e, h};
}

// Mixed unified addition R1 + normalised-R2 -> R1: 7M + 7A. Identical
// formula to add() with the Z1*z2 product replaced by Z1 + Z1 (z2 == 2).
// Complete, like add().
template <class F>
R1T<F> add_mixed(const R1T<F>& p, const R2AffT<F>& q) {
  F t = p.Ta * p.Tb;
  F a = (p.Y - p.X) * q.ymx;
  F b = (p.Y + p.X) * q.xpy;
  F c = t * q.dt2;
  F d = p.Z + p.Z;  // Z1 * 2, the mixed-addition saving
  F e = b - a;
  F f = d - c;
  F g = d + c;
  F h = b + a;
  return R1T<F>{e * f, g * h, f * g, e, h};
}

// Negation of a normalised R2 point: swap the sum/difference coordinates,
// negate 2dT.
template <class F>
R2AffT<F> neg_r2aff(const R2AffT<F>& p, const F& zero) {
  return R2AffT<F>{p.ymx, p.xpy, zero - p.dt2};
}

// --- Concrete-field utilities ---------------------------------------------

// R1 -> affine (one field inversion).
Affine to_affine(const PointR1& p);

// Projective equality: X1*Z2 == X2*Z1 && Y1*Z2 == Y2*Z1.
bool equal(const PointR1& a, const PointR1& b);
bool is_identity(const PointR1& p);

// Curve membership: -x^2 + y^2 == 1 + d x^2 y^2.
bool on_curve(const Affine& p);
// Checks the projective coordinates are consistent (T = Ta*Tb, Z != 0) and
// the underlying affine point is on the curve.
bool on_curve(const PointR1& p);

// Affine negation.
inline Affine neg(const Affine& p) { return Affine{-p.x, p.y}; }

// Reference affine addition via the rational addition law (uses field
// inversions; test oracle for the projective formulas).
Affine affine_add(const Affine& p, const Affine& q);

PointR1 identity();
PointR1 to_r1(const Affine& p);
PointR2 to_r2(const PointR1& p);
PointR2 neg_r2(const PointR2& p);
PointR2Aff neg_r2aff(const PointR2Aff& p);

// Affine -> normalised R2 (2 multiplications, no inversion).
PointR2Aff to_r2aff(const Affine& p);

// Batched normalisation via Montgomery's simultaneous-inversion trick:
// one field inversion for the whole array (plus ~7M per point), instead of
// one inversion per point. Points must have Z != 0 (always true for results
// of the complete formulas).
std::vector<Affine> batch_to_affine(const std::vector<PointR1>& ps);
std::vector<PointR2Aff> batch_to_r2aff(const std::vector<PointR1>& ps);

// Deterministically finds a curve point: scans x = (j, seed) for the first
// j >= 1 for which y^2 = (1 + x^2) / (1 - d x^2) has a root. Points are in
// the full group E(F_{p^2}) (order 2^3 * 7^2 * N), which is what the
// group-law and scalar-multiplication identities require.
Affine deterministic_point(uint64_t seed);

}  // namespace fourq::curve

// Scalar multiplication on FourQ — the paper's Algorithm 1.
//
// scalar_mul() is the production path: 4-way decomposition, 8-entry table
// in R2 coordinates, signed recoding, 64-iteration double-and-add loop with
// complete (unified) additions, uniform even-k correction.
//
// scalar_mul_reference() is the classic 256-bit double-and-add of §II-A,
// both the correctness oracle and the baseline the 4-way decomposition is
// compared against (the "1/4 of the iterations" claim of §II-B.3).
#pragma once

#include <array>

#include "curve/point.hpp"
#include "curve/scalar.hpp"

namespace fourq::curve {

// The three auxiliary points standing in for phi(P), psi(P), psi(phi(P)):
// [2^64]P, [2^128]P, [2^192]P (DESIGN.md §2 substitution).
struct BasePoints {
  PointR1 p;
  PointR1 p2;  // [2^64]P
  PointR1 p3;  // [2^128]P
  PointR1 p4;  // [2^192]P
};

BasePoints compute_base_points(const Affine& p);

// 8-entry table T[u] = P + u0*P2 + u1*P3 + u2*P4, u = (u2 u1 u0)_2, stored
// in R2 (paper Alg. 1, step 2). Exactly 7 point additions.
std::array<PointR2, 8> build_table(const BasePoints& bp);
// Same table before the R2 conversion, for callers that normalise the
// entries to affine R2 instead (FixedBaseMul's batched inversion).
std::array<PointR1, 8> build_table_r1(const BasePoints& bp);

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

// Fixed-base scalar multiplication with cached precomputation.
//
// Protocols multiply the same base point over and over (the generator in
// key generation and signing, a public key in repeated verifications). The
// expensive scalar-independent phases of Algorithm 1 (scalarmul.hpp's
// aux_points and table_r1) depend only on P, so they run once here, and
// one shared inversion normalises the table to affine R2. mul() then runs
// only digit_loop and the even-k correction, on mixed additions. This
// mirrors the ASIC's usage model: the host loads the table once, then
// streams scalars (the ROM's per-scalar part is just the main loop +
// correction + normalisation).
#pragma once

#include "curve/scalarmul.hpp"

namespace fourq::curve {

class FixedBaseMul {
 public:
  explicit FixedBaseMul(const Affine& base);

  const Affine& base() const { return base_; }

  // [k]P for any k in [0, 2^256), reusing the cached table.
  PointR1 mul(const U256& k) const;

  // Per-scalar operation counts (the amortised cost: loop + correction).
  static MulOpCounts per_scalar_op_counts();

 private:
  Affine base_;
  // Table entries are batch-normalised to affine R2 once at construction
  // (one shared inversion), so every per-scalar addition is a 7M mixed add.
  std::array<PointR2Aff, 8> table_;
  std::array<PointR2Aff, 2> corr_;  // correction_operands(P) in affine R2
};

}  // namespace fourq::curve

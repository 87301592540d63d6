#include "curve/scalarmul.hpp"

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fourq::curve {

PointR1 scalar_mul(const U256& k, const Affine& p) {
  FOURQ_SPAN("curve.scalar_mul");
  FOURQ_COUNTER_INC("curve.scalar_mul.calls");

  const Fp2 zero, one = Fp2::from_u64(1);
  const PointR1 p1 = to_r1(p);
  std::array<PointR2, 8> table;
  {
    FOURQ_SPAN("curve.precompute");
    const std::array<PointR1, 8> t1 = table_r1(p1, aux_points(p1), curve_2d());
    for (size_t u = 0; u < 8; ++u) table[u] = to_r2(t1[u]);
  }

  Decomposition dec;
  RecodedScalar rec;
  {
    FOURQ_SPAN("curve.decompose");
    dec = decompose(k);
    rec = recode(dec.a);
  }

  PointR1 q;
  {
    FOURQ_SPAN("curve.loop");
    q = digit_loop(zero, one, kDigits, [&](int i) {
      const PointR2& entry = table[rec.digit[static_cast<size_t>(i)]];
      return rec.sign[static_cast<size_t>(i)] > 0 ? entry : neg_r2(entry);
    });
    q = add(q, correction_operands(p1, zero, one, curve_2d())[dec.k_was_even]);
  }
  return q;
}

PointR1 scalar_mul_reference(const U256& k, const Affine& p) {
  PointR2 p2 = to_r2(to_r1(p));
  PointR1 q = identity();
  for (int i = 255; i >= 0; --i) {
    q = dbl(q);
    if (k.bit(static_cast<unsigned>(i))) q = add(q, p2);
  }
  return q;
}

PointR1 mul_small(uint64_t k, const PointR1& p) {
  PointR1 q = identity();
  if (k == 0) return q;
  // From k's top set bit. The coordinates equal a full 64-bit
  // double-and-add's: doubling the identity returns its own coordinates.
  PointR2 p2 = to_r2(p);
  const int top = 63 - __builtin_clzll(k);
  for (int i = top; i >= 0; --i) {
    if (i != top) q = dbl(q);
    if ((k >> i) & 1) q = add(q, p2);
  }
  return q;
}

MulOpCounts scalar_mul_op_counts() {
  MulOpCounts c;
  c.doublings = 3 * 64 + (kDigits - 1);      // base points + main loop
  c.additions = 7 + kDigits + 1;             // table + loop digits + correction
  return c;
}

MulOpCounts reference_op_counts() {
  // Doublings always run; additions on average half the bits, worst case 256.
  return MulOpCounts{256, 256};
}

}  // namespace fourq::curve

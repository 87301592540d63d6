#include "curve/scalarmul.hpp"

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fourq::curve {

namespace {

PointR1 dbl_n(PointR1 p, int n) {
  for (int i = 0; i < n; ++i) p = dbl(p);
  return p;
}

}  // namespace

BasePoints compute_base_points(const Affine& p) {
  BasePoints bp;
  bp.p = to_r1(p);
  bp.p2 = dbl_n(bp.p, 64);
  bp.p3 = dbl_n(bp.p2, 64);
  bp.p4 = dbl_n(bp.p3, 64);
  return bp;
}

std::array<PointR1, 8> build_table_r1(const BasePoints& bp) {
  // T[0] = P; T[u | 1<<j] = T[u] + P_{j+2}. Seven additions total:
  // T1 = T0+P2, T2 = T0+P3, T3 = T1+P3, T4 = T0+P4, T5 = T1+P4,
  // T6 = T2+P4, T7 = T3+P4.
  PointR2 p2 = to_r2(bp.p2), p3 = to_r2(bp.p3), p4 = to_r2(bp.p4);
  std::array<PointR1, 8> t1;
  t1[0] = bp.p;
  t1[1] = add(t1[0], p2);
  t1[2] = add(t1[0], p3);
  t1[3] = add(t1[1], p3);
  for (int u = 0; u < 4; ++u) t1[u + 4] = add(t1[u], p4);
  return t1;
}

std::array<PointR2, 8> build_table(const BasePoints& bp) {
  std::array<PointR1, 8> t1 = build_table_r1(bp);
  std::array<PointR2, 8> table;
  for (int u = 0; u < 8; ++u) table[u] = to_r2(t1[u]);
  return table;
}

PointR1 scalar_mul(const U256& k, const Affine& p) {
  FOURQ_SPAN("curve.scalar_mul");
  FOURQ_COUNTER_INC("curve.scalar_mul.calls");

  BasePoints bp;
  std::array<PointR2, 8> table;
  {
    FOURQ_SPAN("curve.precompute");
    bp = compute_base_points(p);
    table = build_table(bp);
  }

  Decomposition dec;
  RecodedScalar rec;
  {
    FOURQ_SPAN("curve.decompose");
    dec = decompose(k);
    rec = recode(dec.a);
  }

  // Uniform main loop: Q starts at the identity and the digit-64 addition is
  // folded into the same complete-addition step as every other digit.
  PointR1 q = identity();
  {
    FOURQ_SPAN("curve.loop");
    for (int i = kDigits - 1; i >= 0; --i) {
      if (i != kDigits - 1) q = dbl(q);
      const PointR2& entry = table[rec.digit[i]];
      q = add(q, rec.sign[i] > 0 ? entry : neg_r2(entry));
    }

    // Uniform even-k correction: always one more complete addition; the
    // operand is -P when k was even and the identity otherwise.
    PointR2 correction = dec.k_was_even ? neg_r2(to_r2(bp.p)) : to_r2(identity());
    q = add(q, correction);
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

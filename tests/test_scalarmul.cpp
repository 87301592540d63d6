// End-to-end scalar multiplication tests (paper Alg. 1) against the
// double-and-add oracle and algebraic identities.
#include "curve/scalarmul.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace fourq::curve {
namespace {

TEST(ScalarMul, MatchesReferenceOnRandomScalars) {
  Rng rng(81);
  Affine p = deterministic_point(1);
  for (int i = 0; i < 25; ++i) {
    U256 k = rng.next_u256();
    PointR1 fast = scalar_mul(k, p);
    PointR1 slow = scalar_mul_reference(k, p);
    EXPECT_TRUE(equal(fast, slow)) << "k=" << k.to_hex();
    EXPECT_TRUE(on_curve(fast));
  }
}

TEST(ScalarMul, MatchesReferenceOnEvenScalars) {
  Rng rng(82);
  Affine p = deterministic_point(2);
  for (int i = 0; i < 10; ++i) {
    U256 k = rng.next_u256();
    k.set_bit(0, false);
    EXPECT_TRUE(equal(scalar_mul(k, p), scalar_mul_reference(k, p)));
  }
}

TEST(ScalarMul, SmallScalars) {
  Affine p = deterministic_point(3);
  PointR1 acc = identity();
  PointR2 p2 = to_r2(to_r1(p));
  for (uint64_t k = 0; k <= 20; ++k) {
    PointR1 got = scalar_mul(U256(k), p);
    EXPECT_TRUE(equal(got, acc)) << "k=" << k;
    acc = add(acc, p2);
  }
}

TEST(ScalarMul, ZeroGivesIdentity) {
  Affine p = deterministic_point(4);
  EXPECT_TRUE(is_identity(scalar_mul(U256(), p)));
}

TEST(ScalarMul, BoundaryScalars) {
  Affine p = deterministic_point(5);
  // 2^64, 2^64 - 1, 2^128, 2^192, 2^256 - 1: chunk boundaries.
  const U256 cases[] = {
      U256(0, 1, 0, 0),     U256(~0ull, 0, 0, 0),  U256(0, 0, 1, 0),
      U256(0, 0, 0, 1),     U256(~0ull, ~0ull, ~0ull, ~0ull),
      U256(1, 1, 1, 1),     U256(~0ull, ~0ull, 0, 0),
  };
  for (const U256& k : cases)
    EXPECT_TRUE(equal(scalar_mul(k, p), scalar_mul_reference(k, p))) << k.to_hex();
}

TEST(ScalarMul, Distributive) {
  // [a]P + [b]P == [a+b]P (mod 2^256 wrap is fine when a+b doesn't carry).
  Rng rng(83);
  Affine p = deterministic_point(6);
  U256 a = shr(rng.next_u256(), 1);  // keep a+b < 2^256
  U256 b = shr(rng.next_u256(), 1);
  U256 s;
  ASSERT_EQ(add(a, b, s), 0u);
  PointR1 lhs = add(scalar_mul(a, p), to_r2(scalar_mul(b, p)));
  EXPECT_TRUE(equal(lhs, scalar_mul(s, p)));
}

TEST(ScalarMul, Commutes) {
  // [a][b]P == [b][a]P
  Rng rng(84);
  Affine p = deterministic_point(7);
  U256 a(rng.next_u64()), b(rng.next_u64());
  Affine ap = to_affine(scalar_mul(a, p));
  Affine bp = to_affine(scalar_mul(b, p));
  EXPECT_TRUE(equal(scalar_mul(b, ap), scalar_mul(a, bp)));
}

TEST(ScalarMul, BasePointsAreCorrectMultiples) {
  Affine p = deterministic_point(8);
  std::array<PointR1, 3> aux = aux_points(to_r1(p));
  EXPECT_TRUE(equal(aux[0], scalar_mul_reference(U256(0, 1, 0, 0), p)));
  EXPECT_TRUE(equal(aux[1], scalar_mul_reference(U256(0, 0, 1, 0), p)));
  EXPECT_TRUE(equal(aux[2], scalar_mul_reference(U256(0, 0, 0, 1), p)));
}

TEST(ScalarMul, TableEntriesMatchDefinition) {
  Affine p = deterministic_point(9);
  const PointR1 p1 = to_r1(p);
  std::array<PointR1, 3> aux = aux_points(p1);
  std::array<PointR1, 8> table = table_r1(p1, aux, curve_2d());
  for (int u = 0; u < 8; ++u) {
    // T[u] = P + u0*P2 + u1*P3 + u2*P4.
    PointR1 expect = p1;
    if (u & 1) expect = add(expect, to_r2(aux[0]));
    if (u & 2) expect = add(expect, to_r2(aux[1]));
    if (u & 4) expect = add(expect, to_r2(aux[2]));
    EXPECT_TRUE(equal(table[static_cast<size_t>(u)], expect)) << u;
  }
}

TEST(ScalarMul, MulSmallMatches) {
  Affine p = deterministic_point(10);
  PointR1 r1 = to_r1(p);
  EXPECT_TRUE(equal(mul_small(12345, r1), scalar_mul(U256(12345), p)));
  EXPECT_TRUE(is_identity(mul_small(0, r1)));
}

TEST(ScalarMul, MulSmallStartsAtTopBitWithUnchangedOutputs) {
  // The 64-iteration double-and-add mul_small used to run: the doublings
  // it spends on the identity before k's top bit return the identity's own
  // coordinates, so starting at the top bit must not change one bit.
  auto full_loop = [](uint64_t k, const PointR1& p) {
    PointR2 p2 = to_r2(p);
    PointR1 q = identity();
    for (int i = 63; i >= 0; --i) {
      q = dbl(q);
      if ((k >> i) & 1) q = add(q, p2);
    }
    return q;
  };
  Affine p = deterministic_point(15);
  PointR1 r1 = to_r1(p);
  for (uint64_t k : {0ull, 1ull, 2ull, 7ull, 392ull, 1ull << 63, ~0ull}) {
    PointR1 got = mul_small(k, r1);
    EXPECT_TRUE(equal(got, scalar_mul(U256(k), p))) << k;
    PointR1 want = full_loop(k, r1);
    EXPECT_TRUE(got.X == want.X && got.Y == want.Y && got.Z == want.Z && got.Ta == want.Ta &&
                got.Tb == want.Tb)
        << k;
  }
  EXPECT_EQ(kCofactor, 392u);
}

TEST(ScalarMul, CofactorTimesSubgroupOrderKillsEveryPoint) {
  // #E = 2^3 * 7^2 * N: [392]([N]P) must be the identity for any P if the
  // candidate N is correct. Run only when parameters validate; this is the
  // full-group version of the generator order check.
  auto v = validate_params();
  if (!v.all_ok()) GTEST_SKIP() << "candidate FourQ constants failed validation";
  for (uint64_t s : {11ull, 12ull}) {
    Affine p = deterministic_point(s);
    PointR1 np = scalar_mul(candidate_subgroup_order(), p);
    PointR1 full = mul_small(392, np);
    EXPECT_TRUE(is_identity(full));
  }
}

TEST(ScalarMul, OrderTwoPoint) {
  // (0, -1) has order 2: [k]P is P for odd k, O for even k. Exercises the
  // complete-addition property throughout the whole pipeline (the table is
  // degenerate: many entries coincide or are the identity).
  Affine t{Fp2(), -Fp2::from_u64(1)};
  ASSERT_TRUE(on_curve(t));
  PointR1 t1 = to_r1(t);
  Rng rng(85);
  for (int i = 0; i < 6; ++i) {
    U256 k = rng.next_u256();
    PointR1 r = scalar_mul(k, t);
    if (k.is_odd()) {
      EXPECT_TRUE(equal(r, t1)) << k.to_hex();
    } else {
      EXPECT_TRUE(is_identity(r)) << k.to_hex();
    }
  }
}

TEST(ScalarMul, NegatedPointGivesNegatedResult) {
  Affine p = deterministic_point(13);
  Affine np = neg(p);
  U256 k = Rng(86).next_u256();
  PointR1 kp = scalar_mul(k, p);
  PointR1 knp = scalar_mul(k, np);
  // [k](-P) == -([k]P): sum must be the identity.
  EXPECT_TRUE(is_identity(add(kp, to_r2(knp))));
}

TEST(ScalarMul, ScalarOneAndOrderBoundaries) {
  Affine p = deterministic_point(14);
  EXPECT_TRUE(equal(scalar_mul(U256(1), p), to_r1(p)));
  // [2^255]P == doubling [2^254]P.
  U256 half;
  half.set_bit(254, true);
  U256 full;
  full.set_bit(255, true);
  EXPECT_TRUE(equal(scalar_mul(full, p), dbl(scalar_mul(half, p))));
}

TEST(ScalarMul, OpCountsMatchAlgorithmShape) {
  MulOpCounts c = scalar_mul_op_counts();
  // 3*64 base-point doublings + 64 loop doublings.
  EXPECT_EQ(c.doublings, 256);
  // 7 table + 65 digit additions + 1 correction.
  EXPECT_EQ(c.additions, 73);
  MulOpCounts r = reference_op_counts();
  EXPECT_EQ(r.doublings, 256);
}

}  // namespace
}  // namespace fourq::curve

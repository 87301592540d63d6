// Unit tests for F_{p^2}, including bit-exactness of the paper's Algorithm 2
// (Karatsuba multiplication with lazy reduction).
#include "field/fp2.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/modint.hpp"
#include "common/rng.hpp"

namespace fourq::field {
namespace {

Fp2 rand_fp2(Rng& rng) {
  return Fp2(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256()));
}

// Independent reference: F_{p^2} products through the generic Montgomery
// arithmetic mod p, which shares no code with the inline Alg. 2.
struct MontyP2 {
  Monty mt{U256(~0ull, 0x7fffffffffffffffull, 0, 0)};
  U256 in(const Fp& a) const { return mt.to_monty(a.to_u256()); }
  U256 out(const U256& m) const { return mt.from_monty(m); }
  // (x0 + x1 i)(y0 + y1 i) = (x0 y0 - x1 y1) + (x0 y1 + x1 y0) i.
  void mul(const Fp2& x, const Fp2& y, U256& re, U256& im) const {
    const U256 x0 = in(x.re()), x1 = in(x.im()), y0 = in(y.re()), y1 = in(y.im());
    re = out(mt.sub(mt.mul(x0, y0), mt.mul(x1, y1)));
    im = out(mt.add(mt.mul(x0, y1), mt.mul(x1, y0)));
  }
};

TEST(Fp2, KaratsubaMatchesSchoolbook) {
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    Fp2 x = rand_fp2(rng), y = rand_fp2(rng);
    EXPECT_EQ(Fp2::mul_karatsuba(x, y), Fp2::mul_schoolbook(x, y));
  }
}

TEST(Fp2, KaratsubaEdgeOperands) {
  Fp pm1 = Fp() - Fp::from_u64(1);  // p - 1, the largest canonical element
  const Fp2 cases[] = {
      Fp2(),
      Fp2::from_u64(1),
      Fp2::from_u64(0, 1),
      Fp2(pm1, pm1),
      Fp2(pm1, Fp()),
      Fp2(Fp(), pm1),
      Fp2(Fp::from_u64(1), pm1),
  };
  for (const Fp2& x : cases)
    for (const Fp2& y : cases)
      EXPECT_EQ(Fp2::mul_karatsuba(x, y), Fp2::mul_schoolbook(x, y))
          << x.to_hex() << " * " << y.to_hex();
}

TEST(Fp2, MulAndSqrMatchMontyReference) {
  // Boundary components (0, 1, 2, 2^64, 2^126 - 1, p - 1) in every pairing,
  // including the Karatsuba sums t2 = x0 + x1 and t3 = y0 + y1 closest to
  // 2^128 (both components p - 1: 2^128 - 4), plus random operands.
  const Fp pm1 = Fp() - Fp::from_u64(1);
  const Fp edge[] = {Fp(),
                     Fp::from_u64(1),
                     Fp::from_u64(2),
                     Fp::from_words(0, 1),
                     Fp::from_words(~0ull, 0x3fffffffffffffffull),
                     pm1 - Fp::from_u64(1),
                     pm1};
  std::vector<Fp2> ops;
  for (const Fp& re : edge)
    for (const Fp& im : edge) ops.push_back(Fp2(re, im));
  Rng rng(49);
  for (int i = 0; i < 30; ++i) ops.push_back(rand_fp2(rng));
  const MontyP2 ref;
  for (const Fp2& x : ops) {
    U256 re, im;
    ref.mul(x, x, re, im);
    EXPECT_EQ(x.sqr().re().to_u256(), re) << x.to_hex();
    EXPECT_EQ(x.sqr().im().to_u256(), im) << x.to_hex();
    for (const Fp2& y : ops) {
      ref.mul(x, y, re, im);
      const Fp2 k = Fp2::mul_karatsuba(x, y), s = Fp2::mul_schoolbook(x, y);
      EXPECT_EQ(k.re().to_u256(), re) << x.to_hex() << " * " << y.to_hex();
      EXPECT_EQ(k.im().to_u256(), im) << x.to_hex() << " * " << y.to_hex();
      EXPECT_EQ(s, k);
    }
  }
}

TEST(Fp2, ImaginaryUnitSquaresToMinusOne) {
  Fp2 i = Fp2::from_u64(0, 1);
  EXPECT_EQ(i * i, -Fp2::from_u64(1));
  EXPECT_EQ(i.sqr(), -Fp2::from_u64(1));
}

TEST(Fp2, FieldAxioms) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    Fp2 a = rand_fp2(rng), b = rand_fp2(rng), c = rand_fp2(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * Fp2::from_u64(1), a);
    EXPECT_EQ(a + (-a), Fp2());
  }
}

TEST(Fp2, SqrMatchesMul) {
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    Fp2 a = rand_fp2(rng);
    EXPECT_EQ(a.sqr(), a * a);
  }
}

TEST(Fp2, ConjAndNorm) {
  Rng rng(44);
  for (int i = 0; i < 100; ++i) {
    Fp2 a = rand_fp2(rng);
    Fp2 n = a * a.conj();
    // a * conj(a) = norm(a), purely real.
    EXPECT_TRUE(n.im().is_zero());
    EXPECT_EQ(n.re(), a.norm());
    EXPECT_EQ(a.conj().conj(), a);
    // norm is multiplicative
    Fp2 b = rand_fp2(rng);
    EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
  }
}

TEST(Fp2, InverseIsInverse) {
  Rng rng(45);
  for (int i = 0; i < 50; ++i) {
    Fp2 a = rand_fp2(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inv(), Fp2::from_u64(1));
  }
  EXPECT_EQ(Fp2::from_u64(0, 1).inv(), Fp2::from_u64(0) - Fp2::from_u64(0, 1));
  EXPECT_THROW(Fp2().inv(), std::logic_error);
}

TEST(Fp2, SqrtOfSquares) {
  Rng rng(46);
  int found = 0;
  for (int i = 0; i < 40; ++i) {
    Fp2 a = rand_fp2(rng);
    Fp2 sq = a.sqr();
    Fp2 root;
    ASSERT_TRUE(sq.sqrt(root)) << a.to_hex();
    EXPECT_TRUE(root == a || root == -a);
    ++found;
  }
  EXPECT_GT(found, 0);
}

TEST(Fp2, SqrtSpecialValues) {
  Fp2 root;
  EXPECT_TRUE(Fp2().sqrt(root));
  EXPECT_EQ(root, Fp2());
  EXPECT_TRUE(Fp2::from_u64(4).sqrt(root));
  EXPECT_TRUE(root == Fp2::from_u64(2) || root == -Fp2::from_u64(2));
  // -1 = i^2 has the root i in F_{p^2} even though it has none in F_p.
  EXPECT_TRUE((-Fp2::from_u64(1)).sqrt(root));
  EXPECT_TRUE(root == Fp2::from_u64(0, 1) || root == -Fp2::from_u64(0, 1));
}

TEST(Fp2, NonSquareDetected) {
  // In F_{p^2} exactly half the non-zero elements are squares; find one
  // non-square deterministically by scanning small constants.
  bool found_nonsquare = false;
  for (uint64_t k = 2; k < 50 && !found_nonsquare; ++k) {
    Fp2 cand = Fp2::from_u64(k, 1);
    Fp2 root;
    if (!cand.sqrt(root)) found_nonsquare = true;
  }
  EXPECT_TRUE(found_nonsquare);
}

TEST(Fp2, DblIsAddSelf) {
  Rng rng(47);
  Fp2 a = rand_fp2(rng);
  EXPECT_EQ(a.dbl(), a + a);
}

TEST(Fp2, ConjIsRingHomomorphism) {
  Rng rng(49);
  for (int i = 0; i < 100; ++i) {
    Fp2 a = rand_fp2(rng), b = rand_fp2(rng);
    EXPECT_EQ((a * b).conj(), a.conj() * b.conj());
    EXPECT_EQ((a + b).conj(), a.conj() + b.conj());
    EXPECT_EQ(a.conj().norm(), a.norm());
  }
}

TEST(Fp2, FrobeniusViaConj) {
  // For z in F_{p^2}, z^p == conj(z) (the p-power Frobenius): check on
  // random elements via pow.
  Rng rng(50);
  U256 p_exp = U256::from_hex("7fffffffffffffffffffffffffffffff");
  for (int i = 0; i < 5; ++i) {
    Fp2 z = rand_fp2(rng);
    Fp2 zp = Fp2::from_u64(1);
    // z^p via square-and-multiply over the 127-bit exponent.
    for (int bit = 126; bit >= 0; --bit) {
      zp = zp.sqr();
      if (p_exp.bit(static_cast<unsigned>(bit))) zp = zp * z;
    }
    EXPECT_EQ(zp, z.conj());
  }
}

// Multiplication count sanity: Karatsuba really performs 3 F_p
// multiplications per F_{p^2} multiplication. This is asserted structurally
// by the datapath model (see trace/sched tests); here we check the value
// identity (a0+a1)(b0+b1)-a0b0-a1b1 == a0b1+a1b0 that justifies it.
TEST(Fp2, KaratsubaIdentity) {
  Rng rng(48);
  for (int i = 0; i < 100; ++i) {
    Fp a0 = Fp::from_u256(rng.next_u256()), a1 = Fp::from_u256(rng.next_u256());
    Fp b0 = Fp::from_u256(rng.next_u256()), b1 = Fp::from_u256(rng.next_u256());
    Fp lhs = (a0 + a1) * (b0 + b1) - a0 * b0 - a1 * b1;
    EXPECT_EQ(lhs, a0 * b1 + a1 * b0);
  }
}

}  // namespace
}  // namespace fourq::field

// Unit tests for F_p, p = 2^127 - 1 (paper §II-B.2).
#include "field/fp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/modint.hpp"
#include "common/rng.hpp"

namespace fourq::field {
namespace {

// Reference modulus as U256 for cross-checks against the generic Monty path.
const U256 kP = U256::from_hex("7fffffffffffffffffffffffffffffff");

Fp rand_fp(Rng& rng) { return Fp::from_u256(rng.next_u256()); }

// Boundary operands for the inline straight-line arithmetic: limb and
// fold edges (2^64, 2^126 - 1, p - 1) and the values next to them.
std::vector<Fp> boundary_operands() {
  return {Fp(),
          Fp::from_u64(1),
          Fp::from_u64(2),
          Fp::from_u64(~0ull),                              // 2^64 - 1
          Fp::from_words(0, 1),                             // 2^64
          Fp::from_words(1, 1),                             // 2^64 + 1
          Fp::from_words(~0ull, 0x3fffffffffffffffull),     // 2^126 - 1
          Fp::from_words(0, 0x4000000000000000ull),         // 2^126
          Fp::from_words(~0ull - 2, 0x7fffffffffffffffull), // p - 2
          Fp::from_words(~0ull - 1, 0x7fffffffffffffffull)};// p - 1
}

// Independent reference: the generic Montgomery arithmetic mod p, which
// shares no code with the Mersenne folds of field/fp.hpp.
struct MontyP {
  Monty mt{kP};
  U256 in(const Fp& a) const { return mt.to_monty(a.to_u256()); }
  U256 out(const U256& m) const { return mt.from_monty(m); }
};

TEST(Fp, CanonicalZeroRepresentation) {
  // p itself must normalise to zero: 2^127 - 1 ≡ 0.
  Fp p_val = Fp::from_words(~0ull, 0x7fffffffffffffffull);
  EXPECT_TRUE(p_val.is_zero());
  EXPECT_EQ(p_val, Fp());
  // 2^127 ≡ 1.
  Fp two127 = Fp::from_u256(U256(0, 0, 1, 0));  // 2^128 -> handled by reduce
  EXPECT_EQ(two127, Fp::from_u64(2));           // 2^128 = 2 * 2^127 ≡ 2
}

TEST(Fp, FromU256ReducesCorrectly) {
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    U256 v = rng.next_u256();
    Fp f = Fp::from_u256(v);
    U256 expect = mod(v, kP);
    EXPECT_EQ(f.to_u256(), expect);
  }
}

TEST(Fp, AddSubRoundTrip) {
  Rng rng(22);
  for (int i = 0; i < 200; ++i) {
    Fp a = rand_fp(rng), b = rand_fp(rng);
    EXPECT_EQ(a + b - b, a);
    EXPECT_EQ(a - a, Fp());
    EXPECT_EQ(a + (-a), Fp());
    EXPECT_EQ(-(-a), a);
  }
}

TEST(Fp, AddNearModulusBoundary) {
  Fp pm1 = Fp::from_words(~0ull - 1, 0x7fffffffffffffffull);  // p - 1
  EXPECT_EQ(pm1 + Fp::from_u64(1), Fp());
  EXPECT_EQ(pm1 + pm1, Fp() - Fp::from_u64(2));
  EXPECT_EQ(Fp() - Fp::from_u64(1), pm1);
}

TEST(Fp, MulMatchesGenericModularArithmetic) {
  Rng rng(23);
  Monty mt(kP);
  for (int i = 0; i < 300; ++i) {
    Fp a = rand_fp(rng), b = rand_fp(rng);
    U256 expect = mod(mul_wide(a.to_u256(), b.to_u256()), kP);
    EXPECT_EQ((a * b).to_u256(), expect);
  }
}

TEST(Fp, MulEdgeCases) {
  Fp pm1 = Fp() - Fp::from_u64(1);
  EXPECT_EQ(pm1 * pm1, Fp::from_u64(1));  // (-1)^2 = 1
  EXPECT_EQ(pm1 * Fp(), Fp());
  EXPECT_EQ(Fp::from_u64(1) * pm1, pm1);
  // (2^126)^2 = 2^252 ≡ 2^(252-127) = 2^125
  Fp two126 = Fp::from_words(0, uint64_t{1} << 62);
  Fp two125 = Fp::from_words(0, uint64_t{1} << 61);
  EXPECT_EQ(two126 * two126, two125 * Fp::from_u64(1));
}

TEST(Fp, RingAxioms) {
  Rng rng(24);
  for (int i = 0; i < 100; ++i) {
    Fp a = rand_fp(rng), b = rand_fp(rng), c = rand_fp(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b * c), (a * b) * c);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * Fp::from_u64(1), a);
  }
}

TEST(Fp, InverseIsInverse) {
  Rng rng(25);
  for (int i = 0; i < 30; ++i) {
    Fp a = rand_fp(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inv(), Fp::from_u64(1));
  }
  EXPECT_EQ(Fp::from_u64(2) * Fp::from_u64(2).inv(), Fp::from_u64(1));
  EXPECT_EQ(Fp::half(), Fp::from_u64(2).inv());  // the constant Fp2::sqrt uses
  EXPECT_THROW(Fp().inv(), std::logic_error);
}

TEST(Fp, PowP34IsTheInversionChain) {
  // x^((p-3)/4) = x^(2^125 - 1); inv() = pow_p34()^4 * x, and
  // x * pow_p34()^2 is the Legendre symbol (-1 is a non-residue).
  Rng rng(29);
  U256 e;
  sub(shl(U256(1), 125), U256(1), e);
  for (int i = 0; i < 10; ++i) {
    Fp a = rand_fp(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow_p34(), a.pow(e));
    EXPECT_EQ(a.pow_p34().sqr_n(2) * a, a.inv());
    EXPECT_EQ(a.sqr() * a.sqr().pow_p34().sqr(), Fp::from_u64(1));
    EXPECT_EQ(-a.sqr() * (-a.sqr()).pow_p34().sqr(), -Fp::from_u64(1));
  }
}

TEST(Fp, FermatLittleTheorem) {
  Rng rng(26);
  U256 p_minus_1;
  sub(kP, U256(1), p_minus_1);
  for (int i = 0; i < 10; ++i) {
    Fp a = rand_fp(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(p_minus_1), Fp::from_u64(1));
  }
}

TEST(Fp, SqrtOfSquares) {
  Rng rng(27);
  for (int i = 0; i < 30; ++i) {
    Fp a = rand_fp(rng);
    Fp sq = a.sqr();
    Fp root;
    ASSERT_TRUE(sq.sqrt(root));
    EXPECT_TRUE(root == a || root == -a);
  }
}

TEST(Fp, NonResidueDetected) {
  // -1 is a non-residue mod p when p ≡ 3 (mod 4).
  Fp minus1 = -Fp::from_u64(1);
  Fp root;
  EXPECT_FALSE(minus1.sqrt(root));
}

TEST(Fp, SqrNMatchesRepeatedSqr) {
  Rng rng(28);
  Fp a = rand_fp(rng);
  Fp manual = a;
  for (int i = 0; i < 10; ++i) manual = manual.sqr();
  EXPECT_EQ(a.sqr_n(10), manual);
  EXPECT_EQ(a.sqr_n(0), a);
}

TEST(Fp, WideMulAndFoldAgreeWithOperator) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    Fp a = rand_fp(rng), b = rand_fp(rng);
    EXPECT_EQ(Fp::reduce_wide(Fp::mul_wide(a, b)), a * b);
  }
}

TEST(Fp, ReduceWideHandlesTopBits) {
  // v = 2^255 = C=2 contribution: 2^255 = 2*2^254 ≡ 2.
  U256 v;
  v.set_bit(255, true);
  EXPECT_EQ(Fp::reduce_wide(v), Fp::from_u64(2));
  // v = 2^254 ≡ 1.
  U256 u;
  u.set_bit(254, true);
  EXPECT_EQ(Fp::reduce_wide(u), Fp::from_u64(1));
  // v = 2^127 ≡ 1.
  U256 w;
  w.set_bit(127, true);
  EXPECT_EQ(Fp::reduce_wide(w), Fp::from_u64(1));
  // All-ones 256-bit value: (2^256 - 1) mod p. 2^256 ≡ 4 -> 3.
  U256 ones(~0ull, ~0ull, ~0ull, ~0ull);
  EXPECT_EQ(Fp::reduce_wide(ones), Fp::from_u64(3));
}

TEST(Fp, HexRoundTrip) {
  Fp a = Fp::from_hex("0123456789abcdef0123456789abcdef");
  EXPECT_EQ(Fp::from_hex(a.to_hex()), a);
  EXPECT_EQ(Fp::from_hex("1"), Fp::from_u64(1));
}

TEST(Fp, SqrMatchesMulBitwise) {
  // sqr() drops one 64x64 multiply vs the generic product but must stay
  // bit-identical to a*a — both reduce to the canonical representative.
  std::vector<Fp> edges = {
      Fp(),                                             // 0
      Fp::from_u64(1),
      Fp::from_u64(2),
      Fp::from_u64(~0ull),                              // one full low limb
      Fp::from_words(0, 1),                             // 2^64
      Fp::from_words(~0ull, 0x3fffffffffffffffull),     // 2^126 - 1
      Fp::from_words(~0ull - 1, 0x7fffffffffffffffull)  // p - 1
  };
  for (const Fp& a : edges) {
    EXPECT_EQ(a.sqr().to_u256(), (a * a).to_u256());
    EXPECT_EQ(Fp::sqr_wide(a), Fp::mul_wide(a, a));
  }
  Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    Fp a = rand_fp(rng);
    EXPECT_EQ(a.sqr().to_u256(), (a * a).to_u256());
    // The unreduced double-width products must agree too, not just their
    // folded forms.
    EXPECT_EQ(Fp::sqr_wide(a), Fp::mul_wide(a, a));
    EXPECT_EQ(Fp::reduce_wide(Fp::sqr_wide(a)), a.sqr());
  }
}

TEST(Fp, MulWideMatchesMontyProduct) {
  // mul_wide's 4-multiply schoolbook against the generic Monty pipeline.
  Rng rng(33);
  Monty mt(kP);
  for (int i = 0; i < 200; ++i) {
    Fp a = rand_fp(rng), b = rand_fp(rng);
    U256 expect = mt.from_monty(mt.mul(mt.to_monty(a.to_u256()), mt.to_monty(b.to_u256())));
    EXPECT_EQ(Fp::reduce_wide(Fp::mul_wide(a, b)).to_u256(), expect);
  }
}

TEST(Fp, ArithmeticMatchesMontyOnBoundaryAndRandomOperands) {
  // Every inline operation against the Montgomery reference (the inverse
  // chain against square-and-multiply by p - 2); the wide (unreduced)
  // products against the generic 4x4-limb U256 product and the fold
  // against binary long division.
  const MontyP ref;
  U256 p_minus_2;
  sub(kP, U256(2), p_minus_2);
  std::vector<Fp> ops = boundary_operands();
  Rng rng(34);
  for (int i = 0; i < 40; ++i) ops.push_back(rand_fp(rng));
  for (const Fp& a : ops) {
    const U256 ma = ref.in(a);
    if (!a.is_zero()) {
      EXPECT_EQ(a.inv().to_u256(), ref.out(ref.mt.pow(ma, p_minus_2))) << a.to_hex();
    }
    EXPECT_EQ((-a).to_u256(), ref.out(ref.mt.neg(ma))) << a.to_hex();
    EXPECT_EQ(a.sqr().to_u256(), ref.out(ref.mt.sqr(ma))) << a.to_hex();
    EXPECT_EQ(Fp::sqr_wide(a), mul_wide(a.to_u256(), a.to_u256()).lo256()) << a.to_hex();
    for (const Fp& b : ops) {
      const U256 mb = ref.in(b);
      EXPECT_EQ((a + b).to_u256(), ref.out(ref.mt.add(ma, mb)));
      EXPECT_EQ((a - b).to_u256(), ref.out(ref.mt.sub(ma, mb)));
      EXPECT_EQ((a * b).to_u256(), ref.out(ref.mt.mul(ma, mb)));
      EXPECT_EQ(Fp::mul_wide(a, b), mul_wide(a.to_u256(), b.to_u256()).lo256());
    }
  }
  for (int i = 0; i < 200; ++i) {
    const U256 v = rng.next_u256();
    EXPECT_EQ(Fp::reduce_wide(v).to_u256(), mod(v, kP));
  }
}

TEST(Fp, PowMatchesMonty) {
  Rng rng(30);
  Monty mt(kP);
  for (int i = 0; i < 20; ++i) {
    Fp a = rand_fp(rng);
    U256 e = rng.next_u256();
    U256 expect = mt.from_monty(mt.pow(mt.to_monty(a.to_u256()), e));
    EXPECT_EQ(a.pow(e).to_u256(), expect);
  }
}

}  // namespace
}  // namespace fourq::field

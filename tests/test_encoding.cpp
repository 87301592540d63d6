// Tests for point encoding and compression.
#include "curve/encoding.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "curve/params.hpp"
#include "curve/scalarmul.hpp"

namespace fourq::curve {
namespace {

Affine random_point(Rng& rng) {
  Affine base = deterministic_point(55);
  return to_affine(scalar_mul(rng.next_u256(), base));
}

// decompress as it was first written, the oracle for the two-exponentiation
// root: x^2 = (y^2 - 1) * (d y^2 + 1)^-1 by Fp2::inv, then Fp2::sqrt.
std::optional<Affine> decompress_oracle(const CompressedPoint& bytes) {
  uint64_t w[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i)
    for (int b = 0; b < 8; ++b)
      w[i] |= static_cast<uint64_t>(bytes[static_cast<size_t>(8 * i + b)]) << (8 * b);
  const bool sign = (w[3] >> 63) != 0;
  w[3] &= ~(1ull << 63);
  const uint64_t top = 0x7fffffffffffffffull;
  if ((w[1] >> 63) || (w[0] == ~0ull && w[1] == top) || (w[2] == ~0ull && w[3] == top))
    return std::nullopt;
  Fp2 y(Fp::from_words(w[0], w[1]), Fp::from_words(w[2], w[3]));
  Fp2 one = Fp2::from_u64(1);
  Fp2 den = curve_d() * y.sqr() + one;
  if (den.is_zero()) return std::nullopt;
  Fp2 x;
  if (!((y.sqr() - one) * den.inv()).sqrt(x)) return std::nullopt;
  if (x.is_zero()) {
    if (sign) return std::nullopt;
  } else if (x_sign(x) != sign) {
    x = -x;
  }
  Affine p{x, y};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

// Points of small order: [N]P has order dividing the cofactor 392.
std::vector<Affine> torsion_points() {
  std::vector<Affine> out;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PointR1 t = scalar_mul(candidate_subgroup_order(), deterministic_point(seed));
    for (uint64_t m : {1ull, 2ull, 4ull, 7ull, 8ull, 14ull, 28ull})
      out.push_back(to_affine(mul_small(m, t)));
  }
  return out;
}

TEST(Encoding, UncompressedRoundTrip) {
  Rng rng(611);
  for (int i = 0; i < 20; ++i) {
    Affine p = random_point(rng);
    auto decoded = decode(encode(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->x, p.x);
    EXPECT_EQ(decoded->y, p.y);
  }
}

TEST(Encoding, CompressedRoundTrip) {
  Rng rng(612);
  for (int i = 0; i < 20; ++i) {
    Affine p = random_point(rng);
    auto decoded = decompress(compress(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->x, p.x) << "sign bit failed to disambiguate";
    EXPECT_EQ(decoded->y, p.y);
  }
}

TEST(Encoding, CompressionDistinguishesNegation) {
  Rng rng(613);
  Affine p = random_point(rng);
  Affine np = neg(p);
  CompressedPoint cp = compress(p), cnp = compress(np);
  // Same y, different sign bit.
  EXPECT_NE(cp, cnp);
  auto dp = decompress(cp), dnp = decompress(cnp);
  ASSERT_TRUE(dp && dnp);
  EXPECT_EQ(dp->x, p.x);
  EXPECT_EQ(dnp->x, np.x);
}

TEST(Encoding, SpecialPoints) {
  // Identity (0, 1): x = 0 forces a clear sign bit.
  Affine id{Fp2(), Fp2::from_u64(1)};
  auto rid = decompress(compress(id));
  ASSERT_TRUE(rid.has_value());
  EXPECT_TRUE(rid->x.is_zero());
  // Order-2 point (0, -1).
  Affine t{Fp2(), -Fp2::from_u64(1)};
  auto rt = decompress(compress(t));
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->y, t.y);
}

TEST(Encoding, RejectsOffCurveUncompressed) {
  Affine p = deterministic_point(56);
  UncompressedPoint bytes = encode(p);
  bytes[0] ^= 1;  // perturb x
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Encoding, RejectsNonCanonicalField) {
  // y.re = p (non-canonical encoding of zero).
  CompressedPoint bytes{};
  for (int i = 0; i < 15; ++i) bytes[static_cast<size_t>(i)] = 0xff;
  bytes[15] = 0x7f;
  EXPECT_FALSE(decompress(bytes).has_value());
}

TEST(Encoding, RejectsYWithNoX) {
  // Scan for a y whose x^2 is a non-residue; must be rejected.
  bool found = false;
  for (uint64_t ytry = 2; ytry < 60 && !found; ++ytry) {
    Fp2 y = Fp2::from_u64(ytry, 1);
    CompressedPoint bytes{};
    // Hand-encode y.
    uint64_t w[4] = {y.re().lo(), y.re().hi(), y.im().lo(), y.im().hi()};
    for (int i = 0; i < 4; ++i)
      for (int b = 0; b < 8; ++b)
        bytes[static_cast<size_t>(8 * i + b)] = static_cast<uint8_t>(w[i] >> (8 * b));
    if (!decompress(bytes).has_value()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Encoding, SignConventionConsistent) {
  Rng rng(614);
  for (int i = 0; i < 20; ++i) {
    Affine p = random_point(rng);
    if (p.x.is_zero()) continue;
    EXPECT_NE(x_sign(p.x), x_sign(-p.x));
  }
}

TEST(Encoding, FuzzRoundTripManyPoints) {
  Rng rng(615);
  Affine base = deterministic_point(57);
  for (int i = 0; i < 150; ++i) {
    Affine p = to_affine(scalar_mul(rng.next_u256(), base));
    auto c = decompress(compress(p));
    ASSERT_TRUE(c.has_value()) << i;
    EXPECT_EQ(c->x, p.x);
    EXPECT_EQ(c->y, p.y);
    auto u = decode(encode(p));
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(u->x, p.x);
    EXPECT_EQ(u->y, p.y);
  }
}

TEST(Encoding, CompressedBytesAreCanonical) {
  // compress(decompress(bytes)) == bytes for every valid encoding.
  Rng rng(616);
  Affine base = deterministic_point(58);
  for (int i = 0; i < 50; ++i) {
    Affine p = to_affine(scalar_mul(rng.next_u256(), base));
    CompressedPoint bytes = compress(p);
    auto d = decompress(bytes);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(compress(*d), bytes);
  }
}

TEST(Encoding, IdentityUncompressedRoundTrip) {
  Affine id{Fp2(), Fp2::from_u64(1)};
  auto r = decode(encode(id));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->x.is_zero());
}

TEST(Encoding, DecompressMatchesInverseAndSqrtOracle) {
  // The two-exponentiation root against the Fp2::inv + Fp2::sqrt oracle,
  // in accept/reject and in both coordinates, over seeded encodings: valid
  // compressions (random, small-order and mixed points, both x = 0 points
  // y = ±1 and the order-4 points y = 0, each with both sign bits),
  // random y with canonical limbs (about half have an x) and raw random
  // bytes (mostly non-canonical).
  std::vector<CompressedPoint> inputs;
  auto with_both_signs = [&](CompressedPoint c) {
    c[31] &= 0x7f;
    inputs.push_back(c);
    c[31] |= 0x80;
    inputs.push_back(c);
  };
  Rng rng(617);
  for (const Affine& t : torsion_points()) {
    with_both_signs(compress(t));
    with_both_signs(compress(affine_add(t, random_point(rng))));
  }
  const Fp2 one = Fp2::from_u64(1);
  for (const Fp2& y : {one, -one, Fp2()}) with_both_signs(compress(Affine{Fp2(), y}));
  for (int i = 0; i < 200; ++i) with_both_signs(compress(random_point(rng)));
  while (inputs.size() < 12000) {
    CompressedPoint c;
    for (size_t b = 0; b < c.size(); b += 8) {
      uint64_t v = rng.next_u64();
      for (size_t j = 0; j < 8; ++j) c[b + j] = static_cast<uint8_t>(v >> (8 * j));
    }
    if (inputs.size() % 2 == 0) c[15] &= 0x7f;  // canonical limbs (up to == p)
    inputs.push_back(c);
  }
  size_t accepted = 0;
  for (const CompressedPoint& c : inputs) {
    std::optional<Affine> got = decompress(c), want = decompress_oracle(c);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) continue;
    ++accepted;
    ASSERT_EQ(got->x, want->x);
    ASSERT_EQ(got->y, want->y);
  }
  EXPECT_GT(accepted, inputs.size() / 8);
  EXPECT_LT(accepted, inputs.size() / 2);
}

TEST(Encoding, FuzzAcceptedInputsAreCanonicalCurvePoints) {
  // Seeded fuzz loop: bit-flipped valid encodings and random bytes. Every
  // accepted input decodes to a curve point and re-encodes byte for byte.
  Rng rng(618);
  std::vector<CompressedPoint> pool;
  for (int i = 0; i < 32; ++i) pool.push_back(compress(random_point(rng)));
  size_t accepted = 0;
  for (size_t i = 0; i < 4000; ++i) {
    CompressedPoint c = pool[i % pool.size()];
    const uint64_t flips = 1 + rng.next_below(3);
    for (uint64_t f = 0; f < flips; ++f)
      c[rng.next_below(32)] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    std::optional<Affine> p = decompress(c);
    if (!p) continue;
    ++accepted;
    ASSERT_TRUE(on_curve(*p));
    ASSERT_EQ(compress(*p), c);
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace fourq::curve

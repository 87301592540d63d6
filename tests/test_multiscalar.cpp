// Tests for wNAF recoding and interleaved multi-scalar multiplication.
#include "curve/multiscalar.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::curve {
namespace {

__int128 small_value(const std::vector<int8_t>& naf) {
  __int128 acc = 0;
  for (int i = static_cast<int>(naf.size()) - 1; i >= 0; --i)
    acc = 2 * acc + naf[static_cast<size_t>(i)];
  return acc;
}

TEST(Wnaf, ReconstructsSmallValues) {
  for (uint64_t k = 0; k < 500; ++k) {
    for (int w : {2, 3, 4, 5}) {
      auto naf = wnaf(U256(k), w);
      EXPECT_EQ(small_value(naf), static_cast<__int128>(k)) << "k=" << k << " w=" << w;
    }
  }
}

TEST(Wnaf, DigitsAreOddAndBounded) {
  Rng rng(621);
  for (int iter = 0; iter < 50; ++iter) {
    U256 k = rng.next_u256();
    for (int w : {2, 3, 4}) {
      auto naf = wnaf(k, w);
      int bound = (1 << w) - 1;
      for (int8_t d : naf) {
        if (d == 0) continue;
        EXPECT_EQ(std::abs(d) % 2, 1);
        EXPECT_LE(std::abs(d), bound);
      }
    }
  }
}

TEST(Wnaf, NonAdjacency) {
  Rng rng(622);
  for (int iter = 0; iter < 50; ++iter) {
    U256 k = rng.next_u256();
    auto naf = wnaf(k, 3);
    for (size_t i = 0; i < naf.size(); ++i) {
      if (naf[i] == 0) continue;
      for (size_t j = i + 1; j < std::min(naf.size(), i + 3); ++j)
        EXPECT_EQ(naf[j], 0) << "digits " << i << " and " << j << " both non-zero";
    }
  }
}

TEST(Wnaf, MaxScalarNoOverflow) {
  U256 k(~0ull, ~0ull, ~0ull, ~0ull);
  auto naf = wnaf(k, 3);
  ASSERT_LE(naf.size(), 258u);
  // Reconstruct via U512 arithmetic to verify exactly.
  U512 acc;
  for (int i = static_cast<int>(naf.size()) - 1; i >= 0; --i) {
    acc = shl(acc, 1);
    int d = naf[static_cast<size_t>(i)];
    U512 t;
    if (d >= 0) {
      add(acc, U512(U256(static_cast<uint64_t>(d))), t);
    } else {
      sub(acc, U512(U256(static_cast<uint64_t>(-d))), t);
    }
    acc = t;
  }
  EXPECT_EQ(acc.lo256(), k);
  EXPECT_TRUE(acc.hi256().is_zero());
}

// The original wNAF construction (pre-limb-loop), kept verbatim as the
// reference for property-testing the rewritten digit loop: it works in
// U512 so negative digits can carry past bit 255.
std::vector<int8_t> wnaf_reference(const U256& k, int width) {
  std::vector<int8_t> digits;
  U512 n(k);
  const uint64_t window = uint64_t{1} << width;
  const uint64_t half = window / 2;
  while (!n.is_zero()) {
    int8_t d = 0;
    if (n.bit(0)) {
      uint64_t mods = n.w[0] & (window - 1);
      U512 t;
      if (mods >= half) {
        d = static_cast<int8_t>(static_cast<int64_t>(mods) - static_cast<int64_t>(window));
        uint64_t carry = add(n, U512(U256(static_cast<uint64_t>(-static_cast<int64_t>(d)))), t);
        FOURQ_CHECK(carry == 0);
      } else {
        d = static_cast<int8_t>(mods);
        uint64_t borrow = sub(n, U512(U256(mods)), t);
        FOURQ_CHECK(borrow == 0);
      }
      n = t;
    }
    digits.push_back(d);
    n = shr(n, 1);
  }
  return digits;
}

TEST(Wnaf, MatchesReferenceConstruction) {
  std::vector<U256> edges = {
      U256(),                                // 0 -> empty digit string
      U256(1),
      U256(2),
      U256(~0ull, ~0ull, ~0ull, ~0ull),      // 2^256 - 1 (max carry pressure)
      U256(~0ull - 1, ~0ull, ~0ull, ~0ull),  // 2^256 - 2
      U256(0, 0, 0, uint64_t{1} << 63),      // 2^255
      U256(0, 0, 0, 1),                      // 2^192 (limb boundary)
      U256(0, 1, 0, 0),                      // 2^64
      U256(~0ull, 0, 0, 0),                  // 2^64 - 1
  };
  for (const U256& k : edges)
    for (int w = 2; w <= 7; ++w)
      EXPECT_EQ(wnaf(k, w), wnaf_reference(k, w)) << "w=" << w;
  Rng rng(626);
  for (int iter = 0; iter < 200; ++iter) {
    U256 k = rng.next_u256();
    for (int w = 2; w <= 7; ++w)
      EXPECT_EQ(wnaf(k, w), wnaf_reference(k, w)) << "w=" << w;
  }
}

TEST(MultiScalar, SingleTermMatchesScalarMul) {
  Rng rng(623);
  Affine p = deterministic_point(61);
  for (int i = 0; i < 8; ++i) {
    U256 k = rng.next_u256();
    EXPECT_TRUE(equal(multi_scalar_mul({{k, p}}), scalar_mul(k, p)));
  }
}

TEST(MultiScalar, TwoTermsMatchSum) {
  Rng rng(624);
  Affine p = deterministic_point(62), q = deterministic_point(63);
  for (int i = 0; i < 6; ++i) {
    U256 a = rng.next_u256(), b = rng.next_u256();
    PointR1 expect = add(scalar_mul(a, p), to_r2(scalar_mul(b, q)));
    EXPECT_TRUE(equal(multi_scalar_mul({{a, p}, {b, q}}), expect));
  }
}

TEST(MultiScalar, ManyTerms) {
  Rng rng(625);
  std::vector<ScalarPoint> terms;
  PointR1 expect = identity();
  for (int i = 0; i < 9; ++i) {
    Affine p = deterministic_point(static_cast<uint64_t>(70 + i));
    U256 k = rng.next_u256();
    terms.push_back({k, p});
    expect = add(expect, to_r2(scalar_mul(k, p)));
  }
  EXPECT_TRUE(equal(multi_scalar_mul(terms), expect));
}

TEST(MultiScalar, ZeroScalarsIgnored) {
  Affine p = deterministic_point(64), q = deterministic_point(65);
  U256 k(777);
  EXPECT_TRUE(equal(multi_scalar_mul({{U256(), p}, {k, q}}), scalar_mul(k, q)));
  EXPECT_TRUE(is_identity(multi_scalar_mul({{U256(), p}})));
  EXPECT_TRUE(is_identity(multi_scalar_mul({})));
}

TEST(MultiScalar, RepeatedPointAggregates) {
  Affine p = deterministic_point(66);
  // [3]P + [5]P == [8]P
  EXPECT_TRUE(equal(multi_scalar_mul({{U256(3), p}, {U256(5), p}}), scalar_mul(U256(8), p)));
}

TEST(MultiScalar, CancellationToIdentity) {
  Affine p = deterministic_point(67);
  Affine np = neg(p);
  U256 k(0xabcdef);
  EXPECT_TRUE(is_identity(multi_scalar_mul({{k, p}, {k, np}})));
}

// ---------------------------------------------------------------------------
// Backend matrix: every explicit backend must match the naive sum and, after
// normalisation, agree with every other backend bit for bit.

constexpr MsmBackend kAllBackends[] = {MsmBackend::kStraus, MsmBackend::kPippenger,
                                       MsmBackend::kAuto};

PointR1 naive_msm(const std::vector<ScalarPoint>& terms) {
  PointR1 acc = identity();
  for (const ScalarPoint& t : terms) acc = add(acc, to_r2(scalar_mul(t.k, t.p)));
  return acc;
}

std::vector<ScalarPoint> random_terms(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScalarPoint> terms;
  terms.reserve(n);
  for (size_t i = 0; i < n; ++i)
    terms.push_back({rng.next_u256(), deterministic_point(100 + i)});
  return terms;
}

TEST(MsmBackends, AgreeWithNaiveSumAcrossSizes) {
  // n straddles both crossovers: 0/1/2 (degenerate + Straus), 33 (Straus
  // width 5; between the lane-fold and scalar-fold crossovers), 257
  // (Pippenger territory). The two larger sets open with limb-boundary
  // scalars: 1, 2^64-1, 2^192*(2^64-1) and 2^256-1.
  const U256 edges[] = {U256(1), U256(~0ull, 0, 0, 0), U256(0, 0, 0, ~0ull),
                        U256(~0ull, ~0ull, ~0ull, ~0ull)};
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{33}, size_t{257}}) {
    std::vector<ScalarPoint> terms = random_terms(n, 0x700 + n);
    if (n > 4)
      for (size_t i = 0; i < 4; ++i) terms[i].k = edges[i];
    Affine expect = to_affine(naive_msm(terms));
    for (MsmBackend b : kAllBackends) {
      MsmOptions opts;
      opts.backend = b;
      Affine got = to_affine(multi_scalar_mul(terms, opts));
      EXPECT_TRUE(got.x == expect.x && got.y == expect.y)
          << "n=" << n << " backend=" << msm_backend_name(b);
    }
  }
}

TEST(MsmBackends, ZeroScalarsAndIdentityPointsEverywhere) {
  Affine id{Fp2(), Fp2::from_u64(1)};
  Rng rng(627);
  std::vector<ScalarPoint> terms;
  PointR1 expect = identity();
  for (size_t i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      terms.push_back({U256(), deterministic_point(200 + i)});  // zero scalar
    } else if (i % 3 == 1) {
      terms.push_back({rng.next_u256(), id});  // identity point
    } else {
      U256 k = rng.next_u256();
      Affine p = deterministic_point(200 + i);
      terms.push_back({k, p});
      expect = add(expect, to_r2(scalar_mul(k, p)));
    }
  }
  for (MsmBackend b : kAllBackends) {
    MsmOptions opts;
    opts.backend = b;
    EXPECT_TRUE(equal(multi_scalar_mul(terms, opts), expect)) << msm_backend_name(b);
  }
  // All-degenerate input collapses to the identity on every backend.
  std::vector<ScalarPoint> degenerate = {{U256(), deterministic_point(220)}, {U256(42), id}};
  for (MsmBackend b : kAllBackends) {
    MsmOptions opts;
    opts.backend = b;
    EXPECT_TRUE(is_identity(multi_scalar_mul(degenerate, opts))) << msm_backend_name(b);
  }
}

TEST(MsmBackends, HalfLengthBitsHint) {
  // Terms declared at 128 bits (the batch-verification weight shape) must
  // give the same point as the default 256-bit declaration.
  Rng rng(628);
  std::vector<ScalarPoint> shortened, full;
  for (size_t i = 0; i < 40; ++i) {
    U256 k(rng.next_u64(), rng.next_u64(), 0, 0);
    Affine p = deterministic_point(300 + i);
    shortened.push_back({k, p, 128});
    full.push_back({k, p});
  }
  Affine expect = to_affine(naive_msm(full));
  for (MsmBackend b : kAllBackends) {
    MsmOptions opts;
    opts.backend = b;
    Affine got = to_affine(multi_scalar_mul(shortened, opts));
    EXPECT_TRUE(got.x == expect.x && got.y == expect.y) << msm_backend_name(b);
  }
}

TEST(MsmBackends, OverdeclaredScalarIsRejected) {
  // The bits field is a contract: a scalar exceeding its declared length
  // must trip the runtime check rather than silently truncate.
  std::vector<ScalarPoint> bad = {{U256(0, 0, 1, 0), deterministic_point(68), 128}};
  EXPECT_THROW(multi_scalar_mul(bad), std::logic_error);
}

TEST(MsmBackends, ExplicitWindowOverrides) {
  std::vector<ScalarPoint> terms = random_terms(20, 0x900);
  Affine expect = to_affine(naive_msm(terms));
  for (int c : {2, 6, 13}) {
    MsmOptions opts;
    opts.backend = MsmBackend::kPippenger;
    opts.window = c;
    Affine got = to_affine(multi_scalar_mul(terms, opts));
    EXPECT_TRUE(got.x == expect.x && got.y == expect.y) << "window=" << c;
  }
}

TEST(MsmBackends, ParallelExecutionIsBitwiseStable) {
  // Window sums are combined in a fixed order, so the projective result —
  // not just the point it represents — must be identical whether windows
  // run sequentially or on as many threads as the executor offers.
  std::vector<ScalarPoint> terms = random_terms(150, 0xa00);
  MsmOptions serial;
  serial.backend = MsmBackend::kPippenger;
  PointR1 want = multi_scalar_mul(terms, serial);

  std::atomic<size_t> calls{0};
  MsmOptions parallel = serial;
  parallel.parallel = [&calls](size_t n, const std::function<void(size_t)>& fn) {
    calls.fetch_add(1);
    std::vector<std::thread> pool;
    std::atomic<size_t> next{0};
    for (unsigned t = 0; t < 4; ++t)
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
      });
    for (auto& th : pool) th.join();
  };
  PointR1 got = multi_scalar_mul(terms, parallel);
  EXPECT_GT(calls.load(), 0u) << "parallel hook never invoked";
  EXPECT_EQ(got.X, want.X);
  EXPECT_EQ(got.Y, want.Y);
  EXPECT_EQ(got.Z, want.Z);
  EXPECT_EQ(got.Ta, want.Ta);
  EXPECT_EQ(got.Tb, want.Tb);
}

TEST(MsmBackends, AutoCrossoverAndNames) {
  // Pippenger takes over at 12 terms where the lane fold runs (a vector
  // kernel table, lanes on) and at 40 on the scalar fold.
  const size_t crossover = field::lanes::active().group > 1 ? 12 : 40;
  EXPECT_EQ(msm_choose_backend(1), MsmBackend::kStraus);
  EXPECT_EQ(msm_choose_backend(2), MsmBackend::kStraus);
  EXPECT_EQ(msm_choose_backend(crossover - 1), MsmBackend::kStraus);
  EXPECT_EQ(msm_choose_backend(crossover), MsmBackend::kPippenger);
  EXPECT_EQ(msm_choose_backend(4096), MsmBackend::kPippenger);
  MsmOptions scalar_fold;
  scalar_fold.lanes = false;
  EXPECT_EQ(msm_choose_backend(39, scalar_fold), MsmBackend::kStraus);
  EXPECT_EQ(msm_choose_backend(40, scalar_fold), MsmBackend::kPippenger);
  MsmOptions forced;
  forced.backend = MsmBackend::kStraus;
  EXPECT_EQ(msm_choose_backend(4096, forced), MsmBackend::kStraus);
  forced.backend = MsmBackend::kPippenger;
  EXPECT_EQ(msm_choose_backend(2, forced), MsmBackend::kPippenger);
  EXPECT_STREQ(msm_backend_name(MsmBackend::kStraus), "straus");
  EXPECT_STREQ(msm_backend_name(MsmBackend::kPippenger), "pippenger");
}

}  // namespace
}  // namespace fourq::curve

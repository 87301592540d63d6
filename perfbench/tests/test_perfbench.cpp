// Self-tests of the benchmark's generators, references and ledger counts.
#include <gtest/gtest.h>

#include "curve/multiscalar.hpp"
#include "curve/point.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace fourq;
using namespace perfbench;

TEST(Generator, SameSeedGivesIdenticalInputs) {
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> a = make_workload(name), b = make_workload(name),
                              c = make_workload(name);
    a->generate(7, true);
    b->generate(7, true);
    c->generate(8, true);
    EXPECT_EQ(a->input_digest(), b->input_digest()) << name;
    EXPECT_NE(a->input_digest(), c->input_digest()) << name;
  }
}

TEST(Generator, TorsionPointHasOrderTwo) {
  for (uint64_t seed : {1ull, 2ull, 99ull}) {
    const curve::PointR1 t = curve::to_r1(torsion_point(seed));
    EXPECT_FALSE(curve::is_identity(t));
    EXPECT_TRUE(curve::is_identity(curve::dbl(t)));
    EXPECT_TRUE(curve::on_curve(t));
  }
}

TEST(Reference, MsmStreamReferenceEqualsMultiScalarMul) {
  const curve::Affine p = curve::deterministic_point(11), s = curve::deterministic_point(12);
  const std::vector<curve::Affine> pool = msm_pool(p, s, 64);
  Rng rng(5);
  MsmRefAccumulator acc;
  std::vector<curve::ScalarPoint> terms;
  for (int i = 0; i < 200; ++i) {
    const uint64_t j = rng.next_below(pool.size());
    const U256 k = rng.next_u256();
    acc.add(k, j);
    terms.push_back({k, pool[j], 256});
  }
  const curve::Affine want = curve::to_affine(curve::multi_scalar_mul(terms));
  const curve::Affine got = acc.result(p, s);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.y, want.y);
}

TEST(Ledger, FormulaOpCountsMatchTheirDocumentedCosts) {
  const OpTally d = dbl_tally(), a = add_tally(), m = add_mixed_tally();
  EXPECT_EQ(d.mul, 3);
  EXPECT_EQ(d.sqr, 4);
  EXPECT_EQ(d.add, 6);
  EXPECT_EQ(a.mul, 8);
  EXPECT_EQ(a.sqr, 0);
  EXPECT_EQ(a.add, 6);
  EXPECT_EQ(m.mul, 7);
  EXPECT_EQ(m.add, 7);
}

// Signature-scheme tests: Schnorr over FourQ and ECDSA over P-256
// (paper §II-A workflow), including negative cases, and the adversarial
// SchnorrQ vectors every verify path must agree on.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "curve/params.hpp"
#include "curve/scalarmul.hpp"
#include "dsa/ecdsa_fourq.hpp"
#include "dsa/ecdsa_p256.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/batch.hpp"
#include "hash/sha256.hpp"
#include "obs/obs.hpp"

namespace fourq::dsa {
namespace {

class SchnorrTest : public ::testing::Test {
 protected:
  SchnorrQ scheme;
  Rng rng{301};
};

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  auto kp = scheme.keygen(rng);
  for (const char* msg : {"", "hello", "intelligent transportation systems"}) {
    auto sig = scheme.sign(kp, msg);
    EXPECT_TRUE(scheme.verify(kp.pub, msg, sig)) << msg;
  }
}

TEST_F(SchnorrTest, DeterministicSignatures) {
  auto kp = scheme.keygen(rng);
  auto s1 = scheme.sign(kp, "msg");
  auto s2 = scheme.sign(kp, "msg");
  EXPECT_EQ(s1.s, s2.s);
  EXPECT_EQ(s1.r.x, s2.r.x);
}

TEST_F(SchnorrTest, RejectsWrongMessage) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "original");
  EXPECT_FALSE(scheme.verify(kp.pub, "tampered", sig));
}

TEST_F(SchnorrTest, RejectsWrongKey) {
  auto kp1 = scheme.keygen(rng);
  auto kp2 = scheme.keygen(rng);
  auto sig = scheme.sign(kp1, "msg");
  EXPECT_FALSE(scheme.verify(kp2.pub, "msg", sig));
}

TEST_F(SchnorrTest, RejectsMangledSignature) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "msg");
  auto bad = sig;
  bad.s = addmod(bad.s, U256(1), scheme.order());
  EXPECT_FALSE(scheme.verify(kp.pub, "msg", bad));
  auto bad2 = sig;
  bad2.r.x = bad2.r.x + curve::Fp2::from_u64(1);
  EXPECT_FALSE(scheme.verify(kp.pub, "msg", bad2));
}

TEST_F(SchnorrTest, RejectsOutOfRangeS) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "msg");
  sig.s = scheme.order();
  EXPECT_FALSE(scheme.verify(kp.pub, "msg", sig));
}

TEST_F(SchnorrTest, PublicKeyRecomputation) {
  auto kp = scheme.keygen(rng);
  auto pub = scheme.public_key(kp.secret);
  EXPECT_EQ(pub.x, kp.pub.x);
  EXPECT_EQ(pub.y, kp.pub.y);
}

TEST_F(SchnorrTest, BatchVerifyAcceptsValidBatch) {
  std::vector<SchnorrQ::BatchItem> items;
  for (int i = 0; i < 6; ++i) {
    auto kp = scheme.keygen(rng);
    std::string msg = "batch message " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  EXPECT_TRUE(scheme.verify_batch(items, rng));
}

TEST_F(SchnorrTest, BatchVerifyRejectsOneBadSignature) {
  std::vector<SchnorrQ::BatchItem> items;
  for (int i = 0; i < 5; ++i) {
    auto kp = scheme.keygen(rng);
    std::string msg = "batch message " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  items[3].msg += " (tampered)";
  EXPECT_FALSE(scheme.verify_batch(items, rng));
}

TEST_F(SchnorrTest, BatchVerifyRejectsSwappedSignatures) {
  auto kp1 = scheme.keygen(rng);
  auto kp2 = scheme.keygen(rng);
  auto s1 = scheme.sign(kp1, "m1");
  auto s2 = scheme.sign(kp2, "m2");
  std::vector<SchnorrQ::BatchItem> items = {{kp1.pub, "m1", s2}, {kp2.pub, "m2", s1}};
  EXPECT_FALSE(scheme.verify_batch(items, rng));
}

TEST_F(SchnorrTest, BatchVerifyEmptyAndSingleton) {
  EXPECT_TRUE(scheme.verify_batch({}, rng));
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "solo");
  EXPECT_TRUE(scheme.verify_batch({{kp.pub, "solo", sig}}, rng));
}

TEST_F(SchnorrTest, BatchVerifyRejectsOutOfRangeS) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "m");
  sig.s = scheme.order();
  EXPECT_FALSE(scheme.verify_batch({{kp.pub, "m", sig}}, rng));
}

TEST_F(SchnorrTest, BatchVerifyBackendsAgreeOnAcceptAndReject) {
  // Every MSM backend must reach the same verdict on the same batch — both
  // for an all-valid batch and for one with a tampered message.
  std::vector<SchnorrQ::BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    auto kp = scheme.keygen(rng);
    std::string msg = "backend agreement " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  using curve::MsmBackend;
  for (MsmBackend b : {MsmBackend::kStraus, MsmBackend::kPippenger, MsmBackend::kAuto}) {
    curve::MsmOptions opts;
    opts.backend = b;
    Rng r1(777), r2(777);  // same weights for the accept and reject runs
    EXPECT_TRUE(scheme.verify_batch(items, r1, opts)) << curve::msm_backend_name(b);
    auto tampered = items;
    tampered[5].msg += " (tampered)";
    EXPECT_FALSE(scheme.verify_batch(tampered, r2, opts)) << curve::msm_backend_name(b);
  }
}

TEST_F(SchnorrTest, SignatureSerializationRoundTrip) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "serialize me");
  auto bytes = scheme.encode_signature(sig);
  auto back = scheme.decode_signature(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->s, sig.s);
  EXPECT_EQ(back->r.x, sig.r.x);
  EXPECT_EQ(back->r.y, sig.r.y);
  EXPECT_TRUE(scheme.verify(kp.pub, "serialize me", *back));
}

TEST_F(SchnorrTest, DecodeRejectsCorruptedSignature) {
  auto kp = scheme.keygen(rng);
  auto bytes = scheme.encode_signature(scheme.sign(kp, "m"));
  // Corrupt s into an out-of-range value (order is ~2^246, so setting the
  // top byte makes s >= N).
  auto bad_s = bytes;
  bad_s[63] = 0xff;
  EXPECT_FALSE(scheme.decode_signature(bad_s).has_value());
  // Corrupt R's y into (almost certainly) a y with no valid x, or a
  // different point; either decode fails or verification fails.
  auto bad_r = bytes;
  bad_r[0] ^= 0x01;
  auto decoded = scheme.decode_signature(bad_r);
  if (decoded) {
    EXPECT_FALSE(scheme.verify(kp.pub, "m", *decoded));
  }
}

TEST_F(SchnorrTest, ChallengeBytesMatchTheHexStringFormula) {
  // The challenge hashes each point as x.to_hex() + y.to_hex(), written
  // without allocating; it must equal the digest of that text on random
  // points and on coordinates with leading zero nibbles, 0, 1, p - 1 and
  // values next to 2^64 and 2^126.
  const field::Fp edge[] = {field::Fp(), field::Fp::from_u64(1),
                            field::Fp::from_canonical(field::Fp::P() - 1),
                            field::Fp::from_u64(~0ull), field::Fp::from_words(0, 1),
                            field::Fp::from_words(0xf, 0x3fffffffffffffffull)};
  std::vector<curve::Affine> points;
  for (const field::Fp& a : edge)
    for (const field::Fp& b : edge)
      points.push_back({field::Fp2(a, b), field::Fp2(b, a)});
  for (int i = 0; i < 32; ++i) points.push_back(scheme.keygen(rng).pub);
  const std::string msgs[] = {"", "m", std::string(200, 'x')};
  for (size_t i = 0; i < points.size(); ++i) {
    const curve::Affine& r = points[i];
    const curve::Affine& q = points[(i * 7 + 3) % points.size()];
    const std::string& msg = msgs[i % 3];
    const U256 want = mod(hash::digest_to_u256(hash::Sha256::digest(
                              r.x.to_hex() + r.y.to_hex() + q.x.to_hex() + q.y.to_hex() + msg)),
                          scheme.order());
    ASSERT_EQ(scheme.challenge(r, q, msg), want) << "point " << i;
  }
}

TEST_F(SchnorrTest, PublicKeySerializationRoundTrip) {
  auto kp = scheme.keygen(rng);
  auto bytes = scheme.encode_public_key(kp.pub);
  auto back = scheme.decode_public_key(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->x, kp.pub.x);
  EXPECT_EQ(back->y, kp.pub.y);
  auto sig = scheme.sign(kp, "compressed-key verify");
  EXPECT_TRUE(scheme.verify(*back, "compressed-key verify", sig));
}

// --- Adversarial vectors: one acceptance predicate on every path ---------

using curve::Affine;
using curve::PointR1;

// Points of every order d | 392 that occurs in E(F_{p^2}), from [N]P of
// deterministic points: [N]P has order dividing 392, and [ord/d]([N]P)
// order d. The 7-part of the group is not cyclic (no sampled [N]P has a
// component of order 49), so the orders that occur divide 56.
std::vector<std::pair<uint64_t, Affine>> torsion_by_order() {
  const uint64_t divisors[] = {1, 2, 4, 7, 8, 14, 28, 49, 56, 98, 196, 392};
  auto order = [&](const PointR1& t) {
    for (uint64_t d : divisors)
      if (curve::is_identity(curve::mul_small(d, t))) return d;
    return uint64_t{0};
  };
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    PointR1 t = curve::scalar_mul_reference(curve::candidate_subgroup_order(),
                                            curve::deterministic_point(seed));
    EXPECT_EQ(56 % order(t), 0u) << "seed " << seed;
    if (order(t) != 56) continue;
    std::vector<std::pair<uint64_t, Affine>> out;
    for (uint64_t d : {2, 4, 8, 7, 14, 28, 56}) {
      PointR1 td = curve::mul_small(56 / d, t);
      EXPECT_EQ(order(td), d);
      out.push_back({d, curve::to_affine(td)});
    }
    return out;
  }
  ADD_FAILURE() << "no [N]P of order 56 among the sampled points";
  return {};
}

struct Vector {
  std::string label;
  SchnorrQ::BatchItem item;
  bool expect;  // verdict by the definition
};

// [392]([s]G - R - [e]Q) == O for curve points and s < N, with both scalar
// multiplications by the classic double-and-add.
bool verdict_by_definition(const SchnorrQ& scheme, const SchnorrQ::BatchItem& it) {
  if (!curve::on_curve(it.pub) || !curve::on_curve(it.sig.r) || it.sig.s >= scheme.order())
    return false;
  const U256 e = scheme.challenge(it.sig.r, it.pub, it.msg);
  PointR1 rhs = curve::add(curve::to_r1(it.sig.r),
                           curve::to_r2(curve::scalar_mul_reference(e, it.pub)));
  PointR1 d = curve::add(curve::scalar_mul_reference(it.sig.s, scheme.generator()),
                         curve::neg_r2(curve::to_r2(rhs)));
  return curve::is_identity(curve::mul_small(curve::kCofactor, d));
}

class VerifyVectors : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { vectors_ = new std::vector<Vector>(build()); }
  static void TearDownTestSuite() { delete vectors_; }

  // A signature with nonce k on msg under (secret, pub), R = [k]G + rt:
  // s = k + e*secret mod N with e over the R and pub given.
  static SchnorrQ::BatchItem forge(const SchnorrQ& scheme, const U256& secret,
                                   const Affine& pub, const U256& k, const Affine* rt,
                                   const std::string& msg) {
    const Monty n(scheme.order());
    PointR1 r = curve::scalar_mul(k, scheme.generator());
    if (rt) r = curve::add(r, curve::to_r2(curve::to_r1(*rt)));
    const Affine ra = curve::to_affine(r);
    const U256 e = scheme.challenge(ra, pub, msg);
    const U256 es = n.from_monty(n.mul(n.to_monty(e), n.to_monty(secret)));
    return {pub, msg, {ra, addmod(mod(k, scheme.order()), es, scheme.order())}};
  }

  static std::vector<Vector> build() {
    SchnorrQ scheme;
    Rng rng(0x7e57);
    std::vector<Vector> v;
    auto push = [&](std::string label, SchnorrQ::BatchItem it, bool intended) {
      const bool expect = verdict_by_definition(scheme, it);
      EXPECT_EQ(expect, intended) << label;
      v.push_back({std::move(label), std::move(it), expect});
    };
    const Affine identity{curve::Fp2(), curve::Fp2::from_u64(1)};
    for (int i = 0; i < 4; ++i) {
      auto kp = scheme.keygen(rng);
      const std::string msg = "honest " + std::to_string(i);
      push("honest", {kp.pub, msg, scheme.sign(kp, msg)}, true);
      SchnorrQ::BatchItem t = {kp.pub, msg, scheme.sign(kp, msg)};
      t.msg[0] ^= 0x20;
      push("tampered message", t, false);
    }
    auto kp = scheme.keygen(rng);
    for (const auto& [d, t] : torsion_by_order()) {
      const std::string o = std::to_string(d);
      const Affine qt = curve::to_affine(curve::add(curve::to_r1(kp.pub),
                                                    curve::to_r2(curve::to_r1(t))));
      // Signed with the honest secret, Q + T in the challenge.
      const std::string m = "key Q+T, order " + o;
      push(m, {qt, m, scheme.sign(SchnorrQ::KeyPair{kp.secret, qt}, m)}, true);
      SchnorrQ::BatchItem bad = {qt, m, scheme.sign(SchnorrQ::KeyPair{kp.secret, qt}, m)};
      bad.msg += "!";
      push("key Q+T, tampered, order " + o, bad, false);
      push("R+T, order " + o, forge(scheme, kp.secret, kp.pub, rng.next_u256(), &t, "R+T " + o),
           true);
      // Small-order key (secret 0) and small-order R (nonce 0).
      push("key T, order " + o, forge(scheme, U256(), t, rng.next_u256(), nullptr, "key " + o),
           true);
      push("R = T, order " + o, forge(scheme, kp.secret, kp.pub, U256(), &t, "R=T " + o), true);
    }
    push("identity key", forge(scheme, U256(), identity, rng.next_u256(), nullptr, "id key"),
         true);
    SchnorrQ::BatchItem id_bad = forge(scheme, U256(), identity, rng.next_u256(), nullptr, "id");
    id_bad.sig.s = addmod(id_bad.sig.s, U256(1), scheme.order());
    push("identity key, wrong s", id_bad, false);
    push("identity R", forge(scheme, kp.secret, kp.pub, U256(), nullptr, "id R"), true);
    SchnorrQ::BatchItem base = {kp.pub, "ranges", scheme.sign(kp, "ranges")};
    SchnorrQ::BatchItem s_n = base, s_max = base, off_key = base, off_r = base, swapped = base;
    s_n.sig.s = scheme.order();
    push("s = N", s_n, false);
    s_max.sig.s = U256(~0ull, ~0ull, ~0ull, ~0ull);
    push("s = 2^256 - 1", s_max, false);
    off_key.pub.x = off_key.pub.x + curve::Fp2::from_u64(1);
    push("off-curve key", off_key, false);
    off_r.sig.r.y = off_r.sig.r.y + curve::Fp2::from_u64(1);
    push("off-curve R", off_r, false);
    swapped.pub = scheme.keygen(rng).pub;
    push("wrong key", swapped, false);
    // Interleave valid and invalid vectors so bisection splits mixed sets.
    std::shuffle(v.begin(), v.end(), std::mt19937_64(7));
    return v;
  }

  static std::vector<SchnorrQ::BatchItem> items() {
    std::vector<SchnorrQ::BatchItem> out;
    for (const Vector& x : *vectors_) out.push_back(x.item);
    return out;
  }

  SchnorrQ scheme;
  static std::vector<Vector>* vectors_;
};

std::vector<Vector>* VerifyVectors::vectors_ = nullptr;

TEST_F(VerifyVectors, CoverTheAdversarialCases) {
  // The torsion vectors are the ones an uncofactored check gets wrong:
  // some fail [s]G == R + [e]Q although the definition accepts them.
  size_t accepted = 0, uncofactored_rejects = 0;
  for (const Vector& x : *vectors_) {
    accepted += x.expect;
    const SchnorrQ::BatchItem& it = x.item;
    if (!x.expect || x.label.find("order") == std::string::npos) continue;
    const U256 e = scheme.challenge(it.sig.r, it.pub, it.msg);
    PointR1 rhs = curve::add(curve::to_r1(it.sig.r),
                             curve::to_r2(curve::scalar_mul_reference(e, it.pub)));
    uncofactored_rejects +=
        !curve::equal(curve::scalar_mul_reference(it.sig.s, scheme.generator()), rhs);
  }
  EXPECT_EQ(vectors_->size(), 51u);
  EXPECT_GT(accepted, 20u);
  EXPECT_LT(accepted, vectors_->size());
  EXPECT_GT(uncofactored_rejects, 10u);
}

TEST_F(VerifyVectors, VerifyAndSingletonBatchesMatchTheDefinition) {
  Rng rng(1);
  for (const Vector& x : *vectors_) {
    EXPECT_EQ(scheme.verify(x.item.pub, x.item.msg, x.item.sig), x.expect) << x.label;
    EXPECT_EQ(scheme.verify_batch({x.item}, rng), x.expect) << x.label;
  }
}

TEST_F(VerifyVectors, MixedBatchesMatchTheDefinition) {
  std::vector<SchnorrQ::BatchItem> valid;
  for (const Vector& x : *vectors_)
    if (x.expect) valid.push_back(x.item);
  for (uint64_t seed : {2, 3}) {
    Rng rng(seed);
    EXPECT_TRUE(scheme.verify_batch(valid, rng));
    EXPECT_FALSE(scheme.verify_batch(items(), rng));
  }
  Rng rng(4);
  for (const Vector& x : *vectors_) {
    if (x.expect) continue;
    std::vector<SchnorrQ::BatchItem> batch = valid;
    batch.insert(batch.begin() + static_cast<std::ptrdiff_t>(batch.size() / 3), x.item);
    EXPECT_FALSE(scheme.verify_batch(batch, rng)) << x.label;
  }
}

TEST_F(VerifyVectors, VerifyEachMatchesTheDefinition) {
  const std::vector<SchnorrQ::BatchItem> all = items();
  for (uint64_t seed : {5, 6, 7}) {
    Rng rng(seed);
    std::vector<uint8_t> verdicts(all.size(), 7);
    scheme.verify_each(all, verdicts, rng);
    for (size_t i = 0; i < all.size(); ++i)
      EXPECT_EQ(verdicts[i], (*vectors_)[i].expect ? 1 : 0) << (*vectors_)[i].label;
  }
  // Every prefix length, so sets of every size bisect (odd halves too).
  Rng rng(8);
  for (size_t n = 0; n <= 12; ++n) {
    std::vector<uint8_t> verdicts(n);
    scheme.verify_each(std::span(all).first(n), verdicts, rng);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(verdicts[i], (*vectors_)[i].expect ? 1 : 0) << n;
  }
}

TEST_F(VerifyVectors, BatchEngineMatchesTheDefinition) {
  const std::vector<SchnorrQ::BatchItem> all = items();
  for (int workers : {1, 3}) {
    for (size_t chunk : {size_t{0}, size_t{1}, size_t{5}}) {
      engine::EngineOptions opt;
      opt.workers = workers;
      opt.chunk = chunk;
      engine::BatchEngine eng(opt);
      const std::vector<uint8_t> verdicts = eng.verify(all);
      ASSERT_EQ(verdicts.size(), all.size());
      for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(verdicts[i], (*vectors_)[i].expect ? 1 : 0)
            << (*vectors_)[i].label << " workers " << workers << " chunk " << chunk;
    }
  }
}

// --- Forgery identification in verify_each --------------------------------

// n honest items signed under `keys` distinct keys, each item by a random
// one, so a 64-item set over 28 keys merges repeated keys into one Q term.
std::vector<SchnorrQ::BatchItem> honest_burst(const SchnorrQ& scheme, size_t n, size_t keys) {
  Rng rng(0xb0057 + n);
  std::vector<SchnorrQ::KeyPair> fleet(keys);
  for (SchnorrQ::KeyPair& kp : fleet) kp = scheme.keygen(rng);
  std::vector<SchnorrQ::BatchItem> out;
  for (size_t i = 0; i < n; ++i) {
    const SchnorrQ::KeyPair& kp = fleet[rng.next_below(keys)];
    const std::string msg = "burst message " + std::to_string(i);
    out.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  return out;
}

// A forgery that passes the precheck: a changed message, or s + 1 mod N.
void tamper(SchnorrQ::BatchItem& it, bool in_s, const SchnorrQ& scheme) {
  if (in_s)
    it.sig.s = addmod(it.sig.s, U256(1), scheme.order());
  else
    it.msg += " (forged)";
}

// verify_each's verdicts must be 0 exactly at the indices in `bad`.
void expect_rejected(const SchnorrQ& scheme, const std::vector<SchnorrQ::BatchItem>& items,
                     const std::vector<size_t>& bad, Rng& rng, const std::string& what) {
  std::vector<uint8_t> verdicts(items.size(), 7);
  scheme.verify_each(items, verdicts, rng);
  for (size_t i = 0; i < items.size(); ++i) {
    const bool rejected = std::find(bad.begin(), bad.end(), i) != bad.end();
    EXPECT_EQ(verdicts[i], rejected ? 0 : 1) << what << ", item " << i;
  }
}

TEST_F(SchnorrTest, VerifyEachNamesOneForgeryAtEveryIndex) {
  const std::vector<SchnorrQ::BatchItem> burst = honest_burst(scheme, 64, 28);
  for (size_t j = 0; j < burst.size(); ++j)
    for (bool in_s : {false, true}) {
      std::vector<SchnorrQ::BatchItem> set = burst;
      tamper(set[j], in_s, scheme);
      expect_rejected(scheme, set, {j}, rng,
                      "forged " + std::string(in_s ? "s" : "message") + " at " + std::to_string(j));
    }
}

TEST_F(SchnorrTest, VerifyEachFallsBackToBisectionOnSeveralForgeries) {
  const std::vector<SchnorrQ::BatchItem> burst = honest_burst(scheme, 64, 28);
  const std::vector<std::vector<size_t>> cases = {
      {0, 63}, {17, 18}, {5, 40}, {0, 1, 2}, {3, 17, 40}, {21, 42, 63}};
  for (const std::vector<size_t>& bad : cases) {
    std::vector<SchnorrQ::BatchItem> set = burst;
    std::string what = "forgeries at";
    for (size_t k = 0; k < bad.size(); ++k) {
      tamper(set[bad[k]], k % 2 == 1, scheme);
      what += " " + std::to_string(bad[k]);
    }
    expect_rejected(scheme, set, bad, rng, what);
  }
}

TEST_F(SchnorrTest, VerifyEachNamesTheForgeryInTwoAndThreeItemSets) {
  for (size_t n : {2, 3}) {
    const std::vector<SchnorrQ::BatchItem> burst = honest_burst(scheme, n, 2);
    for (size_t j = 0; j < n; ++j)
      for (bool in_s : {false, true}) {
        std::vector<SchnorrQ::BatchItem> set = burst;
        tamper(set[j], in_s, scheme);
        expect_rejected(scheme, set, {j}, rng,
                        std::to_string(n) + " items, forgery at " + std::to_string(j));
      }
  }
}

TEST_F(SchnorrTest, VerifyEachRunsOneMsmCleanAndThreeForOneForgery) {
  if (!obs::compiled_in()) GTEST_SKIP() << "curve.msm.calls is compiled out";
  const obs::Counter& calls = obs::global().metrics.counter("curve.msm.calls");
  std::vector<SchnorrQ::BatchItem> set = honest_burst(scheme, 64, 28);
  auto msms = [&] {
    const uint64_t before = calls.value();
    std::vector<uint8_t> verdicts(set.size());
    scheme.verify_each(set, verdicts, rng);
    return calls.value() - before;
  };
  EXPECT_EQ(msms(), 1u);
  tamper(set[17], false, scheme);
  EXPECT_EQ(msms(), 3u);  // the set, the index-weighted set, item 17
}

TEST_F(SchnorrTest, VerifyEachIdentifiesFromFiveItemsAndBisectsBelow) {
  if (!obs::compiled_in()) GTEST_SKIP() << "curve.msm.calls is compiled out";
  const obs::Counter& calls = obs::global().metrics.counter("curve.msm.calls");
  for (size_t n = 2; n <= 8; ++n) {
    const std::vector<SchnorrQ::BatchItem> burst = honest_burst(scheme, n, 3);
    for (size_t j = 0; j < n; ++j) {
      std::vector<SchnorrQ::BatchItem> set = burst;
      tamper(set[j], j % 2 == 1, scheme);
      std::vector<uint8_t> verdicts(n, 7);
      const uint64_t before = calls.value();
      scheme.verify_each(set, verdicts, rng);
      // Bisection alone runs the set and one left half per level down to
      // the forgery: 2 at n = 2, 2 (j = 0) or 3 at n = 3, 3 at n = 4.
      // Identification runs the set, the index-weighted set and item j.
      const uint64_t bisection = n == 2 || (n == 3 && j == 0) ? 2 : 3;
      const std::string what = std::to_string(n) + " items, forgery at " + std::to_string(j);
      EXPECT_EQ(calls.value() - before, n >= 5 ? 3u : bisection) << what;
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(verdicts[i], scheme.verify(set[i].pub, set[i].msg, set[i].sig) ? 1 : 0)
            << what << ", item " << i;
    }
  }
}

TEST_F(VerifyVectors, VerifyEachNamesAForgeryBesideTorsionAndPrecheckFailures) {
  auto by_label = [](const std::string& label) {
    for (const Vector& x : *vectors_)
      if (x.label == label) return x;
    ADD_FAILURE() << "no vector " << label;
    return Vector{};
  };
  // Precheck failures ahead of the forgery make its live index smaller
  // than its item index; accepted torsion-key items flank it.
  const Vector off_r = by_label("off-curve R"), s_n = by_label("s = N");
  const Vector torsion2 = by_label("key Q+T, order 2"), torsion8 = by_label("key Q+T, order 8");
  ASSERT_TRUE(torsion2.expect && torsion8.expect && !off_r.expect && !s_n.expect);
  const std::vector<SchnorrQ::BatchItem> burst = honest_burst(scheme, 64, 28);
  Rng rng(9);
  for (size_t j : {4, 31, 62}) {
    std::vector<SchnorrQ::BatchItem> set = burst;
    set[0] = off_r.item;
    set[1] = s_n.item;
    set[j - 1] = torsion2.item;
    set[j + 1] = torsion8.item;
    tamper(set[j], j % 2 == 0, scheme);
    expect_rejected(scheme, set, {0, 1, j}, rng, "forgery at " + std::to_string(j));
  }
}

TEST_F(SchnorrTest, DecodeRejectsNonCanonicalEncodings) {
  auto kp = scheme.keygen(rng);
  const SchnorrQ::EncodedSignature good = scheme.encode_signature(scheme.sign(kp, "m"));
  ASSERT_TRUE(scheme.decode_signature(good).has_value());
  auto bad = good;  // y.re == p
  std::fill(bad.begin(), bad.begin() + 15, uint8_t{0xff});
  bad[15] = 0x7f;
  EXPECT_FALSE(scheme.decode_signature(bad).has_value());
  bad = good;  // bit 127 of y.re set
  bad[15] |= 0x80;
  EXPECT_FALSE(scheme.decode_signature(bad).has_value());
  // x = 0 with the sign bit set: the identity's encoding plus the sign.
  bad = good;
  const curve::CompressedPoint id = curve::compress(Affine{curve::Fp2(), curve::Fp2::from_u64(1)});
  std::copy(id.begin(), id.end(), bad.begin());
  ASSERT_TRUE(scheme.decode_signature(bad).has_value());
  bad[31] |= 0x80;
  EXPECT_FALSE(scheme.decode_signature(bad).has_value());
}

TEST_F(SchnorrTest, FuzzDecodedSignaturesReencodeByteForByte) {
  // Seeded fuzz loop: valid wire signatures with 1-3 flipped bits, and a
  // random s below 2^247. Every accepted input carries a curve point R and
  // s < N and re-encodes byte for byte.
  std::vector<SchnorrQ::EncodedSignature> pool;
  for (int i = 0; i < 16; ++i) {
    auto kp = scheme.keygen(rng);
    pool.push_back(scheme.encode_signature(scheme.sign(kp, "fuzz " + std::to_string(i))));
  }
  size_t accepted = 0;
  for (size_t i = 0; i < 3000; ++i) {
    SchnorrQ::EncodedSignature w = pool[i % pool.size()];
    if (i % 3 == 0)
      for (size_t b = 32; b < 64; ++b) w[b] = static_cast<uint8_t>(rng.next_u64());
    if (i % 3 == 0) w[63] &= 0x7f >> 1;
    const uint64_t flips = 1 + rng.next_below(3);
    for (uint64_t f = 0; f < flips; ++f)
      w[rng.next_below(64)] ^= static_cast<uint8_t>(1u << rng.next_below(8));
    const std::optional<SchnorrQ::Signature> sig = scheme.decode_signature(w);
    if (!sig) continue;
    ++accepted;
    ASSERT_TRUE(curve::on_curve(sig->r));
    ASSERT_LT(sig->s, scheme.order());
    ASSERT_EQ(scheme.encode_signature(*sig), w);
  }
  EXPECT_GT(accepted, 100u);
}

class EcdsaTest : public ::testing::Test {
 protected:
  EcdsaP256 scheme;
  Rng rng{302};
};

TEST_F(EcdsaTest, SignVerifyRoundTrip) {
  auto kp = scheme.keygen(rng);
  for (const char* msg : {"", "hello", "priority vehicle approaching"}) {
    auto sig = scheme.sign(kp, msg);
    EXPECT_TRUE(scheme.verify(kp.pub, msg, sig)) << msg;
  }
}

TEST_F(EcdsaTest, RejectsWrongMessage) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "original");
  EXPECT_FALSE(scheme.verify(kp.pub, "tampered", sig));
}

TEST_F(EcdsaTest, RejectsWrongKey) {
  auto kp1 = scheme.keygen(rng);
  auto kp2 = scheme.keygen(rng);
  EXPECT_FALSE(scheme.verify(kp2.pub, "msg", scheme.sign(kp1, "msg")));
}

TEST_F(EcdsaTest, RejectsZeroComponents) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "msg");
  EXPECT_FALSE(scheme.verify(kp.pub, "msg", {U256(), sig.s}));
  EXPECT_FALSE(scheme.verify(kp.pub, "msg", {sig.r, U256()}));
}

TEST_F(EcdsaTest, RejectsOutOfRangeComponents) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "msg");
  EXPECT_FALSE(scheme.verify(kp.pub, "msg", {scheme.curve().group_order(), sig.s}));
}

TEST_F(EcdsaTest, ExplicitNonceReproducible) {
  auto kp = scheme.keygen(rng);
  U256 k(0x123456789abcdefull);
  auto s1 = scheme.sign_with_nonce(kp, "m", k);
  auto s2 = scheme.sign_with_nonce(kp, "m", k);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
  EXPECT_TRUE(scheme.verify(kp.pub, "m", s1));
}

TEST_F(EcdsaTest, NonceReuseLeaksStructure) {
  // Classic failure mode: same nonce, different messages -> same r.
  auto kp = scheme.keygen(rng);
  U256 k(0xdeadbeefull);
  auto s1 = scheme.sign_with_nonce(kp, "m1", k);
  auto s2 = scheme.sign_with_nonce(kp, "m2", k);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_NE(s1.s, s2.s);
}

TEST_F(EcdsaTest, CrossSchemeSignaturesDontVerify) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "msg");
  // A signature over one message never verifies as another key's signature.
  auto kp2 = scheme.keygen(rng);
  EXPECT_FALSE(scheme.verify(kp2.pub, "msg", sig));
}

// --- ECDSA over FourQ (§II-A on the paper's own curve) ---------------------

class EcdsaFourQTest : public ::testing::Test {
 protected:
  EcdsaFourQ scheme;
  Rng rng{303};
};

TEST_F(EcdsaFourQTest, SignVerifyRoundTrip) {
  auto kp = scheme.keygen(rng);
  for (const char* msg : {"", "hello", "emergency brake warning, lane 3"}) {
    auto sig = scheme.sign(kp, msg);
    EXPECT_TRUE(scheme.verify(kp.pub, msg, sig)) << msg;
  }
}

TEST_F(EcdsaFourQTest, RejectsWrongMessageAndKey) {
  auto kp1 = scheme.keygen(rng);
  auto kp2 = scheme.keygen(rng);
  auto sig = scheme.sign(kp1, "original");
  EXPECT_FALSE(scheme.verify(kp1.pub, "tampered", sig));
  EXPECT_FALSE(scheme.verify(kp2.pub, "original", sig));
}

TEST_F(EcdsaFourQTest, RejectsZeroAndOutOfRange) {
  auto kp = scheme.keygen(rng);
  auto sig = scheme.sign(kp, "m");
  EXPECT_FALSE(scheme.verify(kp.pub, "m", {U256(), sig.s}));
  EXPECT_FALSE(scheme.verify(kp.pub, "m", {sig.r, U256()}));
  EXPECT_FALSE(scheme.verify(kp.pub, "m", {scheme.order(), sig.s}));
}

TEST_F(EcdsaFourQTest, SignaturesAreDeterministicPerKeyAndMessage) {
  auto kp = scheme.keygen(rng);
  auto s1 = scheme.sign(kp, "m");
  auto s2 = scheme.sign(kp, "m");
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
  EXPECT_NE(scheme.sign(kp, "m2").r, s1.r);
}

TEST_F(EcdsaFourQTest, ManyKeysManyMessages) {
  for (int i = 0; i < 4; ++i) {
    auto kp = scheme.keygen(rng);
    std::string msg = "message #" + std::to_string(i);
    EXPECT_TRUE(scheme.verify(kp.pub, msg, scheme.sign(kp, msg)));
  }
}

}  // namespace
}  // namespace fourq::dsa

// Signature-scheme tests: Schnorr over FourQ and ECDSA over P-256
// (paper §II-A workflow), including negative cases.
#include <gtest/gtest.h>

#include "dsa/ecdsa_fourq.hpp"
#include "dsa/ecdsa_p256.hpp"
#include "dsa/schnorrq.hpp"

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

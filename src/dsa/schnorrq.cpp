#include "dsa/schnorrq.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>

#include "common/check.hpp"
#include "curve/multiscalar.hpp"
#include "curve/params.hpp"
#include "curve/scalarmul.hpp"
#include "hash/hmac.hpp"
#include "hash/sha256.hpp"

namespace fourq::dsa {

namespace {

using BatchItem = SchnorrQ::BatchItem;

// 32 lowercase hex digits, most significant first (Fp::to_hex's text).
char* put_hex(const field::Fp& v, char* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const u128 raw = v.raw();
  for (int i = 0; i < 32; ++i) out[31 - i] = kDigits[static_cast<size_t>(raw >> (4 * i)) & 0xf];
  return out + 32;
}

char* put_fp2(const field::Fp2& v, char* out) {
  out = put_hex(v.re(), out);
  *out++ = '+';
  out = put_hex(v.im(), out);
  *out++ = 'i';
  return out;
}

// The bytes one point contributes to the challenge hash: the text
// x.to_hex() + y.to_hex(), each coordinate "<re>+<im>i".
constexpr size_t kChallengePointBytes = 2 * (32 + 1 + 32 + 1);

char* put_point(const curve::Affine& p, char* out) { return put_fp2(p.y, put_fp2(p.x, out)); }

// Items failing this get no challenge, no weight and no MSM term.
bool precheck(const curve::Affine& pub, const SchnorrQ::Signature& sig, const U256& n) {
  return curve::on_curve(pub) && curve::on_curve(sig.r) && sig.s < n;
}

curve::PointR1 sub(const curve::PointR1& a, const curve::PointR1& b) {
  return curve::add(a, curve::neg_r2(curve::to_r2(b)));
}

// The weighted residual of a set of signatures, built once: for each item
// that passes the precheck ("live") its challenge e, a random non-zero
// 128-bit weight z, z*s and z*e mod N, and the index of its public key
// among the set's distinct keys. cofactored(lo, hi, false) is [392] times
// the residual of live items [lo, hi):
//   [sum z s]G - sum [z]R - sum over distinct keys Q of [sum z e]Q.
// The scalars are reduced mod N, which moves the residual only by small-
// order points; [392] removes those, so residuals of disjoint ranges add.
class Residuals {
 public:
  Residuals(const SchnorrQ& scheme, const Monty& n, std::span<const BatchItem> items, Rng& rng)
      : n_(n.modulus()), g_(scheme.generator()) {
    for (uint32_t i = 0; i < items.size(); ++i)
      if (precheck(items[i].pub, items[i].sig, n_)) live_.push_back(i);
    w_.resize(live_.size());
    // Distinct keys by coordinates: items sharing one get one Q term.
    std::map<std::array<u128, 4>, uint32_t> key_ids;
    for (size_t k = 0; k < live_.size(); ++k) {
      const BatchItem& it = items[live_[k]];
      Weight& w = w_[k];
      do {
        w.z = U256(rng.next_u64(), rng.next_u64(), 0, 0);
      } while (w.z.is_zero());
      // mul(z R, x) = z x mod N: one Montgomery product per weighted scalar.
      const U256 zm = n.to_monty(w.z);
      w.zs = n.mul(zm, it.sig.s);
      w.ze = n.mul(zm, scheme.challenge(it.sig.r, it.pub, it.msg));
      w.neg_r = curve::neg(it.sig.r);
      const curve::Affine& q = it.pub;
      auto [id, fresh] = key_ids.try_emplace(
          {q.x.re().raw(), q.x.im().raw(), q.y.re().raw(), q.y.im().raw()},
          static_cast<uint32_t>(neg_q_.size()));
      if (fresh) neg_q_.push_back(curve::neg(q));
      w.key = id->second;
    }
  }

  // Item indices (into the constructor's items) that passed the precheck.
  const std::vector<uint32_t>& live() const { return live_; }

  // With `indexed`, item k's weight is (k - lo + 1) z: exact in its R
  // scalar (< 2^135 < N), mod N in its G and key contributions.
  curve::PointR1 cofactored(size_t lo, size_t hi, bool indexed,
                            const curve::MsmOptions& msm) const {
    U256 zs;
    std::vector<curve::ScalarPoint> terms;
    std::vector<size_t> q_term(neg_q_.size(), kNone);  // key -> its term
    const int r_bits = 128 + (indexed ? static_cast<int>(std::bit_width(hi - lo)) : 0);
    for (size_t k = lo; k < hi; ++k) {
      const Weight& w = w_[k];
      const uint64_t c = indexed ? k - lo + 1 : 1;
      auto times_c = [&](const U256& x) { return c == 1 ? x : mod(mul_wide(U256(c), x), n_); };
      zs = addmod(zs, times_c(w.zs), n_);
      terms.push_back({times_c(w.z), w.neg_r, r_bits});
      size_t& q = q_term[w.key];
      if (q == kNone) {
        q = terms.size();
        terms.push_back({U256(), neg_q_[w.key], 256});
      }
      terms[q].k = addmod(terms[q].k, times_c(w.ze), n_);
    }
    terms.push_back({zs, g_, 256});
    return curve::mul_small(curve::kCofactor, curve::multi_scalar_mul(terms, msm));
  }

  // If live item j alone fails, f = cofactored(0, n, false) is not O and the
  // index-weighted residual is [j+1]f (Bernstein, Doumen, Lange and
  // Oosterwijk, INDOCRYPT 2012). C_j = f confirms j: the other items' sum is
  // O, and j fails as verify() would. Returns false, setting nothing, else.
  bool identify(const curve::PointR1& f, std::span<uint8_t> verdicts,
                const curve::MsmOptions& msm) const {
    const size_t n = live_.size();
    const curve::PointR1 fw = cofactored(0, n, true, msm);
    const curve::PointR2 f2 = curve::to_r2(f);
    size_t j = 0;  // the first j with [j+1]f = fw
    for (curve::PointR1 jf = f; j < n && !curve::equal(jf, fw); ++j) jf = curve::add(jf, f2);
    if (j == n || !curve::equal(cofactored(j, j + 1, false, msm), f)) return false;
    for (size_t k = 0; k < n; ++k) verdicts[live_[k]] = k != j;
    return true;
  }

  // Sets verdicts[live[k]] for k in [lo, hi), given c = cofactored(lo, hi).
  // A failing set tests its left half by MSM and derives the right half's
  // residual by subtraction; a failing single item stays 0.
  void bisect(size_t lo, size_t hi, const curve::PointR1& c, std::span<uint8_t> verdicts,
              const curve::MsmOptions& msm) const {
    if (curve::is_identity(c)) {
      for (size_t k = lo; k < hi; ++k) verdicts[live_[k]] = 1;
      return;
    }
    if (hi - lo == 1) return;
    const size_t mid = lo + (hi - lo) / 2;
    const curve::PointR1 left = cofactored(lo, mid, false, msm);
    bisect(lo, mid, left, verdicts, msm);
    bisect(mid, hi, sub(c, left), verdicts, msm);
  }

 private:
  static constexpr size_t kNone = ~size_t{0};
  struct Weight {
    U256 z, zs, ze;        // weight, z*s mod N, z*e mod N
    curve::Affine neg_r;   // -R
    uint32_t key = 0;      // index into neg_q_
  };

  const U256& n_;
  const curve::Affine& g_;
  std::vector<uint32_t> live_;
  std::vector<Weight> w_;             // per live item
  std::vector<curve::Affine> neg_q_;  // per distinct key: -Q
};

}  // namespace

SchnorrQ::SchnorrQ()
    : n_(curve::candidate_subgroup_order()),
      g_{curve::candidate_generator_x(), curve::candidate_generator_y()},
      g_mul_(g_) {
  auto v = curve::validate_params();
  FOURQ_CHECK_MSG(v.all_ok(), "FourQ subgroup constants failed validation");
}

U256 SchnorrQ::challenge(const curve::Affine& r, const curve::Affine& pub,
                         const std::string& msg) const {
  std::array<char, 2 * kChallengePointBytes> points;
  put_point(pub, put_point(r, points.data()));
  hash::Sha256 h;
  h.update(reinterpret_cast<const uint8_t*>(points.data()), points.size());
  h.update(msg);
  return mod(hash::digest_to_u256(h.finalize()), n_.modulus());
}

U256 SchnorrQ::nonce(const U256& secret, const std::string& msg) const {
  // RFC 6979-style HMAC derivation: deterministic, non-zero mod N.
  return hash::derive_nonce(secret, "fourq-schnorr-nonce", msg, n_.modulus());
}

SchnorrQ::KeyPair SchnorrQ::keygen(Rng& rng) const {
  U256 secret = rng.next_mod_nonzero(n_.modulus());
  return KeyPair{secret, public_key(secret)};
}

curve::Affine SchnorrQ::public_key(const U256& secret) const {
  return curve::to_affine(g_mul_.mul(secret));
}

SchnorrQ::Signature SchnorrQ::sign(const KeyPair& kp, const std::string& msg) const {
  U256 k = nonce(kp.secret, msg);
  curve::Affine r = curve::to_affine(g_mul_.mul(k));
  U256 e = challenge(r, kp.pub, msg);
  // s = k + e * secret (mod N), via Montgomery domain for the product.
  U256 es = n_.from_monty(n_.mul(n_.to_monty(e), n_.to_monty(mod(kp.secret, n_.modulus()))));
  return Signature{r, addmod(k, es, n_.modulus())};
}

bool SchnorrQ::verify(const curve::Affine& pub, const std::string& msg,
                      const Signature& sig) const {
  if (!precheck(pub, sig, n_.modulus())) return false;
  U256 e = challenge(sig.r, pub, msg);
  // [392]([s]G - (R + [e]Q)) == O
  curve::PointR1 rhs =
      curve::add(curve::to_r1(sig.r), curve::to_r2(curve::scalar_mul(e, pub)));
  return curve::is_identity(curve::mul_small(curve::kCofactor, sub(g_mul_.mul(sig.s), rhs)));
}

bool SchnorrQ::verify_batch(const std::vector<BatchItem>& items, Rng& rng,
                            const curve::MsmOptions& msm) const {
  if (items.empty()) return true;
  Residuals res(*this, n_, items, rng);
  if (res.live().size() != items.size()) return false;
  return curve::is_identity(res.cofactored(0, items.size(), false, msm));
}

void SchnorrQ::verify_each(std::span<const BatchItem> items, std::span<uint8_t> verdicts,
                           Rng& rng, const curve::MsmOptions& msm) const {
  FOURQ_CHECK_MSG(verdicts.size() == items.size(), "verify_each: one verdict per item");
  std::fill(verdicts.begin(), verdicts.end(), uint8_t{0});
  Residuals res(*this, n_, items, rng);
  const size_t n = res.live().size();
  if (n == 0) return;
  const curve::PointR1 f = res.cofactored(0, n, false, msm);
  // Identification names a lone forgery in 2 MSMs after f; bisection in at
  // most ceil(log2 n), each over fewer terms. So identify only where
  // bisection can take more: ceil(log2 n) > 2, that is n >= 5.
  if (n < 5 || curve::is_identity(f) || !res.identify(f, verdicts, msm))
    res.bisect(0, n, f, verdicts, msm);
}

SchnorrQ::EncodedSignature SchnorrQ::encode_signature(const Signature& sig) const {
  EncodedSignature out{};
  curve::CompressedPoint r = curve::compress(sig.r);
  std::copy(r.begin(), r.end(), out.begin());
  for (int i = 0; i < 4; ++i)
    for (int b = 0; b < 8; ++b)
      out[static_cast<size_t>(32 + 8 * i + b)] = static_cast<uint8_t>(sig.s.w[i] >> (8 * b));
  return out;
}

std::optional<SchnorrQ::Signature> SchnorrQ::decode_signature(
    const EncodedSignature& bytes) const {
  curve::CompressedPoint rbytes{};
  std::copy(bytes.begin(), bytes.begin() + 32, rbytes.begin());
  auto r = curve::decompress(rbytes);
  if (!r) return std::nullopt;
  U256 s;
  for (int i = 0; i < 4; ++i) {
    uint64_t w = 0;
    for (int b = 7; b >= 0; --b)
      w = (w << 8) | bytes[static_cast<size_t>(32 + 8 * i + b)];
    s.w[i] = w;
  }
  if (s >= n_.modulus()) return std::nullopt;
  return Signature{*r, s};
}

curve::CompressedPoint SchnorrQ::encode_public_key(const curve::Affine& pub) const {
  return curve::compress(pub);
}

std::optional<curve::Affine> SchnorrQ::decode_public_key(
    const curve::CompressedPoint& bytes) const {
  return curve::decompress(bytes);
}

}  // namespace fourq::dsa

// Schnorr signatures over the FourQ prime-order subgroup — the DSA payload
// the paper's accelerator exists to serve (message authentication for ITS,
// §I). The scheme needs the subgroup order N and generator G, which are not
// printed in the paper; the constructor therefore insists that the runtime
// parameter validation passes (it does — see test_params.cpp).
//
// Nonces are derived deterministically (hash of secret key and message), so
// no RNG quality assumption enters the signature path.
//
// Every verify path accepts by one cofactored predicate (the ZIP-215 rule,
// Chalkias et al., "Taming the many EdDSAs"): a signature (R, s) on msg
// under key Q is valid iff Q and R are curve points, s < N and
//   [392]([s]G - R - [e]Q) == O,   e = challenge(R, Q, msg).
// Small-order components of Q or R therefore never split verify() from
// verify_batch() or verify_each(): each item's verdict is a function of the
// item alone, whatever the batch's random weights (docs/API.md).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/modint.hpp"
#include "common/rng.hpp"
#include "curve/encoding.hpp"
#include "curve/fixed_base.hpp"
#include "curve/multiscalar.hpp"
#include "curve/point.hpp"

namespace fourq::dsa {

class SchnorrQ {
 public:
  // Throws std::logic_error if the candidate FourQ subgroup constants fail
  // their runtime validation.
  SchnorrQ();

  struct KeyPair {
    U256 secret;       // in [1, N)
    curve::Affine pub;  // [secret]G
  };

  struct Signature {
    curve::Affine r;  // commitment R = [nonce]G
    U256 s;           // nonce + e*secret mod N
  };

  KeyPair keygen(Rng& rng) const;
  // Recomputes the public key for a given secret (e.g. stored keys).
  curve::Affine public_key(const U256& secret) const;

  Signature sign(const KeyPair& kp, const std::string& msg) const;
  // The cofactored predicate above, by one fixed-base [s]G and one
  // scalar_mul [e]Q.
  bool verify(const curve::Affine& pub, const std::string& msg, const Signature& sig) const;

  struct BatchItem {
    curve::Affine pub;
    std::string msg;
    Signature sig;
  };
  // Batch verification (Bellare–Garay–Rabin small-exponent test) with one
  // multi-scalar multiplication of the batch's residual
  //   [sum z_i s_i]G - sum [z_i]R_i - sum [z_i e_i]Q_i
  // under random non-zero 128-bit weights z_i from rng, the Q terms of a
  // repeated public key merged into one; true iff [392] times it is O.
  // True whenever every item verifies; if rng is unknown to whoever chose
  // the items, a batch holding an item verify() rejects passes with
  // probability at most 1/(2^128 - 1). The weight terms [z_i]R_i enter the
  // MSM at their native 128-bit length; msm selects the backend (Straus
  // for small batches, Pippenger buckets for large ones, optionally
  // parallelised via MsmOptions::parallel).
  bool verify_batch(const std::vector<BatchItem>& items, Rng& rng,
                    const curve::MsmOptions& msm = {}) const;

  // Per-item verdicts: verdicts[i] = 1 iff verify() accepts items[i]
  // (verdicts.size() must equal items.size()). Items that are not curve
  // points or carry s >= N get 0 without entering an MSM; the rest are
  // tested as a set by one MSM of their residual F as in verify_batch. If
  // F fails and n >= 5, a second MSM with the k-th item's weight times k+1
  // equals [j+1]F when item j alone fails, and j's own residual (a third)
  // confirms it; below 5 items bisection is never slower. Otherwise the
  // set is split in halves: the left half's residual is a new MSM, the
  // right half's the parent's minus the left's. A rejected
  // item always fails verify(); with rng unknown to whoever chose the
  // items, an invalid one passes with probability at most
  // (n + ceil(log2 n) - 1)/(2^128 - 1) for n live items (docs/API.md).
  void verify_each(std::span<const BatchItem> items, std::span<uint8_t> verdicts, Rng& rng,
                   const curve::MsmOptions& msm = {}) const;

  // Wire format: 64 bytes = compressed R (32) || s little-endian (32).
  using EncodedSignature = std::array<uint8_t, 64>;
  EncodedSignature encode_signature(const Signature& sig) const;
  // Strictly canonical: rejects a non-canonical or off-curve R and s >= N,
  // so an accepted encoding re-encodes byte for byte.
  std::optional<Signature> decode_signature(const EncodedSignature& bytes) const;

  // Public keys travel compressed (32 bytes).
  curve::CompressedPoint encode_public_key(const curve::Affine& pub) const;
  std::optional<curve::Affine> decode_public_key(const curve::CompressedPoint& bytes) const;

  const U256& order() const { return n_.modulus(); }
  const curve::Affine& generator() const { return g_; }

  // Fiat–Shamir challenge e = H(R || Q || m) mod N. Public so external
  // verifiers (e.g. the hardware-offload example) can recompute it.
  U256 challenge(const curve::Affine& r, const curve::Affine& pub,
                 const std::string& msg) const;

 private:
  U256 nonce(const U256& secret, const std::string& msg) const;

  Monty n_;                  // arithmetic mod the subgroup order
  curve::Affine g_;          // validated generator
  curve::FixedBaseMul g_mul_;  // cached generator table (keygen + signing)
};

}  // namespace fourq::dsa

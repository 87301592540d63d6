// Base field F_p with the Mersenne prime p = 2^127 - 1 (paper §II-B.2).
//
// Elements are kept canonical in [0, p). The Mersenne structure means
// reduction is a shift-and-add fold (2^127 ≡ 1 mod p), never a division —
// the property the paper's datapath is built around.
//
// The arithmetic below is inline, straight-line u128 code: products come
// from the dedicated 2x2-limb 128x128 multiply (common/u128.hpp) and are
// carried as (lo, hi) u128 halves into the fold, with no out-of-line call
// and no generic multi-limb loop on the hot path. This one implementation
// serves the scalar golden model, the curve and dsa layers, the engine's
// scalar executor and the generic lane kernels (field/fp_lanes.cpp).
// Canonical values are unique, so any correct reduction order gives
// bitwise-identical results; the range contracts of each stage are
// field/bounds.hpp, checked here by FOURQ_CHECKs on cold branches.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/u128.hpp"
#include "common/u256.hpp"

namespace fourq::field {

class Fp {
 public:
  // p = 2^127 - 1.
  static constexpr u128 P() { return (static_cast<u128>(1) << 127) - 1; }

  constexpr Fp() : v_(0) {}

  // Value taken mod p.
  static Fp from_u64(uint64_t v) { return Fp(static_cast<u128>(v)); }
  static Fp from_words(uint64_t lo, uint64_t hi);
  // Re-wraps a value already known to be canonical (e.g. produced by the
  // lane kernels in fp_lanes.hpp, which keep their outputs in [0, p)).
  static Fp from_canonical(u128 v);
  // Same without the range check — for per-element hot paths whose inputs
  // are canonical by construction (and covered by bitwise differential
  // tests). Everything else should use the checked variant.
  static Fp from_canonical_unchecked(u128 v) {
    Fp f;
    f.v_ = v;
    return f;
  }
  // Reduces an arbitrary 256-bit value mod p.
  static Fp from_u256(const U256& v) { return reduce_wide(v); }
  static Fp from_hex(const std::string& hex);
  // 1/2 = 2^126, since 2 * 2^126 = 2^127 ≡ 1 (mod p).
  static Fp half() { return Fp(static_cast<u128>(1) << 126); }

  uint64_t lo() const { return static_cast<uint64_t>(v_); }
  uint64_t hi() const { return static_cast<uint64_t>(v_ >> 64); }
  u128 raw() const { return v_; }
  U256 to_u256() const { return U256(lo(), hi(), 0, 0); }
  std::string to_hex() const;

  bool is_zero() const { return v_ == 0; }
  bool is_odd() const { return (v_ & 1) != 0; }

  friend bool operator==(const Fp& a, const Fp& b) { return a.v_ == b.v_; }
  friend bool operator!=(const Fp& a, const Fp& b) { return a.v_ != b.v_; }

  friend Fp operator+(const Fp& a, const Fp& b) {
    // a + b <= 2p - 2 < 2^128: a single fold suffices.
    return make_canonical(a.v_ + b.v_);
  }
  friend Fp operator-(const Fp& a, const Fp& b) {
    // a - b, or a + p - b when that would borrow (branch-free select).
    const u128 v = a.v_ + (P() & mask128(a.v_ < b.v_)) - b.v_;
    return Fp(v >= P() ? v - P() : v);
  }
  friend Fp operator*(const Fp& a, const Fp& b) {
    u128 lo, hi;
    mul_wide(a, b, lo, hi);
    return reduce_wide(lo, hi);
  }
  Fp operator-() const { return Fp() - *this; }

  // Dedicated squaring: exploits the symmetry of the product (the two cross
  // partial products are equal), so it needs 3 64x64 multiplies where the
  // general multiplication needs 4. Bit-identical to `*this * *this`.
  Fp sqr() const {
    u128 lo, hi;
    sqr_wide(*this, lo, hi);
    return reduce_wide(lo, hi);
  }
  // Multiplicative inverse x^(p-2) by a fixed addition chain; x must be
  // non-zero.
  Fp inv() const;
  // x^(2^n) — n repeated squarings.
  Fp sqr_n(int n) const;
  // Square root when one exists (p ≡ 3 mod 4, so x^((p+1)/4)).
  // Returns false if x is a non-residue.
  bool sqrt(Fp& root) const;
  Fp pow(const U256& e) const;

  // The 254-bit product a*b, *without* modular reduction, as (lo, hi)
  // halves. This is the value the lazy-reduction datapath carries between
  // units (Alg. 2 t0/t1).
  static void mul_wide(const Fp& a, const Fp& b, u128& lo, u128& hi) {
    mul128x128(a.v_, b.v_, lo, hi);
    FOURQ_CHECK((hi >> 126) == 0);  // canonical operands: product < 2^254
  }
  // The 254-bit square a*a without reduction (3 64x64 multiplies).
  static void sqr_wide(const Fp& a, u128& lo, u128& hi) {
    sqr128(a.v_, lo, hi);
    FOURQ_CHECK((hi >> 126) == 0);  // square < 2^254
  }
  static U256 mul_wide(const Fp& a, const Fp& b) {
    u128 lo, hi;
    mul_wide(a, b, lo, hi);
    return U256::from_halves(lo, hi);
  }
  static U256 sqr_wide(const Fp& a) {
    u128 lo, hi;
    sqr_wide(a, lo, hi);
    return U256::from_halves(lo, hi);
  }
  // Mersenne fold of a 256-bit value (hi:lo) into [0, p): interprets
  // v = A + B*2^127 + C*2^254 and returns A + B + C mod p (paper Alg. 2,
  // steps t9/t10).
  static Fp reduce_wide(u128 lo, u128 hi) {
    const u128 a = lo & P();                                // bits [126:0]
    const u128 b = (lo >> 127) | ((hi & (P() >> 1)) << 1);  // bits [253:127]
    const u128 c = hi >> 126;                               // bits [255:254]
    // 2^127 ≡ 1 and 2^254 ≡ 1: fold A + B (< 2^128) once, then add C.
    // The sum is at most (2^127 - 1) + 1 + 3 < 2p: one conditional subtract.
    const u128 s = a + b;
    const u128 v = (s & P()) + (s >> 127) + c;
    return Fp(v >= P() ? v - P() : v);
  }
  static Fp reduce_wide(const U256& v) { return reduce_wide(v.lo128(), v.hi128()); }

 private:
  constexpr explicit Fp(u128 v) : v_(v) {}
  // v < 2^128. Fold bit 127 once (result <= 2^127 = p + 1), then one
  // conditional subtract.
  static Fp make_canonical(u128 v) {
    v = (v & P()) + (v >> 127);
    return Fp(v >= P() ? v - P() : v);
  }

  u128 v_;
};

}  // namespace fourq::field

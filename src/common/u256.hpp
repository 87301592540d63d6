// Fixed-width 256- and 512-bit unsigned integers.
//
// These back the scalar arithmetic (FourQ scalars, P-256/Curve25519 field
// and order arithmetic) and the wide intermediates of the lazy-reduction
// datapath model. Little-endian 64-bit limbs.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/u128.hpp"

namespace fourq {

struct U256 {
  std::array<uint64_t, 4> w{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(uint64_t v) : w{v, 0, 0, 0} {}
  constexpr U256(uint64_t w0, uint64_t w1, uint64_t w2, uint64_t w3) : w{w0, w1, w2, w3} {}

  // From / to (lo, hi) u128 halves, the form the inline field arithmetic
  // carries 256-bit values in.
  static constexpr U256 from_halves(u128 lo, u128 hi) {
    return U256(static_cast<uint64_t>(lo), static_cast<uint64_t>(lo >> 64),
                static_cast<uint64_t>(hi), static_cast<uint64_t>(hi >> 64));
  }
  u128 lo128() const { return (static_cast<u128>(w[1]) << 64) | w[0]; }
  u128 hi128() const { return (static_cast<u128>(w[3]) << 64) | w[2]; }

  static U256 from_hex(const std::string& hex);
  std::string to_hex() const;

  bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  bool is_odd() const { return (w[0] & 1) != 0; }
  bool bit(unsigned i) const { return (w[i / 64] >> (i % 64)) & 1; }
  void set_bit(unsigned i, bool v);
  // Index of the highest set bit, or -1 when zero.
  int top_bit() const;

  friend bool operator==(const U256& a, const U256& b) { return a.w == b.w; }
  friend bool operator!=(const U256& a, const U256& b) { return !(a == b); }
  friend bool operator<(const U256& a, const U256& b);
  friend bool operator<=(const U256& a, const U256& b) { return !(b < a); }
  friend bool operator>(const U256& a, const U256& b) { return b < a; }
  friend bool operator>=(const U256& a, const U256& b) { return !(a < b); }
};

struct U512 {
  std::array<uint64_t, 8> w{};

  U512() = default;
  explicit U512(const U256& lo) {
    for (int i = 0; i < 4; ++i) w[i] = lo.w[i];
  }

  U256 lo256() const { return U256(w[0], w[1], w[2], w[3]); }
  U256 hi256() const { return U256(w[4], w[5], w[6], w[7]); }
  bool is_zero() const;
  int top_bit() const;
  bool bit(unsigned i) const { return (w[i / 64] >> (i % 64)) & 1; }

  friend bool operator==(const U512& a, const U512& b) { return a.w == b.w; }
  friend bool operator!=(const U512& a, const U512& b) { return !(a == b); }
  friend bool operator<(const U512& a, const U512& b);
  friend bool operator>=(const U512& a, const U512& b) { return !(a < b); }
};

// --- U256 arithmetic -------------------------------------------------------

// r = a + b (mod 2^256); returns the carry-out bit. Straight-line 64-bit
// limb chains, deliberately not the field layer's add256/sub256: Monty
// (common/modint.hpp) builds on these, and the tests use it as the
// independent reference for the field arithmetic.
inline uint64_t add(const U256& a, const U256& b, U256& r) {
  uint64_t c = 0;
  for (int i = 0; i < 4; ++i) c = addc64(a.w[i], b.w[i], c, r.w[i]);
  return c;
}
// r = a - b (mod 2^256); returns the borrow-out bit.
inline uint64_t sub(const U256& a, const U256& b, U256& r) {
  uint64_t bw = 0;
  for (int i = 0; i < 4; ++i) bw = subb64(a.w[i], b.w[i], bw, r.w[i]);
  return bw;
}
// Full 256x256 -> 512 product.
U512 mul_wide(const U256& a, const U256& b);
// Truncated product mod 2^256.
U256 mul_lo(const U256& a, const U256& b);
// Logical shifts.
U256 shl(const U256& a, unsigned n);
U256 shr(const U256& a, unsigned n);

// Remainder a mod m via binary long division (m != 0). Used only off the
// hot path (parameter setup, tests); hot paths use Montgomery form.
U256 mod(const U512& a, const U256& m);
U256 mod(const U256& a, const U256& m);

// (a + b) mod m and (a - b) mod m with a, b already reduced.
U256 addmod(const U256& a, const U256& b, const U256& m);
U256 submod(const U256& a, const U256& b, const U256& m);

// --- U512 arithmetic -------------------------------------------------------

uint64_t add(const U512& a, const U512& b, U512& r);
uint64_t sub(const U512& a, const U512& b, U512& r);
U512 shl(const U512& a, unsigned n);
U512 shr(const U512& a, unsigned n);

}  // namespace fourq

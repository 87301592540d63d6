// 64/128-bit building blocks: widening multiply and carry-propagating
// add/sub primitives shared by the field and big-integer layers.
#pragma once

#include <cstdint>

#include "common/wrap.hpp"

// Forces inlining of the straight-line field arithmetic: a call boundary
// costs as much as the arithmetic itself and hides independent products
// of a formula from the scheduler. Also keeps every use compiled for the
// caller's target, so no out-of-line copy exists for the linker to share.
#define FOURQ_FORCE_INLINE inline __attribute__((always_inline))

namespace fourq {

using u128 = unsigned __int128;

// 64x64 -> 128 widening multiply, split into (hi, lo).
inline void mul64x64(uint64_t a, uint64_t b, uint64_t& hi, uint64_t& lo) {
  u128 p = static_cast<u128>(a) * b;
  lo = static_cast<uint64_t>(p);
  hi = static_cast<uint64_t>(p >> 64);
}

// r = a + b + carry_in; returns carry_out.
inline uint64_t addc64(uint64_t a, uint64_t b, uint64_t carry_in, uint64_t& r) {
  u128 s = static_cast<u128>(a) + b + carry_in;
  r = static_cast<uint64_t>(s);
  return static_cast<uint64_t>(s >> 64);
}

// r = a - b - borrow_in; returns borrow_out (0 or 1). The u128 difference
// wraps on borrow by design — the top bit *is* the borrow.
FOURQ_NO_SANITIZE_UNSIGNED_WRAP
inline uint64_t subb64(uint64_t a, uint64_t b, uint64_t borrow_in, uint64_t& r) {
  u128 d = static_cast<u128>(a) - b - borrow_in;
  r = static_cast<uint64_t>(d);
  return static_cast<uint64_t>((d >> 64) & 1);
}

// --- (lo, hi) u128 halves ---------------------------------------------------
// The inline F_p / F_{p^2} arithmetic (field/fp.hpp, field/fp2.hpp) carries
// its 256-bit intermediates as two u128 halves. Every deliberate wrap it
// relies on lives in one of the helpers below, so the UBSan-integer leg
// flags any other unsigned wrap in the field layer.

// All-ones when bit == 1, zero when bit == 0 (the branch-free select mask).
FOURQ_NO_SANITIZE_UNSIGNED_WRAP
inline u128 mask128(uint64_t bit) { return -static_cast<u128>(bit); }

// (hi:lo) = (ah:al) + (bh:bl) mod 2^256; returns the carry-out bit.
FOURQ_NO_SANITIZE_UNSIGNED_WRAP
inline uint64_t add256(u128 al, u128 ah, u128 bl, u128 bh, u128& lo, u128& hi) {
  lo = al + bl;
  const u128 c = lo < al;
  const u128 t = ah + c;
  hi = t + bh;
  return static_cast<uint64_t>((t < c) | (hi < t));
}

// (hi:lo) = (ah:al) - (bh:bl) mod 2^256; returns the borrow-out bit.
FOURQ_NO_SANITIZE_UNSIGNED_WRAP
inline uint64_t sub256(u128 al, u128 ah, u128 bl, u128 bh, u128& lo, u128& hi) {
  lo = al - bl;
  const u128 b = al < bl;
  const u128 t = ah - b;
  hi = t - bh;
  return static_cast<uint64_t>((ah < b) | (t < bh));
}

// Full 128x128 -> 256 product (hi:lo) from four 64x64 multiplies: the
// dedicated 2x2-limb schoolbook, exact for any operands below 2^128.
FOURQ_NO_SANITIZE_UNSIGNED_WRAP
inline void mul128x128(u128 a, u128 b, u128& lo, u128& hi) {
  const uint64_t a0 = static_cast<uint64_t>(a), a1 = static_cast<uint64_t>(a >> 64);
  const uint64_t b0 = static_cast<uint64_t>(b), b1 = static_cast<uint64_t>(b >> 64);
  const u128 p00 = static_cast<u128>(a0) * b0;
  const u128 p01 = static_cast<u128>(a0) * b1;
  const u128 p10 = static_cast<u128>(a1) * b0;
  const u128 p11 = static_cast<u128>(a1) * b1;
  // Middle column: three terms below 2^64 each, so no overflow.
  const u128 mid = (p00 >> 64) + static_cast<uint64_t>(p01) + static_cast<uint64_t>(p10);
  lo = (mid << 64) | static_cast<uint64_t>(p00);
  hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);  // product < 2^256: no wrap
}

// a^2 as (hi:lo) from three 64x64 multiplies: the symmetric cross product
// a0*a1 is formed once and doubled. Bit-identical to mul128x128(a, a).
FOURQ_NO_SANITIZE_UNSIGNED_WRAP
inline void sqr128(u128 a, u128& lo, u128& hi) {
  const uint64_t a0 = static_cast<uint64_t>(a), a1 = static_cast<uint64_t>(a >> 64);
  const u128 p00 = static_cast<u128>(a0) * a0;
  const u128 p01 = static_cast<u128>(a0) * a1;
  const u128 p11 = static_cast<u128>(a1) * a1;
  const u128 mid = (p00 >> 64) + 2 * static_cast<u128>(static_cast<uint64_t>(p01));
  lo = (mid << 64) | static_cast<uint64_t>(p00);
  hi = p11 + 2 * (p01 >> 64) + (mid >> 64);
}

}  // namespace fourq

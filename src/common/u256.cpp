#include "common/u256.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hexutil.hpp"
#include "common/wrap.hpp"

namespace fourq {

U256 U256::from_hex(const std::string& hex) {
  U256 r;
  hex_to_words(hex, r.w.data(), 4);
  return r;
}

std::string U256::to_hex() const { return words_to_hex(w.data(), 4); }

void U256::set_bit(unsigned i, bool v) {
  FOURQ_CHECK(i < 256);
  uint64_t mask = uint64_t{1} << (i % 64);
  if (v)
    w[i / 64] |= mask;
  else
    w[i / 64] &= ~mask;
}

int U256::top_bit() const {
  for (int i = 3; i >= 0; --i)
    if (w[i] != 0) return i * 64 + 63 - __builtin_clzll(w[i]);
  return -1;
}

bool operator<(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i];
  }
  return false;
}

bool U512::is_zero() const {
  uint64_t acc = 0;
  for (uint64_t x : w) acc |= x;
  return acc == 0;
}

int U512::top_bit() const {
  for (int i = 7; i >= 0; --i)
    if (w[i] != 0) return i * 64 + 63 - __builtin_clzll(w[i]);
  return -1;
}

bool operator<(const U512& a, const U512& b) {
  for (int i = 7; i >= 0; --i) {
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i];
  }
  return false;
}

U512 mul_wide(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      // a*b + acc + carry fits in 128 bits: (2^64-1)^2 + 2*(2^64-1) = 2^128 - 1.
      u128 t = static_cast<u128>(a.w[i]) * b.w[j] + r.w[i + j] + carry;
      r.w[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    // r.w[i+4] has not been touched by rows <= i, so plain assignment is safe.
    r.w[i + 4] = carry;
  }
  return r;
}

U256 mul_lo(const U256& a, const U256& b) { return mul_wide(a, b).lo256(); }

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
U256 shl(const U256& a, unsigned n) {
  U256 r;
  if (n >= 256) return r;
  unsigned word = n / 64, bits = n % 64;
  for (int i = 3; i >= 0; --i) {
    uint64_t v = 0;
    int src = i - static_cast<int>(word);
    if (src >= 0) v = a.w[src] << bits;
    if (bits != 0 && src - 1 >= 0) v |= a.w[src - 1] >> (64 - bits);
    r.w[i] = v;
  }
  return r;
}

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
U256 shr(const U256& a, unsigned n) {
  U256 r;
  if (n >= 256) return r;
  unsigned word = n / 64, bits = n % 64;
  for (int i = 0; i < 4; ++i) {
    uint64_t v = 0;
    unsigned src = i + word;
    if (src < 4) v = a.w[src] >> bits;
    if (bits != 0 && src + 1 < 4) v |= a.w[src + 1] << (64 - bits);
    r.w[i] = v;
  }
  return r;
}

uint64_t add(const U512& a, const U512& b, U512& r) {
  uint64_t c = 0;
  for (int i = 0; i < 8; ++i) c = addc64(a.w[i], b.w[i], c, r.w[i]);
  return c;
}

uint64_t sub(const U512& a, const U512& b, U512& r) {
  uint64_t bw = 0;
  for (int i = 0; i < 8; ++i) bw = subb64(a.w[i], b.w[i], bw, r.w[i]);
  return bw;
}

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
U512 shl(const U512& a, unsigned n) {
  U512 r;
  if (n >= 512) return r;
  unsigned word = n / 64, bits = n % 64;
  for (int i = 7; i >= 0; --i) {
    uint64_t v = 0;
    int src = i - static_cast<int>(word);
    if (src >= 0) v = a.w[src] << bits;
    if (bits != 0 && src - 1 >= 0) v |= a.w[src - 1] >> (64 - bits);
    r.w[i] = v;
  }
  return r;
}

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
U512 shr(const U512& a, unsigned n) {
  U512 r;
  if (n >= 512) return r;
  unsigned word = n / 64, bits = n % 64;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    unsigned src = i + word;
    if (src < 8) v = a.w[src] >> bits;
    if (bits != 0 && src + 1 < 8) v |= a.w[src + 1] << (64 - bits);
    r.w[i] = v;
  }
  return r;
}

U256 mod(const U512& a, const U256& m) {
  FOURQ_CHECK(!m.is_zero());
  U512 rem = a;
  U512 wide_m(m);
  int shift = rem.top_bit() - wide_m.top_bit();
  if (shift < 0) shift = 0;
  U512 d = shl(wide_m, static_cast<unsigned>(shift));
  for (int i = shift; i >= 0; --i) {
    if (rem >= d) {
      U512 t;
      sub(rem, d, t);
      rem = t;
    }
    d = shr(d, 1);
  }
  // rem < m <= 2^256 - 1, so the high half is zero.
  FOURQ_CHECK(rem.hi256().is_zero());
  return rem.lo256();
}

U256 mod(const U256& a, const U256& m) { return mod(U512(a), m); }

U256 addmod(const U256& a, const U256& b, const U256& m) {
  FOURQ_CHECK(a < m && b < m);
  U256 r;
  uint64_t carry = add(a, b, r);
  if (carry != 0 || r >= m) {
    U256 t;
    sub(r, m, t);
    r = t;
  }
  return r;
}

U256 submod(const U256& a, const U256& b, const U256& m) {
  FOURQ_CHECK(a < m && b < m);
  U256 r;
  uint64_t borrow = sub(a, b, r);
  if (borrow != 0) {
    U256 t;
    add(r, m, t);
    r = t;
  }
  return r;
}

}  // namespace fourq

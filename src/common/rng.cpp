#include "common/rng.hpp"

#include "common/check.hpp"
#include "common/wrap.hpp"

namespace fourq {

namespace {

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng::Rng(uint64_t s0, uint64_t s1, uint64_t s2, uint64_t s3) : s_{s0, s1, s2, s3} {
  FOURQ_CHECK_MSG((s0 | s1 | s2 | s3) != 0, "Rng: the all-zero state is a fixed point");
}

FOURQ_NO_SANITIZE_UNSIGNED_WRAP
uint64_t Rng::next_u64() {
  uint64_t result = rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::next_below(uint64_t bound) {
  FOURQ_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = bound * (UINT64_MAX / bound);
  uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit && limit != 0);
  return v % bound;
}

double Rng::next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

U256 Rng::next_u256() { return U256(next_u64(), next_u64(), next_u64(), next_u64()); }

U256 Rng::next_mod_nonzero(const U256& m) {
  FOURQ_CHECK(!m.is_zero());
  for (;;) {
    U256 v = next_u256();
    // Mask down to the modulus width to keep the rejection rate low.
    int tb = m.top_bit();
    if (tb < 255) {
      unsigned drop = 255 - static_cast<unsigned>(tb);
      v = shr(v, drop);
    }
    if (!v.is_zero() && v < m) return v;
  }
}

}  // namespace fourq

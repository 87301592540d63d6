#include "curve/scalar.hpp"

#include "common/check.hpp"
#include "common/u128.hpp"

namespace fourq::curve {

Decomposition decompose(const U256& k) {
  Decomposition d;
  U256 v = k;
  if (!k.is_odd()) {
    // k even: decompose k+1 (cannot overflow: k even implies k < 2^256 - 1).
    U256 one(1);
    uint64_t carry = add(k, one, v);
    FOURQ_CHECK(carry == 0);
    d.k_was_even = true;
  }
  d.a = {v.w[0], v.w[1], v.w[2], v.w[3]};
  FOURQ_CHECK(d.a[0] & 1);
  return d;
}

RecodedScalar recode(const std::array<uint64_t, 4>& a) {
  FOURQ_CHECK_MSG(a[0] & 1, "recode requires an odd first scalar");
  RecodedScalar r;

  // Signs from a1: s_i = +1 iff bit (i+1) of a1 is set; s_64 = +1.
  // (Correctness: sum s_i 2^i = 2*(a1 >> 1 truncated sum) - (2^64-1) + 2^64 = a1.)
  for (int i = 0; i < 63; ++i) r.sign[i] = ((a[0] >> (i + 1)) & 1) ? +1 : -1;
  r.sign[63] = -1;  // bit 64 of a 64-bit a1 is zero (shifting by 64 is UB)
  r.sign[64] = +1;

  // Re-express a2..a4 in the signed basis {s_i 2^i} with digits in {0,1}:
  // LSB-first greedy; the residual provably reaches zero after digit 64.
  for (int j = 1; j < 4; ++j) {
    u128 res = a[j];
    for (int i = 0; i < kDigits; ++i) {
      uint64_t bit = static_cast<uint64_t>(res) & 1;
      if (bit) {
        r.digit[i] = static_cast<uint8_t>(r.digit[i] | (1u << (j - 1)));
        // res := (res - s_i) / 2 — subtracting ±1 from an odd residual.
        res = (r.sign[i] > 0) ? (res - 1) : (res + 1);
      }
      res >>= 1;
    }
    FOURQ_CHECK_MSG(res == 0, "recoding residual must vanish");
  }
  return r;
}

}  // namespace fourq::curve

#include "field/fp.hpp"

#include "common/hexutil.hpp"

namespace fourq::field {

Fp Fp::from_words(uint64_t lo, uint64_t hi) {
  return make_canonical((static_cast<u128>(hi) << 64) | lo);
}

Fp Fp::from_canonical(u128 v) {
  FOURQ_CHECK_MSG(v < P(), "from_canonical requires a reduced value");
  return Fp(v);
}

Fp Fp::from_hex(const std::string& hex) {
  uint64_t w[2];
  hex_to_words(hex, w, 2);
  return from_words(w[0], w[1]);
}

std::string Fp::to_hex() const {
  uint64_t w[2] = {lo(), hi()};
  return words_to_hex(w, 2);
}

Fp Fp::sqr_n(int n) const {
  Fp r = *this;
  for (int i = 0; i < n; ++i) r = r.sqr();
  return r;
}

Fp Fp::pow(const U256& e) const {
  Fp acc = Fp::from_u64(1);
  int top = e.top_bit();
  for (int i = top; i >= 0; --i) {
    acc = acc.sqr();
    if (e.bit(static_cast<unsigned>(i))) acc = acc * *this;
  }
  return acc;
}

Fp Fp::inv() const {
  FOURQ_CHECK_MSG(!is_zero(), "inverse of zero in F_p");
  // x^(p-2) = x^(2^127 - 3) by the fixed addition chain the traced
  // hardware program runs (trace/sm_trace.cpp, fermat_inverse_chain):
  // 126 squarings and 12 multiplications, where square-and-multiply over
  // the exponent's 126 set bits needs 127 squarings and 126 multiplications.
  const Fp& t1 = *this;                // x^(2^1 - 1)
  const Fp t2 = t1.sqr_n(1) * t1;      // 2^2 - 1
  const Fp t4 = t2.sqr_n(2) * t2;      // 2^4 - 1
  const Fp t8 = t4.sqr_n(4) * t4;      // 2^8 - 1
  const Fp t16 = t8.sqr_n(8) * t8;     // 2^16 - 1
  const Fp t32 = t16.sqr_n(16) * t16;  // 2^32 - 1
  const Fp t64 = t32.sqr_n(32) * t32;  // 2^64 - 1
  const Fp a = t64.sqr_n(32) * t32;    // 2^96 - 1
  const Fp b = a.sqr_n(16) * t16;      // 2^112 - 1
  const Fp c = b.sqr_n(8) * t8;        // 2^120 - 1
  const Fp d = c.sqr_n(4) * t4;        // 2^124 - 1
  const Fp e = d.sqr_n(1) * t1;        // 2^125 - 1
  return e.sqr_n(2) * t1;              // 4 * (2^125 - 1) + 1 = 2^127 - 3
}

bool Fp::sqrt(Fp& root) const {
  // p ≡ 3 (mod 4): candidate = x^((p+1)/4) = x^(2^125).
  Fp cand = sqr_n(125);
  if (cand.sqr() == *this) {
    root = cand;
    return true;
  }
  return false;
}

}  // namespace fourq::field

#include "curve/encoding.hpp"

namespace fourq::curve {

using field::Fp;
using field::Fp2;

namespace {

void put_fp(uint8_t* out, const Fp& v) {
  uint64_t w[2] = {v.lo(), v.hi()};
  for (int i = 0; i < 2; ++i)
    for (int b = 0; b < 8; ++b) out[8 * i + b] = static_cast<uint8_t>(w[i] >> (8 * b));
}

// Returns nullopt if the 128-bit value is not a canonical F_p element.
std::optional<Fp> get_fp(const uint8_t* in) {
  uint64_t w[2] = {0, 0};
  for (int i = 0; i < 2; ++i)
    for (int b = 0; b < 8; ++b) w[i] |= static_cast<uint64_t>(in[8 * i + b]) << (8 * b);
  if (w[1] >> 63) return std::nullopt;                       // bit 127 must be clear
  if (w[0] == ~0ull && w[1] == 0x7fffffffffffffffull) return std::nullopt;  // == p
  return Fp::from_words(w[0], w[1]);
}

}  // namespace

bool x_sign(const Fp2& x) {
  if (!x.re().is_zero()) return x.re().is_odd();
  return x.im().is_odd();
}

UncompressedPoint encode(const Affine& p) {
  UncompressedPoint out{};
  put_fp(out.data(), p.x.re());
  put_fp(out.data() + 16, p.x.im());
  put_fp(out.data() + 32, p.y.re());
  put_fp(out.data() + 48, p.y.im());
  return out;
}

std::optional<Affine> decode(const UncompressedPoint& bytes) {
  auto xr = get_fp(bytes.data());
  auto xi = get_fp(bytes.data() + 16);
  auto yr = get_fp(bytes.data() + 32);
  auto yi = get_fp(bytes.data() + 48);
  if (!xr || !xi || !yr || !yi) return std::nullopt;
  Affine p{Fp2(*xr, *xi), Fp2(*yr, *yi)};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

CompressedPoint compress(const Affine& p) {
  CompressedPoint out{};
  put_fp(out.data(), p.y.re());
  put_fp(out.data() + 16, p.y.im());
  if (x_sign(p.x)) out[31] |= 0x80;  // bit 255: sign of x (bit 127 of y.im is 0)
  return out;
}

std::optional<Affine> decompress(const CompressedPoint& bytes) {
  bool sign = (bytes[31] & 0x80) != 0;
  CompressedPoint clean = bytes;
  clean[31] &= 0x7f;
  auto yr = get_fp(clean.data());
  auto yi = get_fp(clean.data() + 16);
  if (!yr || !yi) return std::nullopt;
  Fp2 y(*yr, *yi);

  // x^2 = u / v with u = y^2 - 1 and v = d y^2 + 1.
  const Fp2 one = Fp2::from_u64(1);
  const Fp2 y2 = y.sqr();
  const Fp2 u = y2 - one;
  const Fp2 v = curve_d() * y2 + one;
  if (v.is_zero()) return std::nullopt;
  // Square root of the ratio with two F_p exponentiations and no
  // inversion. u / v = (a + bi) / N(v) with a + bi = u * conj(v), and a
  // root x0 + x1 i has x0^2 = (a ± δ) / 2N(v), δ^2 = a^2 + b^2, and
  // 2 x0 x1 = b / N(v). Take α = a ± δ (the sign that makes α != 0),
  // β = 2 N(v) and ρ = (αβ)^((p-3)/4): αβρ^2 is αβ's Legendre symbol, and
  // x = (αρ, bρ) when it is 1, (bρ, -αρ) otherwise. When u / v has no
  // root the candidate fails the x^2 v == u check below.
  const Fp2 w = u * v.conj();
  const Fp delta = w.norm().sqr_n(125);  // δ = (a^2 + b^2)^((p+1)/4)
  Fp alpha = w.re() + delta;
  if (alpha.is_zero()) alpha = w.re() - delta;
  const Fp norm_v = v.norm();
  const Fp ab = alpha * (norm_v + norm_v);
  const Fp rho = ab.pow_p34();
  Fp2 x = ab * rho.sqr() == Fp::from_u64(1) ? Fp2(alpha * rho, w.im() * rho)
                                            : Fp2(w.im() * rho, -(alpha * rho));
  if (x.sqr() * v != u) return std::nullopt;
  if (x.is_zero()) {
    if (sign) return std::nullopt;  // -0 == 0: sign bit must be clear
  } else if (x_sign(x) != sign) {
    x = -x;
  }
  Affine p{x, y};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

}  // namespace fourq::curve

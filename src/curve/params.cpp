#include "curve/params.hpp"

#include "curve/point.hpp"
#include "curve/scalarmul.hpp"

namespace fourq::curve {

const Fp2& curve_d() {
  // Paper eq. (1):
  //   d = 125317048443780598345676279555970305165 * i
  //       + 4205857648805777768770
  // Hex equivalents (pinned against the decimal strings in test_params.cpp):
  static const Fp2 d = Fp2::from_hex("00000000000000e40000000000000142",
                                     "5e472f846657e0fcb3821488f1fc0c8d");
  return d;
}

const Fp2& curve_2d() {
  static const Fp2 two_d = curve_d() + curve_d();
  return two_d;
}

const U256& candidate_subgroup_order() {
  // Candidate 246-bit prime N with #E(F_{p^2}) = 2^3 * 7^2 * N
  // (Costello–Longa; not printed in the DATE paper — runtime-validated).
  static const U256 n =
      U256::from_hex("0029cbc14e5e0a72f05397829cbc14e5dfbd004dfe0f79992fb2540ec7768ce7");
  return n;
}

const Fp2& candidate_generator_x() {
  static const Fp2 gx = Fp2::from_hex("1a3472237c2fb305286592ad7b3833aa",
                                      "1e1f553f2878aa9c96869fb360ac77f6");
  return gx;
}

const Fp2& candidate_generator_y() {
  static const Fp2 gy = Fp2::from_hex("0e3fee9ba120785ab924a2462bcbb287",
                                      "6e1c4af8630e024249a7c344844c8b5c");
  return gy;
}

ParamValidation validate_params() {
  ParamValidation v;
  const U256& n = candidate_subgroup_order();
  v.n_odd_246_bits = n.is_odd() && n.top_bit() == 245;

  Affine g{candidate_generator_x(), candidate_generator_y()};
  v.generator_on_curve = on_curve(g);
  if (v.generator_on_curve) {
    PointR1 ng = scalar_mul_reference(n, g);
    v.generator_order_n = is_identity(ng);
  }
  return v;
}

}  // namespace fourq::curve

#include "curve/fixed_base.hpp"

#include <algorithm>
#include <vector>

namespace fourq::curve {

FixedBaseMul::FixedBaseMul(const Affine& base) : base_(base) {
  const PointR1 p = to_r1(base);
  const std::array<PointR1, 8> t1 = table_r1(p, aux_points(p), curve_2d());
  // One shared inversion normalises the whole table; the per-scalar loop
  // then runs on mixed additions.
  std::vector<PointR2Aff> norm = batch_to_r2aff(std::vector<PointR1>(t1.begin(), t1.end()));
  std::copy(norm.begin(), norm.end(), table_.begin());
  // P is affine, so both correction operands have z2 = 2 and drop it.
  const auto corr = correction_operands(p, Fp2(), Fp2::from_u64(1), curve_2d());
  for (size_t e = 0; e < 2; ++e) corr_[e] = PointR2Aff{corr[e].xpy, corr[e].ymx, corr[e].dt2};
}

PointR1 FixedBaseMul::mul(const U256& k) const {
  Decomposition dec = decompose(k);
  RecodedScalar rec = recode(dec.a);

  PointR1 q = digit_loop(Fp2(), Fp2::from_u64(1), kDigits, [&](int i) {
    const PointR2Aff& entry = table_[rec.digit[static_cast<size_t>(i)]];
    return rec.sign[static_cast<size_t>(i)] > 0 ? entry : neg_r2aff(entry);
  });
  return add(q, corr_[dec.k_was_even]);
}

MulOpCounts FixedBaseMul::per_scalar_op_counts() {
  // 64 doublings + 65 digit additions + 1 correction; no precomputation.
  return MulOpCounts{kDigits - 1, kDigits + 1};
}

}  // namespace fourq::curve

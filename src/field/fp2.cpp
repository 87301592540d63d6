#include "field/fp2.hpp"

#include <vector>

#include "common/check.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::field {

Fp2 Fp2::mul_schoolbook(const Fp2& x, const Fp2& y) {
  Fp c0 = x.a_ * y.a_ - x.b_ * y.b_;
  Fp c1 = x.a_ * y.b_ + x.b_ * y.a_;
  return Fp2(c0, c1);
}

Fp2 Fp2::inv() const {
  FOURQ_CHECK_MSG(!is_zero(), "inverse of zero in F_{p^2}");
  Fp n_inv = norm().inv();
  return Fp2(a_ * n_inv, (-b_) * n_inv);
}

bool Fp2::sqrt(Fp2& root) const {
  if (is_zero()) {
    root = Fp2();
    return true;
  }
  // Standard complex square root over F_p with p ≡ 3 (mod 4):
  // |z| = sqrt(a^2 + b^2) must exist; then re = sqrt((a ± |z|)/2).
  Fp n = norm();
  Fp s;
  if (!n.sqrt(s)) return false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    Fp t = ((attempt == 0) ? a_ + s : a_ - s) * Fp::half();
    Fp x;
    if (!t.sqrt(x)) continue;
    Fp2 cand;
    if (x.is_zero()) {
      // Purely imaginary root: b must be zero and -a a residue.
      Fp y;
      if (!(-a_).sqrt(y)) continue;
      cand = Fp2(Fp(), y);
    } else {
      Fp y = b_ * (x + x).inv();
      cand = Fp2(x, y);
    }
    if (cand.sqr() == *this) {
      root = cand;
      return true;
    }
  }
  return false;
}

namespace {

// Montgomery's trick applied strip-parallel: the array is cut into 8
// contiguous strips, each running its own prefix-product chain, and every
// chain step is one 8-lane fp2_mul through the dispatched lane kernels
// (field/fp_lanes.hpp). The chains join only once — the 8 strip totals are
// folded with the scalar trick, still a single field inversion — and the
// backward recovery walk is lane-parallel again. Inverses are canonical
// and unique, so the results are bitwise-identical to the sequential walk.
void batch_invert_strips(Fp2* xs, size_t n) {
  namespace lk = lanes;
  constexpr size_t W = 8;
  const lk::Kernels& k = lk::active();
  const size_t len = (n + W - 1) / W;  // strip length (last strip ragged)
  // pre[i] = strip-local prefix product of the non-zero entries before i.
  std::vector<u128> pre_re(n), pre_im(n);
  u128 acc_re[W], acc_im[W], v_re[W], v_im[W], r_re[W], r_im[W];
  for (size_t s = 0; s < W; ++s) {
    acc_re[s] = 1;
    acc_im[s] = 0;
  }
  // Out-of-range / zero entries multiply as 1 so every strip runs the same
  // number of steps (the kernels have no per-lane predication).
  auto gather = [&](size_t j) {
    for (size_t s = 0; s < W; ++s) {
      const size_t i = s * len + j;
      const bool live = i < n && !xs[i].is_zero();
      v_re[s] = live ? xs[i].re().raw() : 1;
      v_im[s] = live ? xs[i].im().raw() : 0;
    }
  };
  for (size_t j = 0; j < len; ++j) {
    for (size_t s = 0; s < W; ++s) {
      const size_t i = s * len + j;
      if (i < n) {
        pre_re[i] = acc_re[s];
        pre_im[i] = acc_im[s];
      }
    }
    gather(j);
    k.fp2_mul(acc_re, acc_im, v_re, v_im, acc_re, acc_im, W);
  }
  // Join the strip totals and invert them together: the scalar walk over 8
  // elements, with the one inversion the whole call pays.
  Fp2 tot[W], tpre[W];
  Fp2 t_acc = Fp2::from_u64(1);
  for (size_t s = 0; s < W; ++s) {
    tot[s] = lanes::join(acc_re[s], acc_im[s]);
    tpre[s] = t_acc;
    t_acc = t_acc * tot[s];  // strip totals are products of units: non-zero
  }
  Fp2 t_inv = t_acc.inv();
  for (size_t s = W; s-- > 0;) {
    Fp2 ts = t_inv * tpre[s];
    t_inv = t_inv * tot[s];
    lanes::split(ts, acc_re[s], acc_im[s]);  // acc := (strip total)^-1
  }
  // Backward walk, lane-parallel: xs[i]^-1 = acc_s * pre[i], then fold
  // xs[i] back into acc_s.
  for (size_t j = len; j-- > 0;) {
    for (size_t s = 0; s < W; ++s) {
      const size_t i = s * len + j;
      const bool live = i < n && !xs[i].is_zero();
      r_re[s] = live ? pre_re[i] : 1;
      r_im[s] = live ? pre_im[i] : 0;
    }
    k.fp2_mul(acc_re, acc_im, r_re, r_im, r_re, r_im, W);
    gather(j);
    k.fp2_mul(acc_re, acc_im, v_re, v_im, acc_re, acc_im, W);
    for (size_t s = 0; s < W; ++s) {
      const size_t i = s * len + j;
      if (i < n && !xs[i].is_zero()) xs[i] = lanes::join(r_re[s], r_im[s]);
    }
  }
}

}  // namespace

void batch_invert(Fp2* xs, size_t n) {
  if (n == 0) return;
  if (n >= 32) {
    // Large batches go through the lane kernels; below that the SoA
    // staging costs more than the 8-way ILP recovers.
    batch_invert_strips(xs, n);
    return;
  }
  // prefix[i] = product of all non-zero xs[j], j < i.
  std::vector<Fp2> prefix(n);
  Fp2 acc = Fp2::from_u64(1);
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    if (!xs[i].is_zero()) acc = acc * xs[i];
  }
  Fp2 inv = acc.inv();  // the single inversion (acc = 1 if all entries zero)
  // Walking backwards, inv always holds (prod of non-zero xs[j], j <= i)^-1,
  // so xs[i]^-1 = inv * prefix[i]; then fold xs[i] out of inv.
  for (size_t i = n; i-- > 0;) {
    if (xs[i].is_zero()) continue;
    Fp2 xi = inv * prefix[i];
    inv = inv * xs[i];
    xs[i] = xi;
  }
}

}  // namespace fourq::field

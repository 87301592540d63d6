#include "curve/point.hpp"

#include "common/check.hpp"
#include "field/fp_lanes.hpp"
#include "obs/obs.hpp"

namespace fourq::curve {

Affine to_affine(const PointR1& p) {
  FOURQ_SPAN("curve.normalize");
  FOURQ_CHECK_MSG(!p.Z.is_zero(), "point at infinity has no affine form");
  Fp2 zi = p.Z.inv();
  return Affine{p.X * zi, p.Y * zi};
}

bool equal(const PointR1& a, const PointR1& b) {
  return a.X * b.Z == b.X * a.Z && a.Y * b.Z == b.Y * a.Z;
}

bool is_identity(const PointR1& p) { return p.X.is_zero() && p.Y == p.Z; }

bool on_curve(const Affine& p) {
  Fp2 x2 = p.x.sqr(), y2 = p.y.sqr();
  return y2 - x2 == Fp2::from_u64(1) + curve_d() * x2 * y2;
}

bool on_curve(const PointR1& p) {
  if (p.Z.is_zero()) return false;
  if (p.Ta * p.Tb * p.Z != p.X * p.Y) return false;  // T == XY/Z
  return on_curve(to_affine(p));
}

Affine affine_add(const Affine& p, const Affine& q) {
  // a = -1 twisted Edwards addition law:
  //   x3 = (x1 y2 + y1 x2) / (1 + d x1 x2 y1 y2)
  //   y3 = (y1 y2 + x1 x2) / (1 - d x1 x2 y1 y2)
  // Complete for this curve: the denominators never vanish.
  Fp2 xx = p.x * q.x, yy = p.y * q.y;
  Fp2 xy = p.x * q.y + p.y * q.x;
  Fp2 dxxyy = curve_d() * xx * yy;
  Fp2 one = Fp2::from_u64(1);
  return Affine{xy * (one + dxxyy).inv(), (yy + xx) * (one - dxxyy).inv()};
}

PointR1 identity() { return identity_r1<Fp2>(Fp2(), Fp2::from_u64(1)); }

PointR1 to_r1(const Affine& p) { return to_r1<Fp2>(p, Fp2::from_u64(1)); }

PointR2 to_r2(const PointR1& p) { return to_r2<Fp2>(p, curve_2d()); }

PointR2 neg_r2(const PointR2& p) { return neg_r2<Fp2>(p, Fp2()); }

PointR2Aff neg_r2aff(const PointR2Aff& p) { return neg_r2aff<Fp2>(p, Fp2()); }

PointR2Aff to_r2aff(const Affine& p) {
  Fp2 t = p.x * p.y;
  return PointR2Aff{p.x + p.y, p.y - p.x, t * curve_2d()};
}

namespace {

// SoA staging for the post-inversion per-point multiplications: the same
// u128 re/im arrays the lane kernels (field/fp_lanes.hpp) consume. Built
// once per batch; every subsequent field op runs n lanes per call.
struct LaneVec {
  std::vector<u128> re, im;
  explicit LaneVec(size_t n) : re(n), im(n) {}
  void set(size_t i, const field::Fp2& v) { field::lanes::split(v, re[i], im[i]); }
  field::Fp2 get(size_t i) const { return field::lanes::join(re[i], im[i]); }
};

}  // namespace

std::vector<Affine> batch_to_affine(const std::vector<PointR1>& ps) {
  FOURQ_SPAN("curve.batch_normalize");
  const size_t n = ps.size();
  std::vector<Fp2> zs(n);
  for (size_t i = 0; i < n; ++i) {
    FOURQ_CHECK_MSG(!ps[i].Z.is_zero(), "point at infinity has no affine form");
    zs[i] = ps[i].Z;
  }
  field::batch_invert(zs.data(), zs.size());
  std::vector<Affine> out(n);
  if (n >= 8) {
    // x = X/Z, y = Y/Z across the whole batch: two lane-kernel passes.
    const auto& k = field::lanes::active();
    LaneVec X(n), Y(n), Z(n);
    for (size_t i = 0; i < n; ++i) {
      X.set(i, ps[i].X);
      Y.set(i, ps[i].Y);
      Z.set(i, zs[i]);
    }
    k.fp2_mul(X.re.data(), X.im.data(), Z.re.data(), Z.im.data(), X.re.data(),
              X.im.data(), n);
    k.fp2_mul(Y.re.data(), Y.im.data(), Z.re.data(), Z.im.data(), Y.re.data(),
              Y.im.data(), n);
    for (size_t i = 0; i < n; ++i) out[i] = Affine{X.get(i), Y.get(i)};
    return out;
  }
  for (size_t i = 0; i < n; ++i)
    out[i] = Affine{ps[i].X * zs[i], ps[i].Y * zs[i]};
  return out;
}

std::vector<PointR2Aff> batch_to_r2aff(const std::vector<PointR1>& ps) {
  FOURQ_SPAN("curve.batch_normalize");
  const size_t n = ps.size();
  std::vector<Fp2> zs(n);
  for (size_t i = 0; i < n; ++i) {
    FOURQ_CHECK_MSG(!ps[i].Z.is_zero(), "point at infinity has no affine form");
    zs[i] = ps[i].Z;
  }
  field::batch_invert(zs.data(), zs.size());
  std::vector<PointR2Aff> out(n);
  if (n >= 8) {
    // x = X/Z, y = Y/Z, then (x+y, y-x, 2d*x*y) — five lane-kernel passes
    // over the batch (the 2d multiplier is broadcast into its own lanes).
    const auto& k = field::lanes::active();
    LaneVec X(n), Y(n), Z(n), S(n), D(n);
    for (size_t i = 0; i < n; ++i) {
      X.set(i, ps[i].X);
      Y.set(i, ps[i].Y);
      Z.set(i, zs[i]);
      D.set(i, curve_2d());
    }
    k.fp2_mul(X.re.data(), X.im.data(), Z.re.data(), Z.im.data(), X.re.data(),
              X.im.data(), n);
    k.fp2_mul(Y.re.data(), Y.im.data(), Z.re.data(), Z.im.data(), Y.re.data(),
              Y.im.data(), n);
    k.fp2_mul(X.re.data(), X.im.data(), Y.re.data(), Y.im.data(), Z.re.data(),
              Z.im.data(), n);  // Z := x*y
    k.fp2_mul(Z.re.data(), Z.im.data(), D.re.data(), D.im.data(), D.re.data(),
              D.im.data(), n);  // D := 2d*x*y
    k.fp2_add(X.re.data(), X.im.data(), Y.re.data(), Y.im.data(), S.re.data(),
              S.im.data(), n);  // S := x+y
    k.fp2_sub(Y.re.data(), Y.im.data(), X.re.data(), X.im.data(), Y.re.data(),
              Y.im.data(), n);  // Y := y-x
    for (size_t i = 0; i < n; ++i)
      out[i] = PointR2Aff{S.get(i), Y.get(i), D.get(i)};
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    Fp2 x = ps[i].X * zs[i];
    Fp2 y = ps[i].Y * zs[i];
    out[i] = PointR2Aff{x + y, y - x, (x * y) * curve_2d()};
  }
  return out;
}

Affine deterministic_point(uint64_t seed) {
  Fp2 one = Fp2::from_u64(1);
  for (uint64_t j = 1;; ++j) {
    Fp2 x = Fp2::from_u64(j, seed);
    Fp2 x2 = x.sqr();
    Fp2 den = one - curve_d() * x2;
    if (den.is_zero()) continue;
    Fp2 y2 = (one + x2) * den.inv();
    Fp2 y;
    if (y2.sqrt(y)) {
      Affine p{x, y};
      FOURQ_CHECK(on_curve(p));
      return p;
    }
  }
}

}  // namespace fourq::curve

// Quadratic extension field F_{p^2} = F_p(i), i^2 = -1 (paper §II-B.1).
//
// Two multiplication algorithms are provided:
//  * mul_schoolbook — 4 F_p multiplications (the conventional datapath the
//    paper compares against, e.g. [15]);
//  * mul_karatsuba  — the paper's Algorithm 2: 3 F_p multiplications with
//    lazy reduction, implemented bit-exactly with the same wide (254/256-bit)
//    intermediates and fold steps (t0..t10) the hardware uses.
// operator* uses the Karatsuba path; tests assert both paths agree, and
// both against an independent Montgomery reference (common/modint.hpp).
//
// mul_karatsuba and sqr are inline straight-line u128 code, like F_p
// (field/fp.hpp): the 256-bit stage values are (lo, hi) u128 halves, the
// middle product t2*t3 is one dedicated 2x2-limb 128x128 multiply (12
// 64x64 multiplies per F_{p^2} product in all), and the p<<127 correction
// is a branch-free masked add. Every stage contract of field/bounds.hpp
// stays a FOURQ_CHECK on a cold branch. This is the one software Alg. 2:
// the generic lane kernels (field/fp_lanes.cpp) call it too.
#pragma once

#include <cstddef>
#include <string>

#include "field/fp.hpp"

namespace fourq::field {

class Fp2 {
 public:
  constexpr Fp2() = default;
  Fp2(const Fp& re, const Fp& im) : a_(re), b_(im) {}
  static Fp2 from_u64(uint64_t re, uint64_t im = 0) {
    return Fp2(Fp::from_u64(re), Fp::from_u64(im));
  }
  static Fp2 from_hex(const std::string& re_hex, const std::string& im_hex) {
    return Fp2(Fp::from_hex(re_hex), Fp::from_hex(im_hex));
  }

  const Fp& re() const { return a_; }
  const Fp& im() const { return b_; }
  std::string to_hex() const { return a_.to_hex() + "+" + b_.to_hex() + "i"; }

  bool is_zero() const { return a_.is_zero() && b_.is_zero(); }

  friend bool operator==(const Fp2& x, const Fp2& y) { return x.a_ == y.a_ && x.b_ == y.b_; }
  friend bool operator!=(const Fp2& x, const Fp2& y) { return !(x == y); }

  friend Fp2 operator+(const Fp2& x, const Fp2& y) { return Fp2(x.a_ + y.a_, x.b_ + y.b_); }
  friend Fp2 operator-(const Fp2& x, const Fp2& y) { return Fp2(x.a_ - y.a_, x.b_ - y.b_); }
  Fp2 operator-() const { return Fp2(-a_, -b_); }
  friend Fp2 operator*(const Fp2& x, const Fp2& y) { return mul_karatsuba(x, y); }

  // Paper Algorithm 2 (Karatsuba + lazy reduction, 3 F_p muls). Stage
  // names follow the paper; bounds per stage in field/bounds.hpp.
  FOURQ_FORCE_INLINE static Fp2 mul_karatsuba(const Fp2& x, const Fp2& y) {
    // Step 1: two full-width F_p products and two unreduced 128-bit sums.
    u128 t0l, t0h, t1l, t1h;
    Fp::mul_wide(x.a_, y.a_, t0l, t0h);     // t0 = x0*y0 < 2^254
    Fp::mul_wide(x.b_, y.b_, t1l, t1h);     // t1 = x1*y1 < 2^254
    const u128 t2 = x.a_.raw() + x.b_.raw();  // < 2^128, no reduction (lazy)
    const u128 t3 = y.a_.raw() + y.b_.raw();  // < 2^128, no reduction (lazy)

    // Step 2: the third multiplication and the lazy sums.
    u128 t4l, t4h, t5l, t5h, t6l, t6h;
    const uint64_t borrow = sub256(t0l, t0h, t1l, t1h, t4l, t4h);  // t0 - t1
    const uint64_t carry = add256(t0l, t0h, t1l, t1h, t5l, t5h);   // < 2^255
    FOURQ_CHECK(carry == 0);
    mul128x128(t2, t3, t6l, t6h);  // t6 = t2*t3 < 2^256

    // Step 3: make the real-part accumulator non-negative by adding
    // p<<127 = 2^254 - 2^127 (≡ 0 mod p) exactly when t4 borrowed —
    // t0 + p*2^127 - t1 >= 0 because t1 <= p^2 < p*2^127 — then
    // Mersenne-fold both accumulators and canonicalise.
    const u128 m = mask128(borrow);
    u128 t7l, t7h, t8l, t8h;
    const uint64_t c7 = add256(t4l, t4h, kPShift127Lo & m, kPShift127Hi & m, t7l, t7h);
    FOURQ_CHECK(c7 == borrow);  // the correction's carry cancels the borrow
    const uint64_t borrow8 = sub256(t6l, t6h, t5l, t5h, t8l, t8h);  // t6 - t5
    FOURQ_CHECK_MSG(borrow8 == 0, "Karatsuba middle term must be >= t0 + t1");
    return Fp2(Fp::reduce_wide(t7l, t7h),   // t9 + conditional subtract
               Fp::reduce_wide(t8l, t8h));  // t10 + conditional subtract
  }
  // Conventional 4-mul F_{p^2} multiplication with eager reduction.
  static Fp2 mul_schoolbook(const Fp2& x, const Fp2& y);

  // (a + bi)^2 = (a+b)(a-b) + (2ab)i — two F_p multiplications.
  FOURQ_FORCE_INLINE Fp2 sqr() const {
    const Fp c1 = a_ * b_;
    return Fp2((a_ + b_) * (a_ - b_), c1 + c1);
  }
  // Complex conjugate a - b*i.
  Fp2 conj() const { return Fp2(a_, -b_); }
  // Field norm a^2 + b^2 ∈ F_p.
  Fp norm() const { return a_.sqr() + b_.sqr(); }
  // Multiplicative inverse conj(x)/norm(x); x must be non-zero.
  Fp2 inv() const;
  // Square root in F_{p^2} when one exists.
  bool sqrt(Fp2& root) const;

  // Scale by a small integer (used by doubling/table formulas).
  Fp2 dbl() const { return *this + *this; }

 private:
  // p << 127 = 2^254 - 2^127 as (lo, hi) halves: the multiple of p the
  // hardware adds to keep the Karatsuba real part non-negative (step t7).
  static constexpr u128 kPShift127Lo = static_cast<u128>(1) << 127;
  static constexpr u128 kPShift127Hi = (static_cast<u128>(1) << 126) - 1;

  Fp a_;  // real part
  Fp b_;  // imaginary part
};

// Montgomery's simultaneous-inversion trick: replaces every non-zero xs[i]
// by its inverse using 3(n-1) multiplications and a single field inversion
// (instead of n inversions). Zero entries are left untouched, so callers can
// mix in degenerate values without branching. Results are bit-identical to
// calling xs[i].inv() element-wise.
void batch_invert(Fp2* xs, size_t n);

}  // namespace fourq::field

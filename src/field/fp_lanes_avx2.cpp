// AVX2 specialization of the lane kernels: 4 lanes per __m256i on a
// 32-bit-limbs-in-64-bit-lanes representation.
//
// Layout: an F_p element (u128) is 4 limbs l0..l3, each kept in the low
// 32 bits of a 64-bit vector lane; a wide product is 8 such limbs.
// vpmuludq (_mm256_mul_epu32) multiplies exactly those low-32 halves, so a
// 128x128-bit product is a 4x4 schoolbook of 16 vector multiplies whose
// partial products are accumulated per column: the low 32 bits of each
// product into acc[i+j], the high 32 into acc[i+j+1]. A column collects at
// most 8 such terms (< 2^32 each) plus a carry-in, staying far below 2^64 —
// overflow-free by construction, then one sequential carry sweep
// renormalizes to 32-bit limbs.
//
// Carry and borrow chains are branchless (shift/mask selects, no per-lane
// branches), and the Karatsuba p<<127 correction is applied under a
// per-lane borrow mask, mirroring Fp2::mul_karatsuba's masked add. Outputs are
// canonical, hence bitwise-equal to the scalar operators.
//
// This translation unit is compiled with -mavx2 (see field/CMakeLists.txt);
// nothing here runs unless the dispatcher checked avx2_supported() first.
#include "field/fp_lanes.hpp"

#if FOURQ_LANES_AVX2_ENABLED

#include <immintrin.h>

namespace fourq::field::lanes {

namespace {

// Number of lanes per vector pass; the tail of a batch falls back to the
// generic kernels.
constexpr size_t kVL = 4;

inline __m256i mask32() { return _mm256_set1_epi64x(0xffffffffll); }

// --- lane transposes -------------------------------------------------------
//
// unpack{lo,hi}_epi64 interleave within 128-bit halves, so a pair of
// contiguous u128 loads transposes into limb-sliced vectors with lanes in
// order (0, 2, 1, 3). The order is self-consistent: every load helper below
// produces it and every store helper consumes it, so it never escapes.

struct V4 {
  __m256i l[4];  // one u128 across 4 lanes, 32-bit limbs
};

struct V8 {
  __m256i l[8];  // one 256-bit product across 4 lanes, 32-bit limbs
};

inline V4 load_u128x4(const u128* p) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 2));
  const __m256i lo = _mm256_unpacklo_epi64(a, b);  // low 64 of lanes 0,2,1,3
  const __m256i hi = _mm256_unpackhi_epi64(a, b);  // high 64
  V4 r;
  r.l[0] = _mm256_and_si256(lo, mask32());
  r.l[1] = _mm256_srli_epi64(lo, 32);
  r.l[2] = _mm256_and_si256(hi, mask32());
  r.l[3] = _mm256_srli_epi64(hi, 32);
  return r;
}

inline void store_u128x4(u128* p, const V4& v) {
  const __m256i lo = _mm256_or_si256(v.l[0], _mm256_slli_epi64(v.l[1], 32));
  const __m256i hi = _mm256_or_si256(v.l[2], _mm256_slli_epi64(v.l[3], 32));
  const __m256i a = _mm256_unpacklo_epi64(lo, hi);  // lanes 0,1 contiguous
  const __m256i b = _mm256_unpackhi_epi64(lo, hi);  // lanes 2,3
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 2), b);
}

// --- arithmetic cores ------------------------------------------------------

// 128x128 -> 256 schoolbook; works for the full u128 range (the lazy
// Karatsuba sums reach 2^128 - 1). Output limbs are fully carried (< 2^32).
inline V8 mul_core(const V4& a, const V4& b) {
  __m256i acc[8];
  for (auto& v : acc) v = _mm256_setzero_si256();
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const __m256i p = _mm256_mul_epu32(a.l[i], b.l[j]);
      acc[i + j] = _mm256_add_epi64(acc[i + j], _mm256_and_si256(p, mask32()));
      acc[i + j + 1] = _mm256_add_epi64(acc[i + j + 1], _mm256_srli_epi64(p, 32));
    }
  }
  V8 r;
  __m256i carry = _mm256_setzero_si256();
  for (int k = 0; k < 8; ++k) {
    const __m256i s = _mm256_add_epi64(acc[k], carry);
    r.l[k] = _mm256_and_si256(s, mask32());
    carry = _mm256_srli_epi64(s, 32);
  }
  return r;  // product < 2^256: the final carry is always zero
}

// Canonicalise a value v <= 4 * 2^127 presented as 4 limbs with l0..l2
// already < 2^32 and l3 carrying any bits >= 127 (so l3 may reach 2^34):
// fold bits >= 127 down (2^127 === 1 mod p), then one conditional subtract
// of p — exactly Fp::make_canonical.
inline V4 fold_canonical(__m256i l0, __m256i l1, __m256i l2, __m256i l3) {
  const __m256i m31 = _mm256_set1_epi64x(0x7fffffffll);
  __m256i hi = _mm256_srli_epi64(l3, 31);  // value >> 127, < 8
  l3 = _mm256_and_si256(l3, m31);
  // s = (v mod 2^127) + hi, carry-propagated: s <= p + 7.
  __m256i s0 = _mm256_add_epi64(l0, hi);
  __m256i c = _mm256_srli_epi64(s0, 32);
  s0 = _mm256_and_si256(s0, mask32());
  __m256i s1 = _mm256_add_epi64(l1, c);
  c = _mm256_srli_epi64(s1, 32);
  s1 = _mm256_and_si256(s1, mask32());
  __m256i s2 = _mm256_add_epi64(l2, c);
  c = _mm256_srli_epi64(s2, 32);
  s2 = _mm256_and_si256(s2, mask32());
  __m256i s3 = _mm256_add_epi64(l3, c);  // <= 2^31 + small
  // u = s + 1: bit 127 of u set iff s >= p. Select u - 2^127 (i.e. u with
  // bit 127 cleared) when set, s otherwise.
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i u0 = _mm256_add_epi64(s0, one);
  c = _mm256_srli_epi64(u0, 32);
  u0 = _mm256_and_si256(u0, mask32());
  __m256i u1 = _mm256_add_epi64(s1, c);
  c = _mm256_srli_epi64(u1, 32);
  u1 = _mm256_and_si256(u1, mask32());
  __m256i u2 = _mm256_add_epi64(s2, c);
  c = _mm256_srli_epi64(u2, 32);
  u2 = _mm256_and_si256(u2, mask32());
  __m256i u3 = _mm256_add_epi64(s3, c);
  const __m256i ge = _mm256_srli_epi64(u3, 31);  // 0 or 1 per lane
  const __m256i sel = _mm256_sub_epi64(_mm256_setzero_si256(), ge);
  u3 = _mm256_and_si256(u3, m31);
  V4 r;
  r.l[0] = _mm256_blendv_epi8(s0, u0, sel);
  r.l[1] = _mm256_blendv_epi8(s1, u1, sel);
  r.l[2] = _mm256_blendv_epi8(s2, u2, sel);
  r.l[3] = _mm256_blendv_epi8(s3, u3, sel);
  return r;
}

// Mersenne fold of a carried 8-limb value: v = A + B*2^127 + C*2^254,
// result = A + B + C canonical (Fp::reduce_wide).
inline V4 reduce_core(const V8& v) {
  const __m256i m31 = _mm256_set1_epi64x(0x7fffffffll);
  // A = bits [126:0].
  const __m256i a0 = v.l[0];
  const __m256i a1 = v.l[1];
  const __m256i a2 = v.l[2];
  const __m256i a3 = _mm256_and_si256(v.l[3], m31);
  // B = bits [253:127]: top bit of limb 3, then limbs 4..7 shifted up one.
  auto bcombine = [&](__m256i lo, __m256i hi) {
    return _mm256_or_si256(_mm256_srli_epi64(lo, 31),
                           _mm256_and_si256(_mm256_slli_epi64(hi, 1), mask32()));
  };
  const __m256i b0 = bcombine(v.l[3], v.l[4]);
  const __m256i b1 = bcombine(v.l[4], v.l[5]);
  const __m256i b2 = bcombine(v.l[5], v.l[6]);
  const __m256i b3 = _mm256_and_si256(bcombine(v.l[6], v.l[7]), m31);
  // C = bits [255:254], < 4.
  const __m256i cc = _mm256_srli_epi64(v.l[7], 30);
  // s = A + B (limb sums < 2^33), fold, then + C, fold again — the same two
  // canonical steps as the scalar make_canonical(a + b) + Fp(c).
  __m256i s0 = _mm256_add_epi64(a0, b0);
  __m256i c = _mm256_srli_epi64(s0, 32);
  s0 = _mm256_and_si256(s0, mask32());
  __m256i s1 = _mm256_add_epi64(_mm256_add_epi64(a1, b1), c);
  c = _mm256_srli_epi64(s1, 32);
  s1 = _mm256_and_si256(s1, mask32());
  __m256i s2 = _mm256_add_epi64(_mm256_add_epi64(a2, b2), c);
  c = _mm256_srli_epi64(s2, 32);
  s2 = _mm256_and_si256(s2, mask32());
  const __m256i s3 = _mm256_add_epi64(_mm256_add_epi64(a3, b3), c);
  const V4 ab = fold_canonical(s0, s1, s2, s3);
  return fold_canonical(_mm256_add_epi64(ab.l[0], cc), ab.l[1], ab.l[2],
                        ab.l[3]);
}

// r = a + b mod p on canonical inputs (Fp operator+).
inline V4 add_core(const V4& a, const V4& b) {
  __m256i s0 = _mm256_add_epi64(a.l[0], b.l[0]);
  __m256i c = _mm256_srli_epi64(s0, 32);
  s0 = _mm256_and_si256(s0, mask32());
  __m256i s1 = _mm256_add_epi64(_mm256_add_epi64(a.l[1], b.l[1]), c);
  c = _mm256_srli_epi64(s1, 32);
  s1 = _mm256_and_si256(s1, mask32());
  __m256i s2 = _mm256_add_epi64(_mm256_add_epi64(a.l[2], b.l[2]), c);
  c = _mm256_srli_epi64(s2, 32);
  s2 = _mm256_and_si256(s2, mask32());
  const __m256i s3 = _mm256_add_epi64(_mm256_add_epi64(a.l[3], b.l[3]), c);
  return fold_canonical(s0, s1, s2, s3);
}

// r = a - b mod p on canonical inputs, computed branchlessly as
// a + p - b (in [1, 2p-1], so one fold + conditional subtract lands on the
// same canonical value as the scalar operator-).
inline V4 sub_core(const V4& a, const V4& b) {
  // p limbs; adding (p - b) as p + ~b + 1 over 2^128 two's complement:
  // a + p - b < 2^128, so dropping bits >= 128 of the limb-3 sum is exact.
  const __m256i p0 = mask32();
  const __m256i p3 = _mm256_set1_epi64x(0x7fffffffll);
  auto notb = [&](__m256i x) { return _mm256_xor_si256(x, mask32()); };
  __m256i s0 = _mm256_add_epi64(_mm256_add_epi64(a.l[0], p0),
                                _mm256_add_epi64(notb(b.l[0]), _mm256_set1_epi64x(1)));
  __m256i c = _mm256_srli_epi64(s0, 32);
  s0 = _mm256_and_si256(s0, mask32());
  __m256i s1 = _mm256_add_epi64(_mm256_add_epi64(a.l[1], p0),
                                _mm256_add_epi64(notb(b.l[1]), c));
  c = _mm256_srli_epi64(s1, 32);
  s1 = _mm256_and_si256(s1, mask32());
  __m256i s2 = _mm256_add_epi64(_mm256_add_epi64(a.l[2], p0),
                                _mm256_add_epi64(notb(b.l[2]), c));
  c = _mm256_srli_epi64(s2, 32);
  s2 = _mm256_and_si256(s2, mask32());
  __m256i s3 = _mm256_add_epi64(_mm256_add_epi64(a.l[3], p3),
                                _mm256_add_epi64(notb(b.l[3]), c));
  s3 = _mm256_and_si256(s3, mask32());  // drop the 2^128 complement carry
  return fold_canonical(s0, s1, s2, s3);
}

// 8-limb add r = a + b (no modular step; sums stay < 2^256).
inline V8 add_wide(const V8& a, const V8& b) {
  V8 r;
  __m256i c = _mm256_setzero_si256();
  for (int k = 0; k < 8; ++k) {
    const __m256i s = _mm256_add_epi64(_mm256_add_epi64(a.l[k], b.l[k]), c);
    r.l[k] = _mm256_and_si256(s, mask32());
    c = _mm256_srli_epi64(s, 32);
  }
  return r;
}

// 8-limb subtract r = a - b mod 2^256; borrow_mask gets all-ones in lanes
// that borrowed (a < b).
inline V8 sub_wide(const V8& a, const V8& b, __m256i& borrow_mask) {
  V8 r;
  __m256i c = _mm256_set1_epi64x(1);  // two's-complement +1
  for (int k = 0; k < 8; ++k) {
    const __m256i nb = _mm256_xor_si256(b.l[k], mask32());
    const __m256i s = _mm256_add_epi64(_mm256_add_epi64(a.l[k], nb), c);
    r.l[k] = _mm256_and_si256(s, mask32());
    c = _mm256_srli_epi64(s, 32);
  }
  // carry-out 1 means no borrow; 0 means borrow.
  borrow_mask = _mm256_cmpeq_epi64(c, _mm256_setzero_si256());
  return r;
}

// Lazy 128-bit sum of two canonical values (Karatsuba t2/t3: no reduction).
inline V4 add_lazy(const V4& a, const V4& b) {
  V4 r;
  __m256i c = _mm256_setzero_si256();
  for (int k = 0; k < 4; ++k) {
    const __m256i s = _mm256_add_epi64(_mm256_add_epi64(a.l[k], b.l[k]), c);
    r.l[k] = _mm256_and_si256(s, mask32());
    c = _mm256_srli_epi64(s, 32);
  }
  return r;  // sum < 2^128: final carry is zero
}

// Fp2 Karatsuba with lazy reduction (paper Alg. 2), mirroring
// Fp2::mul_karatsuba stage for stage.
inline void fp2_mul_core(const V4& x0, const V4& x1, const V4& y0, const V4& y1,
                         V4& z0, V4& z1) {
  const V8 t0 = mul_core(x0, y0);
  const V8 t1 = mul_core(x1, y1);
  const V4 t2 = add_lazy(x0, x1);
  const V4 t3 = add_lazy(y0, y1);
  const V8 t6 = mul_core(t2, t3);
  __m256i borrow;
  const V8 t4 = sub_wide(t0, t1, borrow);
  const V8 t5 = add_wide(t0, t1);
  // t7 = t4 + (p << 127) in lanes that borrowed; the induced carry-out
  // cancels the borrow exactly (t1 <= p^2 < p * 2^127).
  static const uint64_t kPShift[8] = {0, 0, 0, 0x80000000ull, 0xffffffffull,
                                      0xffffffffull, 0xffffffffull, 0x3fffffffull};
  V8 t7;
  __m256i c = _mm256_setzero_si256();
  for (int k = 0; k < 8; ++k) {
    const __m256i addend =
        _mm256_and_si256(_mm256_set1_epi64x(static_cast<long long>(kPShift[k])), borrow);
    const __m256i s = _mm256_add_epi64(_mm256_add_epi64(t4.l[k], addend), c);
    t7.l[k] = _mm256_and_si256(s, mask32());
    c = _mm256_srli_epi64(s, 32);
  }
  __m256i borrow2;  // always zero: t6 >= t0 + t1
  const V8 t8 = sub_wide(t6, t5, borrow2);
  z0 = reduce_core(t7);
  z1 = reduce_core(t8);
}

// --- kernel entry points ---------------------------------------------------

void a_fp2_mul(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    V4 z0, z1;
    fp2_mul_core(load_u128x4(are + i), load_u128x4(aim + i),
                 load_u128x4(bre + i), load_u128x4(bim + i), z0, z1);
    store_u128x4(rre + i, z0);
    store_u128x4(rim + i, z1);
  }
  if (i < n)
    generic_kernels().fp2_mul(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void a_fp2_add(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V4 re = add_core(load_u128x4(are + i), load_u128x4(bre + i));
    const V4 im = add_core(load_u128x4(aim + i), load_u128x4(bim + i));
    store_u128x4(rre + i, re);
    store_u128x4(rim + i, im);
  }
  if (i < n)
    generic_kernels().fp2_add(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void a_fp2_sub(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V4 re = sub_core(load_u128x4(are + i), load_u128x4(bre + i));
    const V4 im = sub_core(load_u128x4(aim + i), load_u128x4(bim + i));
    store_u128x4(rre + i, re);
    store_u128x4(rim + i, im);
  }
  if (i < n)
    generic_kernels().fp2_sub(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

// No fused point kernel here: the 32-bit-limb layout gains nothing over
// composing the existing fp2 kernels, so AVX2 delegates to the generic
// reference (still lane-batched by the caller, still bitwise-identical).
void a_pt_addmix(u128* const* p, const u128* const* q, size_t n) {
  generic_kernels().pt_addmix(p, q, n);
}

// Slot programs run on canonical u128 state through the kernels above: the
// 32-bit-limb split is cheap next to the 4x4 schoolbook it feeds.
void a_run_slots(const SlotProgram& prog, const SlotWave& wave) {
  run_slots_u128(prog, wave, a_fp2_mul, a_fp2_add, a_fp2_sub);
}

constexpr Kernels kAvx2 = {
    "avx2", a_fp2_mul, a_fp2_add, a_fp2_sub, a_pt_addmix, a_run_slots, 1,
};

}  // namespace

const Kernels& avx2_kernels() { return kAvx2; }

}  // namespace fourq::field::lanes

#endif  // FOURQ_LANES_AVX2_ENABLED

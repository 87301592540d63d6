// AVX-512 IFMA specialization of the lane kernels: 8 lanes per __m512i on
// a radix-2^52 representation.
//
// vpmadd52luq / vpmadd52huq multiply the low 52 bits of each 64-bit lane
// pair and accumulate the low/high 52 bits of the 104-bit product. With an
// F_p element split into 3 limbs of 52/52/23 bits, a full 128x128-bit
// product is a 3x3 schoolbook: 9 lo + 8 hi instructions (the top-limb hi
// term is provably zero) accumulating into 5 columns — ~2 multiply
// instructions per lane where the scalar path retires ~12 mulx/add pairs.
// That density, times 8 lanes per instruction, is what pushes the lane
// executor past the ISSUE's 5x bar; the AVX2 kernel (32-bit limbs, 16
// vpmuludq per 4 lanes) only breaks even with scalar mulx.
//
// Column sums stay below 2^55 (at most 5 terms < 2^52 plus a carry), so
// 64-bit accumulators never overflow before the carry sweep. Conditional
// steps (the Karatsuba borrow correction, the canonical subtract-p) use
// AVX-512 mask registers instead of blends. All outputs are canonical and
// bitwise-equal to the scalar operators. The per-op kernels take canonical
// u128 arrays and split into limbs at load/store (a few shifts per element,
// amortized over the 3x3 product); pt_addmix and run_slots split once per
// point or per wave and stay in limbs in between.
//
// This translation unit is compiled with -mavx512f -mavx512ifma (see
// field/CMakeLists.txt); nothing here runs unless the dispatcher checked
// avx512_supported() first.
#include "field/fp_lanes.hpp"

#if FOURQ_LANES_AVX512_ENABLED

#include <immintrin.h>

// GCC's unmasked shift intrinsics expand through _mm512_undefined_epi32,
// which -Wuninitialized flags (false positive) once they inline deep
// enough — the deeply-fused pt_addmix path trips it on GCC 12.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace fourq::field::lanes {

namespace {

constexpr size_t kVL = 8;  // lanes per vector pass

inline __m512i m52() { return _mm512_set1_epi64(0xfffffffffffffll); }
inline __m512i m23() { return _mm512_set1_epi64(0x7fffffll); }

// --- representation --------------------------------------------------------
//
// One u128 across 8 lanes as 3 radix-2^52 limbs (l2 holds bits 104..127 for
// canonical values; lazy sums push it to 24 bits). A 256-bit wide product
// is 5 limbs. load_fp/store_fp interleave per 128-bit half with
// unpacklo/hi_epi64, giving the fixed lane order (0,4,1,5,2,6,3,7) —
// self-consistent between their loads and stores. run_slots' state keeps
// lane j in element j instead, because its gathers address lanes by
// position.

struct V3 {
  __m512i l[3];
};

struct V5 {
  __m512i l[5];
};

inline V3 load_fp(const u128* p) {
  const __m512i a = _mm512_loadu_si512(p);      // lanes 0..3 (lo,hi pairs)
  const __m512i b = _mm512_loadu_si512(p + 4);  // lanes 4..7
  const __m512i lo = _mm512_unpacklo_epi64(a, b);
  const __m512i hi = _mm512_unpackhi_epi64(a, b);
  V3 r;
  r.l[0] = _mm512_and_si512(lo, m52());
  r.l[1] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(lo, 52), _mm512_slli_epi64(hi, 12)), m52());
  r.l[2] = _mm512_srli_epi64(hi, 40);
  return r;
}

inline void store_fp(u128* p, const V3& v) {
  const __m512i lo =
      _mm512_or_si512(v.l[0], _mm512_slli_epi64(v.l[1], 52));
  const __m512i hi =
      _mm512_or_si512(_mm512_srli_epi64(v.l[1], 12), _mm512_slli_epi64(v.l[2], 40));
  _mm512_storeu_si512(p, _mm512_unpacklo_epi64(lo, hi));
  _mm512_storeu_si512(p + 4, _mm512_unpackhi_epi64(lo, hi));
}

// --- arithmetic cores ------------------------------------------------------

// 128x128 -> 254/256-bit product as 5 carried radix-52 limbs. Operands must
// be normalized (l0,l1 < 2^52; l2 < 2^25 suffices — lazy Karatsuba sums
// have l2 <= 2^24). 9 madd52lo + 8 madd52hi; hi(a2,b2) is identically zero
// because a2*b2 < 2^50 never reaches bit 52.
inline V5 mul_core(const V3& a, const V3& b) {
  const __m512i z = _mm512_setzero_si512();
  __m512i c0 = _mm512_madd52lo_epu64(z, a.l[0], b.l[0]);
  __m512i c1 = _mm512_madd52lo_epu64(z, a.l[0], b.l[1]);
  c1 = _mm512_madd52lo_epu64(c1, a.l[1], b.l[0]);
  c1 = _mm512_madd52hi_epu64(c1, a.l[0], b.l[0]);
  __m512i c2 = _mm512_madd52lo_epu64(z, a.l[0], b.l[2]);
  c2 = _mm512_madd52lo_epu64(c2, a.l[1], b.l[1]);
  c2 = _mm512_madd52lo_epu64(c2, a.l[2], b.l[0]);
  c2 = _mm512_madd52hi_epu64(c2, a.l[0], b.l[1]);
  c2 = _mm512_madd52hi_epu64(c2, a.l[1], b.l[0]);
  __m512i c3 = _mm512_madd52lo_epu64(z, a.l[1], b.l[2]);
  c3 = _mm512_madd52lo_epu64(c3, a.l[2], b.l[1]);
  c3 = _mm512_madd52hi_epu64(c3, a.l[0], b.l[2]);
  c3 = _mm512_madd52hi_epu64(c3, a.l[1], b.l[1]);
  c3 = _mm512_madd52hi_epu64(c3, a.l[2], b.l[0]);
  __m512i c4 = _mm512_madd52lo_epu64(z, a.l[2], b.l[2]);
  c4 = _mm512_madd52hi_epu64(c4, a.l[1], b.l[2]);
  c4 = _mm512_madd52hi_epu64(c4, a.l[2], b.l[1]);
  V5 r;
  __m512i carry = _mm512_srli_epi64(c0, 52);
  r.l[0] = _mm512_and_si512(c0, m52());
  c1 = _mm512_add_epi64(c1, carry);
  carry = _mm512_srli_epi64(c1, 52);
  r.l[1] = _mm512_and_si512(c1, m52());
  c2 = _mm512_add_epi64(c2, carry);
  carry = _mm512_srli_epi64(c2, 52);
  r.l[2] = _mm512_and_si512(c2, m52());
  c3 = _mm512_add_epi64(c3, carry);
  carry = _mm512_srli_epi64(c3, 52);
  r.l[3] = _mm512_and_si512(c3, m52());
  r.l[4] = _mm512_add_epi64(c4, carry);  // < 2^52: product < 2^256
  return r;
}

// Canonicalise s (3 limbs, l0/l1 < 2^52, l2 carrying any bits >= 127, so
// l2 may reach ~2^27): fold bits >= 127 (2^127 === 1 mod p), then one
// conditional subtract of p — exactly Fp::make_canonical.
inline V3 fold_canonical(__m512i l0, __m512i l1, __m512i l2) {
  const __m512i hi = _mm512_srli_epi64(l2, 23);  // value >> 127
  l2 = _mm512_and_si512(l2, m23());
  __m512i s0 = _mm512_add_epi64(l0, hi);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(l1, c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 = _mm512_add_epi64(l2, c);  // <= 2^23 + 1: s <= p + small
  // u = s + 1; bit 127 of u (bit 23 of u2) set iff s >= p.
  __m512i u0 = _mm512_add_epi64(s0, _mm512_set1_epi64(1));
  c = _mm512_srli_epi64(u0, 52);
  u0 = _mm512_and_si512(u0, m52());
  __m512i u1 = _mm512_add_epi64(s1, c);
  c = _mm512_srli_epi64(u1, 52);
  u1 = _mm512_and_si512(u1, m52());
  const __m512i u2 = _mm512_add_epi64(s2, c);
  const __mmask8 ge = _mm512_test_epi64_mask(u2, _mm512_set1_epi64(1ll << 23));
  V3 r;
  r.l[0] = _mm512_mask_blend_epi64(ge, s0, u0);
  r.l[1] = _mm512_mask_blend_epi64(ge, s1, u1);
  r.l[2] = _mm512_mask_blend_epi64(ge, s2, _mm512_and_si512(u2, m23()));
  return r;
}

// Mersenne fold of a carried 5-limb value (Fp::reduce_wide): split at bits
// 127 and 254, add the three parts, canonicalise.
inline V3 reduce_core(const V5& v) {
  // A = bits [126:0].
  const __m512i a0 = v.l[0];
  const __m512i a1 = v.l[1];
  const __m512i a2 = _mm512_and_si512(v.l[2], m23());
  // B = bits [253:127]: bits 23.. of limb 2, then limbs 3, 4.
  const __m512i b0 = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(v.l[2], 23), _mm512_slli_epi64(v.l[3], 29)),
      m52());
  const __m512i b1 = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(v.l[3], 23), _mm512_slli_epi64(v.l[4], 29)),
      m52());
  const __m512i b2 = _mm512_and_si512(_mm512_srli_epi64(v.l[4], 23), m23());
  // C = bits [255:254], < 4.
  const __m512i cc = _mm512_srli_epi64(v.l[4], 46);
  __m512i s0 = _mm512_add_epi64(a0, b0);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a1, b1), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 = _mm512_add_epi64(_mm512_add_epi64(a2, b2), c);
  const V3 ab = fold_canonical(s0, s1, s2);
  return fold_canonical(_mm512_add_epi64(ab.l[0], cc), ab.l[1], ab.l[2]);
}

// r = a + b mod p on canonical inputs (Fp operator+).
inline V3 add_core(const V3& a, const V3& b) {
  __m512i s0 = _mm512_add_epi64(a.l[0], b.l[0]);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], b.l[1]), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 = _mm512_add_epi64(_mm512_add_epi64(a.l[2], b.l[2]), c);
  return fold_canonical(s0, s1, s2);
}

// r = a - b mod p on canonical inputs, branchlessly as a + p - b (in
// [1, 2p-1]) followed by the canonical fold — lands on the same value as
// the scalar operator-. Complement-within-52-bits implements the borrow.
inline V3 sub_core(const V3& a, const V3& b) {
  const __m512i nb0 = _mm512_xor_si512(b.l[0], m52());
  const __m512i nb1 = _mm512_xor_si512(b.l[1], m52());
  const __m512i nb2 = _mm512_xor_si512(b.l[2], m52());
  const __m512i p2 = m23();  // p = [m52, m52, 2^23 - 1]
  __m512i s0 = _mm512_add_epi64(_mm512_add_epi64(a.l[0], m52()),
                                _mm512_add_epi64(nb0, _mm512_set1_epi64(1)));
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], m52()),
                                _mm512_add_epi64(nb1, c));
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  __m512i s2 = _mm512_add_epi64(_mm512_add_epi64(a.l[2], p2),
                                _mm512_add_epi64(nb2, c));
  // a + p - b < 2^128: keep bits 104..127 of the limb-2 column, dropping
  // the 2^156-scale complement carry.
  s2 = _mm512_and_si512(s2, _mm512_set1_epi64(0xffffffll));
  return fold_canonical(s0, s1, s2);
}

// Lazy 128-bit sum (Karatsuba t2/t3): no reduction, normalized limbs with
// l2 <= 2^24 — still valid mul_core input.
inline V3 add_lazy(const V3& a, const V3& b) {
  __m512i s0 = _mm512_add_epi64(a.l[0], b.l[0]);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], b.l[1]), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  V3 r;
  r.l[0] = s0;
  r.l[1] = s1;
  r.l[2] = _mm512_add_epi64(_mm512_add_epi64(a.l[2], b.l[2]), c);
  return r;
}

// 5-limb add (t5 = t0 + t1 < 2^255), renormalized.
inline V5 add_wide(const V5& a, const V5& b) {
  V5 r;
  __m512i c = _mm512_setzero_si512();
  for (int k = 0; k < 5; ++k) {
    const __m512i s = _mm512_add_epi64(_mm512_add_epi64(a.l[k], b.l[k]), c);
    r.l[k] = _mm512_and_si512(s, m52());
    c = _mm512_srli_epi64(s, 52);
  }
  return r;  // sum < 2^260: final carry is zero
}

// 5-limb subtract r = a - b (mod 2^260); borrowed lanes reported in the
// returned mask.
inline V5 sub_wide(const V5& a, const V5& b, __mmask8& borrow) {
  V5 r;
  __m512i c = _mm512_set1_epi64(1);
  for (int k = 0; k < 5; ++k) {
    const __m512i nb = _mm512_xor_si512(b.l[k], m52());
    const __m512i s = _mm512_add_epi64(_mm512_add_epi64(a.l[k], nb), c);
    r.l[k] = _mm512_and_si512(s, m52());
    c = _mm512_srli_epi64(s, 52);
  }
  borrow = _mm512_cmpeq_epi64_mask(c, _mm512_setzero_si512());
  return r;
}

// Fp2 Karatsuba with lazy reduction (paper Alg. 2), stage for stage the
// same flow as Fp2::mul_karatsuba.
inline void fp2_mul_core(const V3& x0, const V3& x1, const V3& y0, const V3& y1,
                         V3& z0, V3& z1) {
  const V5 t0 = mul_core(x0, y0);
  const V5 t1 = mul_core(x1, y1);
  const V3 t2 = add_lazy(x0, x1);
  const V3 t3 = add_lazy(y0, y1);
  const V5 t6 = mul_core(t2, t3);
  __mmask8 borrow;
  const V5 t4 = sub_wide(t0, t1, borrow);
  const V5 t5 = add_wide(t0, t1);
  // t7 = t4 + (p << 127) in borrowed lanes; the carry-out cancels the
  // borrow exactly (t1 <= p^2 < p * 2^127). p<<127 = 2^254 - 2^127 in
  // radix-52: [0, 0, 2^52 - 2^23, 2^52 - 1, 2^46 - 1].
  const __m512i ps2 = _mm512_set1_epi64(0xfffffff800000ll);
  const __m512i ps3 = m52();
  const __m512i ps4 = _mm512_set1_epi64(0x3fffffffffffll);
  V5 t7;
  t7.l[0] = t4.l[0];
  t7.l[1] = t4.l[1];
  __m512i s = _mm512_mask_add_epi64(t4.l[2], borrow, t4.l[2], ps2);
  __m512i c = _mm512_srli_epi64(s, 52);
  t7.l[2] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[3], borrow, t4.l[3], ps3), c);
  c = _mm512_srli_epi64(s, 52);
  t7.l[3] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[4], borrow, t4.l[4], ps4), c);
  t7.l[4] = _mm512_and_si512(s, m52());  // drop the borrow-cancelling carry
  __mmask8 borrow2;  // always clear: t6 >= t0 + t1
  const V5 t8 = sub_wide(t6, t5, borrow2);
  z0 = reduce_core(t7);
  z1 = reduce_core(t8);
}

// --- fused mixed addition --------------------------------------------------
//
// The point kernel keeps all 7 muls and 7 adds of the mixed-addition
// formula in the limb domain, converting each coordinate exactly once at
// load/store. The adds between the muls are only *semi*-reduced: one fold
// of bits >= 127 without the conditional subtract, giving values
// < 2^127 + 4 with normalized limbs — valid mul_core operands. Two
// consequences feed the bounds below:
//  * semi x semi products reach 2^254 + 2^131, so a borrowed Karatsuba
//    real part is compensated with (2p) << 127 = 2^255 - 2^128 (=== 0
//    mod p) instead of p << 127; the borrow cancels whenever
//    t1 < 2^255 - 2^128, which semi operands always satisfy.
//  * the cross product (x0+x1)(y0+y1) of semi sums reaches 2^256 + 2^133;
//    limb 4 stays < 2^49 and reduce_core's bits-254+ split covers it.
// Every stored output passes through reduce_core, so the results are the
// canonical representatives — the same bits the scalar formula stores,
// because the canonical form is unique.

// One fold of bits >= 127 (2^127 === 1 mod p), no conditional subtract:
// value < 2^127 + 4, limbs normalized (l2 <= 2^23 + 1). Input l2 may carry
// lazy-sum bits up to ~2^26.
inline V3 fold_semi(__m512i l0, __m512i l1, __m512i l2) {
  const __m512i hi = _mm512_srli_epi64(l2, 23);  // value >> 127
  l2 = _mm512_and_si512(l2, m23());
  __m512i s0 = _mm512_add_epi64(l0, hi);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(l1, c);
  c = _mm512_srli_epi64(s1, 52);
  V3 r;
  r.l[0] = s0;
  r.l[1] = _mm512_and_si512(s1, m52());
  r.l[2] = _mm512_add_epi64(l2, c);
  return r;
}

// Semi-reduced sum: a + b folded once. Inputs semi or canonical.
inline V3 add_semi(const V3& a, const V3& b) {
  const V3 s = add_lazy(a, b);
  return fold_semi(s.l[0], s.l[1], s.l[2]);
}

// Semi-reduced difference a - b mod p, computed branchlessly as
// a + 2p - b (non-negative for any canonical b, even when a is a lazy
// 128-bit sum) and folded once. b must have canonical-range limbs;
// 2p = 2^128 - 2 = [2^52 - 2, 2^52 - 1, 2^24 - 1] in radix 52, and the
// per-limb complement's 2^156-scale excess is dropped from the top limb
// exactly like sub_core does.
inline V3 sub_semi(const V3& a, const V3& b) {
  const __m512i nb0 = _mm512_xor_si512(b.l[0], m52());
  const __m512i nb1 = _mm512_xor_si512(b.l[1], m52());
  const __m512i nb2 = _mm512_xor_si512(b.l[2], m52());
  // limb0 of 2p plus the complement's +1: (2^52 - 2) + 1 = m52.
  __m512i s0 = _mm512_add_epi64(_mm512_add_epi64(a.l[0], nb0), m52());
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(a.l[1], m52()),
                                _mm512_add_epi64(nb1, c));
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  __m512i s2 = _mm512_add_epi64(
      _mm512_add_epi64(a.l[2], _mm512_set1_epi64(0xffffffll)),
      _mm512_add_epi64(nb2, c));
  s2 = _mm512_and_si512(s2, m52());  // drop the complement carry (bit 52)
  return fold_semi(s0, s1, s2);
}

// fp2_mul_core for semi-reduced operands, up to the two unreduced
// Karatsuba results t7 (real part) and t8 (imaginary part), each < 2^256:
// identical flow, but the borrow compensation is (2p) << 127 = 2^255 -
// 2^128, radix-52 limbs [0, 0, 2^52 - 2^24, 2^52 - 1, 2^47 - 1].
inline void fp2_mul_semi_wide(const V3& x0, const V3& x1, const V3& y0, const V3& y1,
                              V5& t7, V5& t8) {
  const V5 t0 = mul_core(x0, y0);
  const V5 t1 = mul_core(x1, y1);
  const V3 t2 = add_lazy(x0, x1);
  const V3 t3 = add_lazy(y0, y1);
  const V5 t6 = mul_core(t2, t3);
  __mmask8 borrow;
  const V5 t4 = sub_wide(t0, t1, borrow);
  const V5 t5 = add_wide(t0, t1);
  const __m512i ps2 = _mm512_set1_epi64(0xfffffff000000ll);
  const __m512i ps3 = m52();
  const __m512i ps4 = _mm512_set1_epi64(0x7fffffffffffll);
  t7.l[0] = t4.l[0];
  t7.l[1] = t4.l[1];
  __m512i s = _mm512_mask_add_epi64(t4.l[2], borrow, t4.l[2], ps2);
  __m512i c = _mm512_srli_epi64(s, 52);
  t7.l[2] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[3], borrow, t4.l[3], ps3), c);
  c = _mm512_srli_epi64(s, 52);
  t7.l[3] = _mm512_and_si512(s, m52());
  s = _mm512_add_epi64(_mm512_mask_add_epi64(t4.l[4], borrow, t4.l[4], ps4), c);
  t7.l[4] = _mm512_and_si512(s, m52());  // drop the borrow-cancelling carry
  __mmask8 borrow2;  // always clear: t6 >= t0 + t1
  t8 = sub_wide(t6, t5, borrow2);
}

// The same with canonical outputs. Out of line: pt_addmix calls it seven
// times per point, and GCC would otherwise inline all seven calls,
// doubling that kernel's code size.
[[gnu::noinline]] void fp2_mul_semi(const V3& x0, const V3& x1, const V3& y0, const V3& y1,
                                    V3& z0, V3& z1) {
  V5 t7, t8;
  fp2_mul_semi_wide(x0, x1, y0, y1, t7, t8);
  z0 = reduce_core(t7);
  z1 = reduce_core(t8);
}

void v_pt_addmix(u128* const* p, const u128* const* q, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 X0 = load_fp(p[0] + i), X1 = load_fp(p[1] + i);
    const V3 Y0 = load_fp(p[2] + i), Y1 = load_fp(p[3] + i);
    const V3 Z0 = load_fp(p[4] + i), Z1 = load_fp(p[5] + i);
    V3 t0, t1, a0, a1, b0, b1, c0, c1;
    fp2_mul_semi(load_fp(p[6] + i), load_fp(p[7] + i), load_fp(p[8] + i),
                 load_fp(p[9] + i), t0, t1);                    // t = Ta*Tb
    fp2_mul_semi(sub_semi(Y0, X0), sub_semi(Y1, X1), load_fp(q[2] + i),
                 load_fp(q[3] + i), a0, a1);                    // a = (Y-X)*ymx
    fp2_mul_semi(add_semi(Y0, X0), add_semi(Y1, X1), load_fp(q[0] + i),
                 load_fp(q[1] + i), b0, b1);                    // b = (Y+X)*xpy
    fp2_mul_semi(t0, t1, load_fp(q[4] + i), load_fp(q[5] + i), c0, c1);
    const V3 d0 = add_lazy(Z0, Z0), d1 = add_lazy(Z1, Z1);      // d = 2Z
    const V3 e0 = sub_core(b0, a0), e1 = sub_core(b1, a1);      // e = b-a
    const V3 f0 = sub_semi(d0, c0), f1 = sub_semi(d1, c1);      // f = d-c
    const V3 g0 = add_semi(d0, c0), g1 = add_semi(d1, c1);      // g = d+c
    const V3 h0 = add_core(b0, a0), h1 = add_core(b1, a1);      // h = b+a
    V3 r0, r1;
    fp2_mul_semi(e0, e1, f0, f1, r0, r1);                       // X = e*f
    store_fp(p[0] + i, r0);
    store_fp(p[1] + i, r1);
    fp2_mul_semi(g0, g1, h0, h1, r0, r1);                       // Y = g*h
    store_fp(p[2] + i, r0);
    store_fp(p[3] + i, r1);
    fp2_mul_semi(f0, f1, g0, g1, r0, r1);                       // Z = f*g
    store_fp(p[4] + i, r0);
    store_fp(p[5] + i, r1);
    store_fp(p[6] + i, e0);                                     // Ta = e
    store_fp(p[7] + i, e1);
    store_fp(p[8] + i, h0);                                     // Tb = h
    store_fp(p[9] + i, h1);
  }
  if (i < n) {
    u128* pt[10];
    const u128* qt[6];
    for (int k = 0; k < 10; ++k) pt[k] = p[k] + i;
    for (int k = 0; k < 6; ++k) qt[k] = q[k] + i;
    generic_kernels().pt_addmix(pt, qt, n - i);
  }
}

// --- kernel entry points ---------------------------------------------------

void v_fp2_mul(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    V3 z0, z1;
    fp2_mul_core(load_fp(are + i), load_fp(aim + i), load_fp(bre + i),
                 load_fp(bim + i), z0, z1);
    store_fp(rre + i, z0);
    store_fp(rim + i, z1);
  }
  if (i < n)
    generic_kernels().fp2_mul(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void v_fp2_add(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 re = add_core(load_fp(are + i), load_fp(bre + i));
    const V3 im = add_core(load_fp(aim + i), load_fp(bim + i));
    store_fp(rre + i, re);
    store_fp(rim + i, im);
  }
  if (i < n)
    generic_kernels().fp2_add(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

void v_fp2_sub(const u128* are, const u128* aim, const u128* bre,
               const u128* bim, u128* rre, u128* rim, size_t n) {
  size_t i = 0;
  for (; i + kVL <= n; i += kVL) {
    const V3 re = sub_core(load_fp(are + i), load_fp(bre + i));
    const V3 im = sub_core(load_fp(aim + i), load_fp(bim + i));
    store_fp(rre + i, re);
    store_fp(rim + i, im);
  }
  if (i < n)
    generic_kernels().fp2_sub(are + i, aim + i, bre + i, bim + i, rre + i,
                              rim + i, n - i);
}

// --- slot programs ---------------------------------------------------------
//
// run_slots keeps a wave's whole state in radix-2^52 limbs: slot s is six
// vectors (re limbs 0..2, then im limbs 0..2), element j of each holding
// lane j. Input rows are split once and output rows canonicalised and
// joined once; in between every op reads and writes limbs, with all of its
// arithmetic inlined (v_run_slots is flattened).
//
// The state is semi-reduced, like pt_addmix's intermediates: every slot
// value v is congruent to its canonical F_p value and satisfies
// v < 2^127 + 4, with normalised limbs (l0, l1 < 2^52, l2 <= 2^23 + 1).
// Canonical inputs satisfy it, and each op keeps it, since one fold of
// bits >= 127 (2^127 === 1 mod p) maps any value below 3 * 2^127 + 2 below
// 2^127 + 2:
//  * add (add_semi): a + b < 2^128 + 8, folded once.
//  * sub and conj (sub_semi, conj as 0 - im): a + 2p - b, non-negative
//    because b < 2^127 + 4 < 2p, below 3 * 2^127 + 2, folded once.
//  * mul (fp2_mul_semi_wide, then reduce_semi): semi x semi products stay
//    below 2^254 + 2^131, so the (2p) << 127 borrow compensation keeps the
//    real part t7 in [0, 2^256) and the imaginary part t8 = x0 y1 + x1 y0
//    is below 2^255 + 2^132; reduce_semi adds the parts of a value below
//    2^256 to A + B + C < 2^128 + 4 and folds that once.
//  * sqr (re = (a0 + a1)(a0 - a1), im = (2 a0) a1, then reduce_semi):
//    a0 + a1 and 2 a0 are lazy sums below 2^128 + 8 (l2 <= 2^24 + 2), and
//    a0 - a1 is sub_semi's once-folded a0 + 2p - a1 < 2^127 + 4, so both
//    products are below (2^128 + 8)(2^127 + 4) < 2^256 and non-negative:
//    no borrow to compensate, and reduce_semi's input bound holds.
//  * gathers move values unchanged.
// Limb bounds follow: mul_core takes l2 < 2^25 and the Karatsuba sums of
// two semi values have l2 <= 2^24 + 2; sub_semi's complement needs only
// limbs below 2^52.
// The readout folds each output to its canonical representative, which is
// unique, so each lane's outputs are the bits the scalar operators give.
// Dead lanes (at or past wave.lanes) compute on lane 0's inputs and
// gather slots.

// Semi-reduced fold of a carried 5-limb value below 2^256: A + B + C, the
// value's bits [126:0], [253:127] and [255:254] (< 2^128 + 4), folded
// once. reduce_core does the same additions with two canonical folds.
inline V3 reduce_semi(const V5& v) {
  const __m512i b0 = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(v.l[2], 23), _mm512_slli_epi64(v.l[3], 29)),
      m52());
  const __m512i b1 = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(v.l[3], 23), _mm512_slli_epi64(v.l[4], 29)),
      m52());
  const __m512i b2 = _mm512_and_si512(_mm512_srli_epi64(v.l[4], 23), m23());
  const __m512i cc = _mm512_srli_epi64(v.l[4], 46);
  __m512i s0 = _mm512_add_epi64(_mm512_add_epi64(v.l[0], b0), cc);
  __m512i c = _mm512_srli_epi64(s0, 52);
  s0 = _mm512_and_si512(s0, m52());
  __m512i s1 = _mm512_add_epi64(_mm512_add_epi64(v.l[1], b1), c);
  c = _mm512_srli_epi64(s1, 52);
  s1 = _mm512_and_si512(s1, m52());
  const __m512i s2 =
      _mm512_add_epi64(_mm512_add_epi64(_mm512_and_si512(v.l[2], m23()), b2), c);
  return fold_semi(s0, s1, s2);
}

struct F2 {
  V3 re, im;
};

inline F2 load_slot(const __m512i* st, size_t s) {
  const __m512i* p = st + 6 * s;
  return {{{p[0], p[1], p[2]}}, {{p[3], p[4], p[5]}}};
}

inline void store_slot(__m512i* st, size_t s, const V3& re, const V3& im) {
  __m512i* p = st + 6 * s;
  for (int k = 0; k < 3; ++k) {
    p[k] = re.l[k];
    p[3 + k] = im.l[k];
  }
}

// Lane j reads slot row[j]; a dead lane reads lane 0's slot.
inline F2 gather_slot(const __m512i* st, const uint16_t* row, __mmask8 live) {
  __m512i s = _mm512_cvtepu16_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
  s = _mm512_mask_blend_epi64(live, _mm512_permutexvar_epi64(_mm512_setzero_si512(), s), s);
  // 64-bit word index of (slot, limb 0, lane j): slot * 48 + j.
  const __m512i idx =
      _mm512_add_epi64(_mm512_add_epi64(_mm512_slli_epi64(s, 5), _mm512_slli_epi64(s, 4)),
                       _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  const long long* base = reinterpret_cast<const long long*>(st);
  F2 r;
  for (size_t k = 0; k < 3; ++k) {
    r.re.l[k] = _mm512_i64gather_epi64(idx, base + 8 * k, 8);
    r.im.l[k] = _mm512_i64gather_epi64(idx, base + 8 * (3 + k), 8);
  }
  return r;
}

// One input row (8 canonical u128 in lane order) as limbs; dead lanes take
// lane 0's value.
inline V3 split_row(const u128* p, __mmask8 live) {
  const __m512i a = _mm512_loadu_si512(p);
  const __m512i b = _mm512_loadu_si512(p + 4);
  __m512i lo = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), b);
  __m512i hi = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), b);
  const __m512i lane0 = _mm512_setzero_si512();
  lo = _mm512_mask_blend_epi64(live, _mm512_permutexvar_epi64(lane0, lo), lo);
  hi = _mm512_mask_blend_epi64(live, _mm512_permutexvar_epi64(lane0, hi), hi);
  V3 r;
  r.l[0] = _mm512_and_si512(lo, m52());
  r.l[1] = _mm512_and_si512(
      _mm512_or_si512(_mm512_srli_epi64(lo, 52), _mm512_slli_epi64(hi, 12)), m52());
  r.l[2] = _mm512_srli_epi64(hi, 40);
  return r;
}

inline void join_row(u128* p, const V3& v) {
  const __m512i lo = _mm512_or_si512(v.l[0], _mm512_slli_epi64(v.l[1], 52));
  const __m512i hi =
      _mm512_or_si512(_mm512_srli_epi64(v.l[1], 12), _mm512_slli_epi64(v.l[2], 40));
  _mm512_storeu_si512(
      p, _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11), hi));
  _mm512_storeu_si512(
      p + 4, _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15), hi));
}

[[gnu::flatten]] void v_run_slots(const SlotProgram& prog, const SlotWave& wave) {
  const __mmask8 live = static_cast<__mmask8>((1u << wave.lanes) - 1);
  __m512i* const st = static_cast<__m512i*>(wave.state);
  // Locals: the state stores below may alias anything reachable through
  // the program and wave structs.
  const SlotOp* const ops = prog.ops;
  const size_t n_ops = prog.n_ops;
  const uint16_t* const gather = wave.gather;
  for (size_t i = 0; i < prog.n_inputs; ++i)
    store_slot(st, prog.inputs[i], split_row(wave.in_re + kWaveLanes * i, live),
               split_row(wave.in_im + kWaveLanes * i, live));
  auto operand = [&](uint16_t src, bool gathered) {
    return gathered ? gather_slot(st, gather + kWaveLanes * src, live) : load_slot(st, src);
  };
  V3 zero;
  for (auto& v : zero.l) v = _mm512_setzero_si512();
  for (size_t i = 0; i < n_ops; ++i) {
    const SlotOp op = ops[i];
    switch (op.kind) {
      case SlotOp::kMul: {
        const F2 a = operand(op.a, op.gather & SlotOp::kGatherA);
        const F2 b = operand(op.b, op.gather & SlotOp::kGatherB);
        V5 t7, t8;
        fp2_mul_semi_wide(a.re, a.im, b.re, b.im, t7, t8);
        store_slot(st, op.dst, reduce_semi(t7), reduce_semi(t8));
        break;
      }
      case SlotOp::kAdd: {
        const F2 a = operand(op.a, op.gather & SlotOp::kGatherA);
        const F2 b = operand(op.b, op.gather & SlotOp::kGatherB);
        store_slot(st, op.dst, add_semi(a.re, b.re), add_semi(a.im, b.im));
        break;
      }
      case SlotOp::kSub: {
        const F2 a = operand(op.a, op.gather & SlotOp::kGatherA);
        const F2 b = operand(op.b, op.gather & SlotOp::kGatherB);
        store_slot(st, op.dst, sub_semi(a.re, b.re), sub_semi(a.im, b.im));
        break;
      }
      case SlotOp::kSqr: {
        const F2 a = operand(op.a, op.gather & SlotOp::kGatherA);
        const V5 re = mul_core(add_lazy(a.re, a.im), sub_semi(a.re, a.im));
        const V5 im = mul_core(add_lazy(a.re, a.re), a.im);
        store_slot(st, op.dst, reduce_semi(re), reduce_semi(im));
        break;
      }
      default: {  // kConj
        const F2 a = operand(op.a, op.gather & SlotOp::kGatherA);
        store_slot(st, op.dst, a.re, sub_semi(zero, a.im));
        break;
      }
    }
  }
  for (size_t i = 0; i < prog.n_outputs; ++i) {
    const F2 v = load_slot(st, prog.outputs[i]);
    join_row(wave.out_re + kWaveLanes * i, fold_canonical(v.re.l[0], v.re.l[1], v.re.l[2]));
    join_row(wave.out_im + kWaveLanes * i, fold_canonical(v.im.l[0], v.im.l[1], v.im.l[2]));
  }
}

constexpr Kernels kAvx512 = {
    "avx512", v_fp2_mul, v_fp2_add, v_fp2_sub, v_pt_addmix, v_run_slots, 8,
};

}  // namespace

const Kernels& avx512_kernels() { return kAvx512; }

}  // namespace fourq::field::lanes

#endif  // FOURQ_LANES_AVX512_ENABLED

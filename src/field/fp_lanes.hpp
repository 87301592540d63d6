// Lane-parallel F_p / F_{p^2} batch kernels (the software analogue of the
// paper's single-control-stream datapath: one instruction stream, W field
// operations).
//
// Every kernel processes `n` independent lanes held in struct-of-arrays
// form: component j of lane i lives at array[i] of the j-th operand array.
// Outputs are canonical field elements bitwise-equal to the scalar
// operators in fp.hpp / fp2.hpp — the lane executor (engine/lanes.hpp),
// field::batch_invert and the MSM bucket path all rely on that equality,
// and tests/test_lanes.cpp pins every table against an independent
// Montgomery reference (common/modint.hpp) on random and boundary
// operands.
//
// Three implementations sit behind one dispatch table:
//  * generic — portable flat loops that call the inline scalar arithmetic
//    of fp.hpp / fp2.hpp itself (one software Alg. 2), so the compiler can
//    software-pipeline W independent carry chains (the ILP the scalar
//    interpreter's one-value-at-a-time walk never exposes).
//  * avx2 — 4 lanes per vector on a 32-bit-limbs-in-64-bit-lanes
//    representation (vpmuludq schoolbook products, branchless carry /
//    borrow chains). Compiled only when FOURQ_LANES_AVX2 is enabled and
//    selected at runtime only when the CPU reports AVX2.
//  * avx512 — 8 lanes per vector on radix-2^52 limbs driven by the IFMA
//    instructions (vpmadd52luq/huq): a full 128x128 product is 17 fused
//    multiply-adds across 8 lanes. Compiled only when FOURQ_LANES_AVX512
//    is enabled and selected only when the CPU reports AVX512F + IFMA.
//
// Selection: active() probes the CPU once and prefers avx512 > avx2 >
// generic; $FOURQ_FP_LANES overrides ("generic", "avx2", "avx512",
// "auto"). Requesting an ISA the build or CPU cannot provide falls back
// to generic — never a crash — so every build produces identical results
// on identical inputs.
#pragma once

#include <cstddef>

#include "common/u256.hpp"
#include "field/fp2.hpp"

// The AVX2 specialization is compiled only when the build enables it
// (CMake option FOURQ_LANES_AVX2, x86-64 + GCC/Clang only) — the generic
// path is always present, so a generic-only build differs from an AVX2
// build only in which table active() can return.
#if defined(FOURQ_LANES_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FOURQ_LANES_AVX2_ENABLED 1
#else
#define FOURQ_LANES_AVX2_ENABLED 0
#endif

#if defined(FOURQ_LANES_AVX512) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FOURQ_LANES_AVX512_ENABLED 1
#else
#define FOURQ_LANES_AVX512_ENABLED 0
#endif

namespace fourq::field::lanes {

// Lane kernels. Raw u128 values are canonical F_p elements (in [0, p));
// U256 values are the unreduced wide products the lazy-reduction datapath
// carries. In-place calls (r aliasing a or b elementwise) are allowed;
// partially overlapping arrays are not.
struct Kernels {
  const char* name;  // "generic", "avx2" or "avx512"

  // r[i] = a[i] * b[i], the unreduced 254-bit product (Fp::mul_wide).
  void (*mul_wide)(const u128* a, const u128* b, U256* r, size_t n);
  // r[i] = a[i]^2 unreduced (Fp::sqr_wide).
  void (*sqr_wide)(const u128* a, U256* r, size_t n);
  // Mersenne fold into [0, p) (Fp::reduce_wide).
  void (*reduce_wide)(const U256* v, u128* r, size_t n);
  // Canonical product r[i] = a[i] * b[i] mod p (mul_wide + fold).
  void (*fp_mul)(const u128* a, const u128* b, u128* r, size_t n);

  // F_{p^2} lane ops over split re/im arrays, bitwise-equal to the scalar
  // operators: mul is paper Algorithm 2 (Karatsuba + lazy reduction).
  void (*fp2_mul)(const u128* are, const u128* aim, const u128* bre,
                  const u128* bim, u128* rre, u128* rim, size_t n);
  void (*fp2_add)(const u128* are, const u128* aim, const u128* bre,
                  const u128* bim, u128* rre, u128* rim, size_t n);
  void (*fp2_sub)(const u128* are, const u128* aim, const u128* bre,
                  const u128* bim, u128* rre, u128* rim, size_t n);
  void (*fp2_conj)(const u128* are, const u128* aim, u128* rre, u128* rim,
                   size_t n);

  // Fused twisted-Edwards mixed addition P += Q, lane-parallel — the MSM
  // bucket-insertion kernel. P is an extended-coordinate point (X, Y, Z,
  // Ta, Tb), Q a normalised-affine precomputation (x+y, y-x, 2dxy); each
  // F_{p^2} coordinate is a split re/im SoA pair, so
  //   p[0..9] = {X.re, X.im, Y.re, Y.im, Z.re, Z.im,
  //              Ta.re, Ta.im, Tb.re, Tb.im}       (updated in place)
  //   q[0..5] = {xpy.re, xpy.im, ymx.re, ymx.im, dt2.re, dt2.im}.
  // Outputs are canonical and bitwise-equal to the 7M + 7A curve formula
  // applied with scalar field ops. The vector implementations fuse the
  // whole formula in the limb domain — operands are split once per point
  // instead of once per field op, and the 7 adds/subs between the muls run
  // lazily (reduction bounds in fp_lanes_avx512.cpp); uniqueness of the
  // canonical form is what lets the lazy schedule keep bit-equality.
  void (*pt_addmix)(u128* const* p, const u128* const* q, size_t n);
  // Preferred pt_addmix group size: lanes whose n is a multiple of this
  // stay entirely on the vector path (a remainder falls back to the
  // per-lane generic loop). Callers with control over the batch shape —
  // the MSM wave scheduler — pad to a multiple with duplicate lanes and
  // discard the padded outputs; 1 means padding buys nothing.
  int pt_group;
};

// The portable implementation (always available).
const Kernels& generic_kernels();

// True when the build carries the AVX2 specialization *and* this CPU
// supports it; avx2_kernels() may only be called when this returns true.
bool avx2_supported();
const Kernels& avx2_kernels();

// Same contract for the AVX-512 IFMA specialization (requires both the
// FOURQ_LANES_AVX512 build option and avx512f + avx512ifma at runtime).
bool avx512_supported();
const Kernels& avx512_kernels();

// Runtime-dispatched table: best available ISA (avx512 > avx2 > generic),
// overridable via the $FOURQ_FP_LANES environment variable
// ("generic" | "avx2" | "avx512" | "auto"). An unsatisfiable request
// degrades to generic.
const Kernels& active();

// --- Fp2 <-> SoA conversion helpers (boundary use, not hot loops) ---------

inline void split(const Fp2& v, u128& re, u128& im) {
  re = v.re().raw();
  im = v.im().raw();
}

// Values must be canonical (they are whenever they came out of a kernel or
// a scalar field op); Fp::from_canonical checks.
inline Fp2 join(u128 re, u128 im) {
  return Fp2(Fp::from_canonical(re), Fp::from_canonical(im));
}

// Unchecked join for per-wave hot paths (the MSM bucket pipeline re-joins
// 80 coordinates per 8-add wave; the checked variant is an out-of-line
// call each). Kernel outputs are canonical by construction and the
// differential tests compare them bitwise against the scalar path, so the
// range check adds no safety here.
inline Fp2 join_unchecked(u128 re, u128 im) {
  return Fp2(Fp::from_canonical_unchecked(re), Fp::from_canonical_unchecked(im));
}

}  // namespace fourq::field::lanes

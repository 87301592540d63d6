// Lane-parallel F_p / F_{p^2} batch kernels (the software analogue of the
// paper's single-control-stream datapath: one instruction stream, W field
// operations).
//
// Every kernel processes `n` independent lanes held in struct-of-arrays
// form: component j of lane i lives at array[i] of the j-th operand array.
// Outputs are canonical field elements bitwise-equal to the scalar
// operators in fp.hpp / fp2.hpp — field::batch_invert, the MSM bucket path
// and the engine's lane waves all rely on that equality, and
// tests/test_lanes.cpp pins every table against an independent Montgomery
// reference (common/modint.hpp) on random and boundary operands.
//
// Besides the per-op fp2 kernels, each table runs whole *slot programs*
// (run_slots): a straight-line list of F_{p^2} ops over numbered state
// slots, the form the engine lowers a decoded ROM into once per program
// (engine/lanes.hpp). The table owns the state's representation for the
// length of one call, so a vector table can keep it in its own limb domain
// from the first preload to the last readout.
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
#include <cstdint>

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

// One op of a slot program: dst = a * b, a + b, a - b, conj(a) or a^2.
// Operands name state slots, or rows of the wave's gather table when the
// matching gather bit is set (a per-lane slot: the digit-table selects).
// kSqr is a product of one value by itself, which a table may compute with
// fewer multiplications than kMul (avx512: two F_p products, not three).
struct SlotOp {
  enum Kind : uint8_t { kMul, kAdd, kSub, kConj, kSqr };
  static constexpr uint8_t kGatherA = 1, kGatherB = 2;
  uint8_t kind = kMul;
  uint8_t gather = 0;  // kGatherA | kGatherB
  uint16_t dst = 0;
  uint16_t a = 0, b = 0;  // kConj and kSqr read only a
};

// A straight-line program over numbered F_{p^2} state slots: `inputs[i]`
// receives input row i, the ops run in list order, and output row i is
// read from `outputs[i]`. A view: the arrays belong to the caller (the
// engine's decoded ROM), which also sizes the wave's state for the
// highest slot. Every slot an op reads must have been preloaded or written
// by an earlier op; an op's destination may be one of its own operands.
struct SlotProgram {
  const SlotOp* ops = nullptr;
  size_t n_ops = 0;
  const uint16_t* inputs = nullptr;
  size_t n_inputs = 0;
  const uint16_t* outputs = nullptr;
  size_t n_outputs = 0;
};

// Lane stride of every SlotWave row, and the widest wave run_slots takes.
inline constexpr size_t kWaveLanes = 8;
// State bytes per slot: 2 components x 3 radix-2^52 limbs x 8 lanes fits
// every table (the u128 tables use 2 x 16 bytes x 8 lanes of it).
inline constexpr size_t kSlotStateBytes = 384;

// One wave's operands and results; rows are kWaveLanes lanes wide and only
// lanes [0, lanes) are live. A table may compute the dead lanes from lane
// 0's operands; their output lanes are unspecified.
struct SlotWave {
  size_t lanes = 0;                               // 1..kWaveLanes
  const u128* in_re = nullptr;                    // [input * kWaveLanes + lane],
  const u128* in_im = nullptr;                    //   canonical
  const uint16_t* gather = nullptr;               // [row * kWaveLanes + lane] -> slot
  u128* out_re = nullptr;                         // [output * kWaveLanes + lane],
  u128* out_im = nullptr;                         //   canonical
  void* state = nullptr;  // 64-byte aligned scratch, kSlotStateBytes per slot
};

// Lane kernels. Raw u128 values are canonical F_p elements (in [0, p)).
// In-place calls (r aliasing a or b elementwise) are allowed; partially
// overlapping arrays are not.
struct Kernels {
  const char* name;  // "generic", "avx2" or "avx512"

  // F_{p^2} lane ops over split re/im arrays, bitwise-equal to the scalar
  // operators: mul is paper Algorithm 2 (Karatsuba + lazy reduction).
  void (*fp2_mul)(const u128* are, const u128* aim, const u128* bre,
                  const u128* bim, u128* rre, u128* rim, size_t n);
  void (*fp2_add)(const u128* are, const u128* aim, const u128* bre,
                  const u128* bim, u128* rre, u128* rim, size_t n);
  void (*fp2_sub)(const u128* are, const u128* aim, const u128* bre,
                  const u128* bim, u128* rre, u128* rim, size_t n);

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

  // Runs one wave of a slot program: preloads the input rows, executes
  // every op over the table's own state representation, writes the output
  // rows. Each live lane's outputs are bitwise those of the same ops on
  // scalar Fp2 values. avx512 keeps the state in radix-2^52 limbs for the
  // whole call and squares with two F_p products; generic and avx2 keep
  // canonical u128 and call their fp2 kernels per op (kSqr through mul).
  void (*run_slots)(const SlotProgram& prog, const SlotWave& wave);

  // Padding group: per-op kernel calls whose n is a multiple of this stay
  // entirely on the vector path (a remainder falls back to the per-lane
  // generic loop). The MSM bucket waves (pt_addmix) pad a partial wave to a
  // multiple with copies of lane 0 and discard the padded outputs. 8 for
  // avx512; 1 means padding buys nothing (generic; avx2, whose pt_addmix
  // is generic). run_slots needs no padding: it takes the live lane count.
  // group > 1 also selects the MSM's lane-parallel bucket fold (composed
  // fp2 kernel calls, padded to a multiple of group) and its lower
  // Straus/Pippenger crossover: on the group-1 tables the composed fold
  // does not beat scalar point additions.
  int group;
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

// The canonical-u128 slot interpreter behind the generic and avx2 tables'
// run_slots: one fp2 kernel call per op over state slots laid out as
// [slot][re lanes 0..7, im lanes 0..7].
using Fp2Kernel = void (*)(const u128*, const u128*, const u128*, const u128*, u128*, u128*,
                           size_t);
void run_slots_u128(const SlotProgram& prog, const SlotWave& wave, Fp2Kernel mul,
                    Fp2Kernel add, Fp2Kernel sub);

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

#include "field/fp_lanes.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace fourq::field::lanes {

namespace {

// ---------------------------------------------------------------------------
// Generic lane kernels: flat loops over the shared inline scalar arithmetic
// (field/fp.hpp, field/fp2.hpp), so this table is the scalar golden model
// by construction. W independent elements per call give the out-of-order
// core W carry chains to overlap — the ILP a single dependent chain cannot
// expose. Inputs are canonical by the kernel contract.

inline Fp fp(u128 v) { return Fp::from_canonical_unchecked(v); }

inline void put(u128* re, u128* im, const Fp2& v) {
  *re = v.re().raw();
  *im = v.im().raw();
}

// The fp2 kernels compute an element's result before writing either
// output, so r aliasing any input array — even cross-component, e.g.
// rre == aim — stays well-defined.
void g_fp2_mul(const u128* are, const u128* aim, const u128* bre, const u128* bim,
               u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i)
    put(&rre[i], &rim[i], join_unchecked(are[i], aim[i]) * join_unchecked(bre[i], bim[i]));
}

void g_fp2_add(const u128* are, const u128* aim, const u128* bre, const u128* bim,
               u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i)
    put(&rre[i], &rim[i], join_unchecked(are[i], aim[i]) + join_unchecked(bre[i], bim[i]));
}

void g_fp2_sub(const u128* are, const u128* aim, const u128* bre, const u128* bim,
               u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i)
    put(&rre[i], &rim[i], join_unchecked(are[i], aim[i]) - join_unchecked(bre[i], bim[i]));
}

// Fused mixed addition, one lane at a time — the curve's 7M + 7A formula
// (curve/point.hpp add_mixed) on Fp2 values. Every intermediate is a full
// canonical field op, so this is the reference the vector implementations
// must match bit for bit.
void g_pt_addmix(u128* const* p, const u128* const* q, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const Fp2 X = join_unchecked(p[0][i], p[1][i]);
    const Fp2 Y = join_unchecked(p[2][i], p[3][i]);
    const Fp2 Z = join_unchecked(p[4][i], p[5][i]);
    const Fp2 t = join_unchecked(p[6][i], p[7][i]) * join_unchecked(p[8][i], p[9][i]);
    const Fp2 a = (Y - X) * join_unchecked(q[2][i], q[3][i]);  // (y-x) * ymx
    const Fp2 b = (Y + X) * join_unchecked(q[0][i], q[1][i]);  // (y+x) * xpy
    const Fp2 c = t * join_unchecked(q[4][i], q[5][i]);        // t * dt2
    const Fp2 d = Z + Z;
    const Fp2 e = b - a, f = d - c, g = d + c, h = b + a;
    put(&p[0][i], &p[1][i], e * f);  // X = e*f
    put(&p[2][i], &p[3][i], g * h);  // Y = g*h
    put(&p[4][i], &p[5][i], f * g);  // Z = f*g
    put(&p[6][i], &p[7][i], e);      // Ta = e
    put(&p[8][i], &p[9][i], h);      // Tb = h
  }
}

void g_run_slots(const SlotProgram& prog, const SlotWave& wave) {
  run_slots_u128(prog, wave, g_fp2_mul, g_fp2_add, g_fp2_sub);
}

constexpr Kernels kGeneric = {
    "generic", g_fp2_mul, g_fp2_add, g_fp2_sub, g_pt_addmix, g_run_slots, 1,
};

// ---------------------------------------------------------------------------
// Dispatch.

const Kernels* resolve_active() {
  const char* req = std::getenv("FOURQ_FP_LANES");
  const bool want_generic = req && std::strcmp(req, "generic") == 0;
  const bool want_avx2 = req && std::strcmp(req, "avx2") == 0;
  const bool want_avx512 = req && std::strcmp(req, "avx512") == 0;
  const bool want_auto = req == nullptr || std::strcmp(req, "auto") == 0;
  if (want_generic) return &kGeneric;
  if (avx512_supported() && (want_avx512 || want_auto))
    return &avx512_kernels();
  if (avx2_supported() && (want_avx2 || want_auto)) return &avx2_kernels();
  // Unknown value or unsatisfiable request: portable path, never a crash.
  return &kGeneric;
}

}  // namespace

const Kernels& generic_kernels() { return kGeneric; }

bool avx2_supported() {
#if FOURQ_LANES_AVX2_ENABLED
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool avx512_supported() {
#if FOURQ_LANES_AVX512_ENABLED
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512ifma") != 0;
#else
  return false;
#endif
}

#if !FOURQ_LANES_AVX2_ENABLED
// Generic-only build: the specialization is compiled out entirely and the
// dispatcher above can never select it.
const Kernels& avx2_kernels() { return kGeneric; }
#endif

#if !FOURQ_LANES_AVX512_ENABLED
const Kernels& avx512_kernels() { return kGeneric; }
#endif

const Kernels& active() {
  static const Kernels* table = resolve_active();
  return *table;
}

void run_slots_u128(const SlotProgram& prog, const SlotWave& wave, Fp2Kernel mul,
                    Fp2Kernel add, Fp2Kernel sub) {
  constexpr size_t kW = kWaveLanes;
  const size_t n = wave.lanes;
  u128* const st = static_cast<u128*>(wave.state);
  struct Operand {
    const u128* re;
    const u128* im;
  };
  // Gathered operands land in per-op scratch; lane l of gather row r reads
  // lane l of the slot the row names for that lane.
  u128 scratch[2][2][kW];
  auto operand = [&](uint16_t src, bool gathered, int which) -> Operand {
    if (!gathered) return {st + 2 * kW * src, st + 2 * kW * src + kW};
    const uint16_t* row = wave.gather + kW * src;
    for (size_t l = 0; l < n; ++l) {
      scratch[which][0][l] = st[2 * kW * row[l] + l];
      scratch[which][1][l] = st[2 * kW * row[l] + kW + l];
    }
    return {scratch[which][0], scratch[which][1]};
  };
  for (size_t i = 0; i < prog.n_inputs; ++i) {
    u128* d = st + 2 * kW * prog.inputs[i];
    std::copy_n(wave.in_re + kW * i, n, d);
    std::copy_n(wave.in_im + kW * i, n, d + kW);
  }
  const u128 zero[kW] = {};
  for (size_t i = 0; i < prog.n_ops; ++i) {
    const SlotOp& op = prog.ops[i];
    const Operand a = operand(op.a, op.gather & SlotOp::kGatherA, 0);
    u128* d = st + 2 * kW * op.dst;  // may be an operand's own slot
    switch (op.kind) {
      case SlotOp::kMul:
      case SlotOp::kAdd:
      case SlotOp::kSub: {
        const Operand b = operand(op.b, op.gather & SlotOp::kGatherB, 1);
        const Fp2Kernel k = op.kind == SlotOp::kMul ? mul : op.kind == SlotOp::kAdd ? add : sub;
        k(a.re, a.im, b.re, b.im, d, d + kW, n);
        break;
      }
      case SlotOp::kSqr:
        mul(a.re, a.im, a.re, a.im, d, d + kW, n);
        break;
      default:  // kConj: (re, 0 - im), the canonical negation of im
        sub(a.re, zero, zero, a.im, d, d + kW, n);
        break;
    }
  }
  for (size_t i = 0; i < prog.n_outputs; ++i) {
    const u128* s = st + 2 * kW * prog.outputs[i];
    std::copy_n(s, n, wave.out_re + kW * i);
    std::copy_n(s + kW, n, wave.out_im + kW * i);
  }
}

}  // namespace fourq::field::lanes

#include "field/fp_lanes.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

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

// Bucket chains, one bucket at a time: the curve's 7M + 7A mixed addition
// (curve/point.hpp add_mixed) on Fp2 values, once per entry. Every
// intermediate is a canonical field op, so this is the reference the
// vector implementations must match bit for bit.
void g_add_chains(u128* buckets, const u128* base, const AddChain* chains, size_t n_chains,
                  const uint32_t* entries) {
  for (size_t i = 0; i < n_chains; ++i) {
    u128* const p = buckets + kBucketWords * chains[i].bucket;
    Fp2 X = join_unchecked(p[0], p[1]), Y = join_unchecked(p[2], p[3]);
    Fp2 Z = join_unchecked(p[4], p[5]), Ta = join_unchecked(p[6], p[7]);
    Fp2 Tb = join_unchecked(p[8], p[9]);
    const uint32_t* const ent = entries + chains[i].first;
    for (uint32_t s = 0; s < chains[i].len; ++s) {
      const u128* const q = base + kBaseWords * (ent[s] >> 1);
      Fp2 xpy = join_unchecked(q[0], q[1]), ymx = join_unchecked(q[2], q[3]);
      Fp2 dt2 = join_unchecked(q[4], q[5]);
      if (ent[s] & 1) {  // -Q
        std::swap(xpy, ymx);
        dt2 = Fp2() - dt2;
      }
      const Fp2 t = Ta * Tb;
      const Fp2 a = (Y - X) * ymx;
      const Fp2 b = (Y + X) * xpy;
      const Fp2 c = t * dt2;
      const Fp2 d = Z + Z;
      const Fp2 e = b - a, f = d - c, g = d + c, h = b + a;
      X = e * f;
      Y = g * h;
      Z = f * g;
      Ta = e;
      Tb = h;
    }
    put(&p[0], &p[1], X);
    put(&p[2], &p[3], Y);
    put(&p[4], &p[5], Z);
    put(&p[6], &p[7], Ta);
    put(&p[8], &p[9], Tb);
  }
}

// The slot interpreter: canonical u128 state laid out as
// [slot][re lanes 0..7, im lanes 0..7], one fp2 kernel call per op.
void g_run_slots(const SlotProgram& prog, const SlotWave& wave) {
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
    const bool unary = op.kind == SlotOp::kSqr || op.kind == SlotOp::kConj;
    const Operand b = unary ? a : operand(op.b, op.gather & SlotOp::kGatherB, 1);
    u128* d = st + 2 * kW * op.dst;  // may be an operand's own slot
    switch (op.kind) {
      case SlotOp::kMul:
      case SlotOp::kSqr:
        g_fp2_mul(a.re, a.im, b.re, b.im, d, d + kW, n);
        break;
      case SlotOp::kAdd:
        g_fp2_add(a.re, a.im, b.re, b.im, d, d + kW, n);
        break;
      case SlotOp::kSub:
        g_fp2_sub(a.re, a.im, b.re, b.im, d, d + kW, n);
        break;
      default:  // kConj: (re, 0 - im), the canonical negation of im
        g_fp2_sub(a.re, zero, zero, a.im, d, d + kW, n);
        break;
    }
  }
  for (size_t i = 0; i < prog.n_outputs; ++i) {
    const u128* s = st + 2 * kW * prog.outputs[i];
    std::copy_n(s, n, wave.out_re + kW * i);
    std::copy_n(s + kW, n, wave.out_im + kW * i);
  }
}

constexpr Kernels kGeneric = {
    "generic", g_fp2_mul, g_fp2_add, g_fp2_sub, g_add_chains, g_run_slots, 1,
};

// ---------------------------------------------------------------------------
// Dispatch.

const Kernels* resolve_active() {
  const char* req = std::getenv("FOURQ_FP_LANES");
  const bool want_avx512 =
      req == nullptr || std::strcmp(req, "auto") == 0 || std::strcmp(req, "avx512") == 0;
  // "generic", an unknown value or an unsatisfiable request: the portable
  // path, never a crash. Any value but "auto" that does not get the table
  // it names says so once on stderr.
  const Kernels* table = want_avx512 && avx512_supported() ? &avx512_kernels() : &kGeneric;
  if (req && std::strcmp(req, "auto") != 0 && std::strcmp(req, table->name) != 0)
    std::fprintf(stderr, "field lanes: FOURQ_FP_LANES=%s is not available here; using %s\n",
                 req, table->name);
  return table;
}

}  // namespace

const Kernels& generic_kernels() { return kGeneric; }

bool avx512_supported() {
#if FOURQ_LANES_AVX512_ENABLED
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512ifma") != 0;
#else
  return false;
#endif
}

#if !FOURQ_LANES_AVX512_ENABLED
// Generic-only build: the specialization is compiled out entirely and the
// dispatcher above can never select it.
const Kernels& avx512_kernels() { return kGeneric; }
#endif

const Kernels& active() {
  static const Kernels* table = resolve_active();
  return *table;
}

}  // namespace fourq::field::lanes

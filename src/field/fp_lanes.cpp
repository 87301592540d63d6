#include "field/fp_lanes.hpp"

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

void g_mul_wide(const u128* a, const u128* b, U256* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = Fp::mul_wide(fp(a[i]), fp(b[i]));
}

void g_sqr_wide(const u128* a, U256* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = Fp::sqr_wide(fp(a[i]));
}

void g_reduce_wide(const U256* v, u128* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = Fp::reduce_wide(v[i]).raw();
}

void g_fp_mul(const u128* a, const u128* b, u128* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = (fp(a[i]) * fp(b[i])).raw();
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

void g_fp2_conj(const u128* are, const u128* aim, u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i) put(&rre[i], &rim[i], join_unchecked(are[i], aim[i]).conj());
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

constexpr Kernels kGeneric = {
    "generic", g_mul_wide, g_sqr_wide, g_reduce_wide, g_fp_mul,
    g_fp2_mul, g_fp2_add,  g_fp2_sub,  g_fp2_conj,   g_pt_addmix, 1,
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

}  // namespace fourq::field::lanes

// Datapath shapes: the wide micro-op expansion of each F_{p^2} operation,
// mirroring field/fp2.hpp (paper Alg. 2) stage for stage. expand.cpp unrolls
// the whole traced DAG through these emitters. An emitted ROM issues each
// operation on the same datapath, so a ROM that lint proves equivalent runs
// exactly these shapes on the DAG's values and inherits the DAG proof
// (cover_rom).
#pragma once

#include "analysis/range/range.hpp"
#include "field/bounds.hpp"

namespace fourq::analysis::range::detail {

// The (re, im) wide-node pair an F_{p^2} value lives in.
struct Pair {
  int re = -1;
  int im = -1;
};

// Karatsuba multiplication with lazy reduction (fp2.hpp mul_karatsuba):
//   t0 = a0*b0, t1 = a1*b1            (127x127 cores, < 2^254)
//   t2 = a0+a1, t3 = b0+b1            (lazy sums, < 2^128)
//   t5 = t0+t1                        (wide accumulator, < 2^255)
//   t6 = t2*t3                        (128x128 core, < 2^256)
//   t7 = t0-t1 (+p<<127 on borrow)    (re accumulator, < 2^254)
//   t8 = t6-t5                        (im accumulator, <= t6; Karatsuba
//                                      identity keeps it non-negative)
//   z0 = reduce_wide(t7), z1 = reduce_wide(t8)
inline Pair emit_mul(WideProgram& wp, Pair a, Pair b, int origin) {
  namespace fb = field::bounds;
  int t0 = wp.add({WideKind::kMulCore, a.re, b.re, fb::kWideProductBits,
                   InLimit::kBits127, origin, -1, "t0"});
  int t1 = wp.add({WideKind::kMulCore, a.im, b.im, fb::kWideProductBits,
                   InLimit::kBits127, origin, -1, "t1"});
  int t2 = wp.add({WideKind::kLazyAdd, a.re, a.im, fb::kLazySumBits,
                   InLimit::kNone, origin, -1, "t2"});
  int t3 = wp.add({WideKind::kLazyAdd, b.re, b.im, fb::kLazySumBits,
                   InLimit::kNone, origin, -1, "t3"});
  int t5 = wp.add({WideKind::kLazyAdd, t0, t1, fb::kWideAccumulatorBits,
                   InLimit::kNone, origin, -1, "t5"});
  int t6 = wp.add({WideKind::kMulCore, t2, t3, fb::kWideAccumulatorBits,
                   InLimit::kBits128, origin, -1, "t6"});
  int t7 = wp.add({WideKind::kAddP127, t0, t1, fb::kWideProductBits,
                   InLimit::kPShift127, origin, -1, "t7"});
  int t8 = wp.add({WideKind::kMonusSub, t6, t5, fb::kWideAccumulatorBits,
                   InLimit::kNone, origin, -1, "t8"});
  Pair z;
  z.re = wp.add({WideKind::kFold, t7, -1, fb::kCanonicalBits,
                 InLimit::kBits256, origin, -1, "z0"});
  z.im = wp.add({WideKind::kFold, t8, -1, fb::kCanonicalBits,
                 InLimit::kBits256, origin, -1, "z1"});
  return z;
}

// Component-wise Fp::operator+ — lazy sum into the 128-bit adder register,
// then the make_canonical fold (accepts < 2^128).
inline Pair emit_add(WideProgram& wp, Pair a, Pair b, int origin) {
  namespace fb = field::bounds;
  auto comp = [&](int x, int y, const char* sum_role, const char* fold_role) {
    int s = wp.add({WideKind::kLazyAdd, x, y, fb::kLazySumBits,
                    InLimit::kNone, origin, -1, sum_role});
    return wp.add({WideKind::kFold, s, -1, fb::kCanonicalBits,
                   InLimit::kBits128, origin, -1, fold_role});
  };
  return Pair{comp(a.re, b.re, "add.s0", "add.z0"), comp(a.im, b.im, "add.s1", "add.z1")};
}

// Component-wise Fp::operator- — the conditional +p needs both operands
// already canonical; the result is canonical with no fold stage.
inline Pair emit_sub(WideProgram& wp, Pair a, Pair b, int origin) {
  namespace fb = field::bounds;
  Pair z;
  z.re = wp.add({WideKind::kModSub, a.re, b.re, fb::kCanonicalBits,
                 InLimit::kCanonical, origin, -1, "sub.z0"});
  z.im = wp.add({WideKind::kModSub, a.im, b.im, fb::kCanonicalBits,
                 InLimit::kCanonical, origin, -1, "sub.z1"});
  return z;
}

// Conjugate (a, b) -> (a, -b): the real part passes through untouched, the
// imaginary part runs p - b on the adder/subtractor (canonical in, canonical
// out).
inline Pair emit_conj(WideProgram& wp, Pair a, int origin) {
  namespace fb = field::bounds;
  Pair z;
  z.re = wp.add({WideKind::kCopy, a.re, -1, 0, InLimit::kNone, origin, -1, "conj.re"});
  z.im = wp.add({WideKind::kModNeg, a.im, -1, fb::kCanonicalBits,
                 InLimit::kCanonical, origin, -1, "conj.neg"});
  return z;
}

inline Pair emit_compute(WideProgram& wp, trace::OpKind kind, Pair a, Pair b, int origin) {
  switch (kind) {
    case trace::OpKind::kMul: return emit_mul(wp, a, b, origin);
    case trace::OpKind::kAdd: return emit_add(wp, a, b, origin);
    case trace::OpKind::kSub: return emit_sub(wp, a, b, origin);
    case trace::OpKind::kConj: return emit_conj(wp, a, origin);
    default: break;
  }
  return Pair{};
}

}  // namespace fourq::analysis::range::detail

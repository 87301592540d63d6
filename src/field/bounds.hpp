// Magnitude contracts of the lazy-reduction datapath (paper Alg. 2).
//
// The redundant operand representation carries values *wide* between units
// and reduces only where Algorithm 2 demands it, so correctness rests on
// every intermediate provably fitting its stage register. This header is
// the single written form of those contracts, shared by two layers that
// must agree bit-for-bit:
//
//  * field/fp.hpp + fp2.hpp — the C++ golden model whose operations realise
//    the transfer semantics (mul_wide < 2^254, reduce_wide accepts < 2^256,
//    canonical results in [0, p));
//  * analysis/range — the abstract-interpretation pass that *proves* the
//    widths statically, for all inputs, on every scheduled program
//    (docs/ANALYSIS.md, `fourqc lint --ranges`); its concrete interpreter
//    eval_wide asserts every stage register's width on each run.
//
// Per-site transfer annotations (u = unreduced / lazy, c = canonical):
//
//   site                       operands          result magnitude   register
//   ------------------------   ---------------   ----------------   --------
//   Fp::mul_wide (t0, t1)      < 2^127           <= a*b < 2^254     254 bits
//   lazy sum t2, t3            c                 <= a+b < 2^128     128 bits
//   lazy sum t5 = t0+t1        u254              < 2^255            256 bits
//   mul128x128 t6 = t2*t3      < 2^128           < 2^256            256 bits
//   t7 = t0-t1 (+p<<127)       t1 <= p*2^127     < 2^254            254 bits
//   t8 = t6-t5 (Karatsuba      t6 >= t5 by the   <= t6 < 2^256      256 bits
//        middle term)          product identity
//   Fp::reduce_wide (t9/t10)   < 2^256           canonical          127 bits
//   Fp::operator+ fold         sum < 2^128       canonical          127 bits
//   Fp::operator- / negate     c                 canonical          127 bits
#pragma once

namespace fourq::field::bounds {

// p = 2^127 - 1: canonical elements occupy [0, p), i.e. 127 bits.
inline constexpr int kCanonicalBits = 127;

// Unreduced 128-bit adder register for the lazy sums t2/t3 and the
// pre-fold accumulator of Fp::operator+ (a + b <= 2p - 2 < 2^128).
inline constexpr int kLazySumBits = 128;

// Full-width F_p product registers t0/t1 (and the re-accumulator t7).
inline constexpr int kWideProductBits = 254;

// The widest values in the datapath: t6 = t2*t3 < 2^256 and
// t8 = t6 - (t0 + t1), both reduced by Fp::reduce_wide.
inline constexpr int kWideAccumulatorBits = 256;

}  // namespace fourq::field::bounds

// Scalar decomposition and signed recoding (paper Alg. 1, steps 3–5).
//
// Decomposition: the paper uses FourQ's endomorphism-based 4-way
// decomposition; we use the structurally identical 4x64-bit radix-2^64
// split k = a1 + 2^64 a2 + 2^128 a3 + 2^192 a4 (see DESIGN.md §2). Both
// yield four 64-bit multi-scalars consumed by the same recoding and the
// same 64-iteration main loop.
//
// Recoding: GLV-SAC / mLSB-set representation. With a1 odd, a1 has the
// unique signed all-nonzero expansion a1 = sum_{i=0}^{64} s_i 2^i with
// s_i ∈ {±1}, s_64 = +1, and each other scalar a_j is re-expressed with
// digits b_i^{(j)} ∈ {0,1} such that a_j = sum b_i^{(j)} s_i 2^i. The loop
// then computes sum_i s_i 2^i T[v_i] with v_i = b_i^{(2)} + 2 b_i^{(3)} +
// 4 b_i^{(4)} — exactly lines 6–10 of the paper's Algorithm 1.
#pragma once

#include <array>
#include <cstdint>

#include "common/u256.hpp"

namespace fourq::curve {

inline constexpr int kDigits = 65;  // d_64 ... d_0

struct Decomposition {
  std::array<uint64_t, 4> a{};  // a1..a4 with a[0] forced odd
  bool k_was_even = false;      // true -> caller must subtract P at the end
};

// Splits k into four 64-bit scalars. If k is even, decomposes k+1 and sets
// k_was_even so the caller applies the uniform -P correction (the schedule
// must be input-independent, so the correction addition always executes;
// only the operand selection differs).
Decomposition decompose(const U256& k);

struct RecodedScalar {
  std::array<uint8_t, kDigits> digit{};  // v_i ∈ [0, 7]
  std::array<int8_t, kDigits> sign{};    // s_i ∈ {-1, +1}; sign[64] == +1
};

// Requires a[0] odd. Postcondition (tested exhaustively):
//   a[0]      == sum_i sign[i] * 2^i
//   a[j]      == sum_i bit_j(digit[i]) * sign[i] * 2^i   (j = 1, 2, 3)
RecodedScalar recode(const std::array<uint64_t, 4>& a);

}  // namespace fourq::curve

// FourQ curve parameters (paper §II-B).
//
// The curve is E/F_{p^2}: -x^2 + y^2 = 1 + d x^2 y^2 with p = 2^127 - 1 and
// the constant d printed in the paper (eq. 1). d is therefore authoritative.
//
// The prime subgroup order N and the standard generator are NOT printed in
// the paper (they live in Costello–Longa / FourQlib). The candidate values
// below are validated at runtime by validate_params(); higher layers that
// need them (the Schnorr signature scheme) call fourq_params() which checks
// once and caches. Scalar multiplication itself never depends on them — see
// DESIGN.md §2 on the decomposition substitution.
#pragma once

#include "common/u256.hpp"
#include "field/fp2.hpp"

namespace fourq::curve {

using field::Fp;
using field::Fp2;

// Curve constant d = 4205857648805777768770 + 125317048443780598345676279555970305165*i
// (paper eq. 1, decimal; hex below — a unit test pins hex == decimal).
const Fp2& curve_d();

// 2*d, precomputed for the R2 representation (X+Y, Y-X, 2Z, 2dT).
const Fp2& curve_2d();

// Candidate prime order of the large subgroup (#E = 2^3 * 7^2 * N).
const U256& candidate_subgroup_order();

// The cofactor h = #E / N = 2^3 * 7^2. [h]P lies in the order-N subgroup
// for every curve point P, so cofactored checks ([h]X == O) ignore any
// small-order component of X.
inline constexpr uint64_t kCofactor = 392;

// Candidate standard generator (affine).
const Fp2& candidate_generator_x();
const Fp2& candidate_generator_y();

struct ParamValidation {
  bool generator_on_curve = false;
  bool generator_order_n = false;  // [N]G == O
  bool n_odd_246_bits = false;
  bool all_ok() const { return generator_on_curve && generator_order_n && n_odd_246_bits; }
};

// Runs the validation suite for the candidate constants. Cheap enough to run
// in tests; cached by fourq_params().
ParamValidation validate_params();

}  // namespace fourq::curve

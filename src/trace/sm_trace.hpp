// Construction of the full scalar-multiplication microinstruction trace
// (paper Alg. 1 executed under the tracing field type — §III-C steps 1-2).
//
// The traced programs run the same Alg. 1 phases as the software path
// (curve/scalarmul.hpp's templates, on Fp2Var), plus the datapath-only
// pieces declared at the end of this header: the kPaperCost stand-ins,
// the table's register layout, the digit-addressed and correction reads,
// and the Fermat-chain normalisation. build_sm_trace, build_dual_sm_trace
// and the looped controller's segments (asic/looped.hpp) share them.
//
// Two program variants (DESIGN.md §2):
//  * kFunctional — the auxiliary points [2^64]P, [2^128]P, [2^192]P are
//    computed by 192 traced doublings. The program's outputs equal the real
//    [k]P for every scalar; this variant anchors end-to-end correctness.
//  * kPaperCost — the auxiliary-point phase uses endomorphism-shaped
//    formula stand-ins (tau / phi-hat / psi-hat composition with placeholder
//    curve constants) whose operation counts match the Costello–Longa
//    formulas, reproducing the paper's program length and therefore its
//    cycle counts. Outputs are checked against the trace interpreter, not
//    against curve arithmetic.
//
// Either way the traced instruction *sequence* is scalar-independent; only
// operand selection (digit-addressed table reads, even-k correction) is
// runtime-resolved, exactly as the paper's FSM does.
#pragma once

#include <array>

#include "curve/point.hpp"
#include "trace/eval.hpp"
#include "trace/ir.hpp"
#include "trace/tracer.hpp"

namespace fourq::trace {

enum class EndoVariant {
  kFunctional,  // 192 doublings; end-to-end correct
  kPaperCost,   // CL-formula-shaped stand-in; paper-faithful op counts
};

struct SmTraceOptions {
  EndoVariant endo = EndoVariant::kFunctional;
  // Include the final projective->affine normalisation (Fermat inversion).
  bool include_inversion = true;
  // Trip count of the main double-and-add loop (= number of recoded digits).
  // Default matches FourQ (65 digits -> 64 doublings).
  int digits = 65;
};

struct SmTrace {
  Program program;
  // Input op ids to bind at evaluation time.
  int in_px = -1;       // base point x
  int in_py = -1;       // base point y
  int in_zero = -1;     // constant 0
  int in_one = -1;      // constant 1
  int in_two_d = -1;    // constant 2d
  std::vector<int> in_endo_consts;  // placeholder constants (kPaperCost only)
  SmTraceOptions options;
};

SmTrace build_sm_trace(const SmTraceOptions& opt);

// Binds the standard inputs of an SM program over base point `base`: the
// constants 0, 1 and 2d, the base point, and the kPaperCost placeholder
// constants (3+i, 7+i). `Prog` is an SmTrace, an asic::LoopedSm or an
// engine::CompiledProgram. `out` is cleared first and keeps its capacity,
// so a reused vector allocates nothing after the first call.
template <typename Prog>
void bind_sm_inputs(const Prog& prog, const curve::Affine& base, InputBindings& out) {
  out.clear();
  out.emplace_back(prog.in_zero, field::Fp2());
  out.emplace_back(prog.in_one, field::Fp2::from_u64(1));
  out.emplace_back(prog.in_two_d, curve::curve_2d());
  out.emplace_back(prog.in_px, base.x);
  out.emplace_back(prog.in_py, base.y);
  for (size_t i = 0; i < prog.in_endo_consts.size(); ++i)
    out.emplace_back(prog.in_endo_consts[i], field::Fp2::from_u64(3 + i, 7 + i));
}

// Dual-stream throughput program: TWO independent scalar multiplications
// traced into one program and scheduled together, so the second stream
// fills the first's idle multiplier slots. Inputs: shared constants plus a
// base point per stream; outputs "x0"/"y0" and "x1"/"y1". The runtime
// digits of stream 1 come from EvalContext::recoded2 / k2_was_even.
struct DualSmTrace {
  Program program;
  std::array<int, 2> in_px{-1, -1}, in_py{-1, -1};
  int in_zero = -1, in_one = -1, in_two_d = -1;
  std::vector<int> in_endo_consts;
};
DualSmTrace build_dual_sm_trace(const SmTraceOptions& opt);

// Standalone single loop-body trace (one doubling + one table addition on
// symbolic inputs) — the block scheduled in the paper's Table I / Fig 2(b).
struct LoopBodyTrace {
  Program program;
  std::vector<int> q_inputs;      // Qx, Qy, Qz, Ta, Tb
  std::vector<int> table_inputs;  // xpy, ymx, z2, dt2 of the selected entry
};
LoopBodyTrace build_loop_body_trace();

// --- Datapath pieces of Alg. 1, shared with asic/looped.cpp ---------------

using TR1 = curve::R1T<Fp2Var>;
using TR2 = curve::R2T<Fp2Var>;

// The kPaperCost stand-in's six placeholder curve constants: inputs
// "endo.c0".."endo.c5", their op ids appended to `ids`.
using EndoConsts = std::array<Fp2Var, 6>;
EndoConsts endo_inputs(Tracer& t, std::vector<int>& ids);

// Phase 1: curve::aux_points (192 doublings) when `endo` is null
// (kFunctional), else the tau / phi-hat / psi-hat stand-ins on its
// constants (kPaperCost).
std::array<TR1, 3> aux_points(Tracer& t, const TR1& p, const EndoConsts* endo);

// The 8-entry table as the datapath reads it: each entry's R2 coordinates
// plus its negated 2dT, computed once so that a negative digit costs no op.
struct TableCols {
  std::vector<Fp2Var> xpy, ymx, z2, dt2, ndt2;
};
TableCols table_cols(Tracer& t, const std::array<TR1, 8>& table, const Fp2Var& zero,
                     const Fp2Var& two_d);

// Digit `iter`'s signed table entry as four digit-addressed reads: T[v]
// for sign +1, -T[v] = (ymx, xpy, z2, ndt2) for sign -1. `iter` is the
// digit index (plus kStream2IterBase on a dual program's second stream) or
// a loop-counter sentinel; `tag` ends the four labels.
TR2 digit_read(Tracer& t, const TableCols& c, int iter, const std::string& tag);

// The even-k correction operand as four reads of `if_odd` or `if_even`,
// chosen by `stream`'s k_was_even.
TR2 correction_read(Tracer& t, const TR2& if_odd, const TR2& if_even, int stream);

// Phase 5: the affine (x, y) of q by one F_{p^2} inversion on the
// datapath: conjugate, norm, F_p Fermat chain.
std::array<Fp2Var, 2> normalise(Tracer& t, const TR1& q);

}  // namespace fourq::trace

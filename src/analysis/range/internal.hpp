// Internal interfaces of the range verifier: the transfer functions and the
// forward propagation core shared by the DAG pass and certificate replay
// (analyze.cpp). Not part of the public API.
#pragma once

#include "analysis/internal.hpp"
#include "analysis/range/range.hpp"

namespace fourq::analysis::range::detail {

using analysis::detail::FindingSink;

// Reporting context for one propagation run. `sink == nullptr` silences
// findings (fixed-point iterations report nothing; only the final pass
// does). `stats` may be null.
struct PropagateCtx {
  FindingSink* sink = nullptr;
  RangeStats* stats = nullptr;
  // Rule substituted for contract violations during certificate replay:
  // a claimed bound that breaks a contract is a bad certificate, not a
  // (re-)discovered overflow.
  bool cert_replay = false;

  void report(Rule rule, int node, const std::string& message);
};

// The transfer function: result bound of `op` from operand bounds `a`/`b`,
// checking every site contract (operand limits, result register width) and
// clamping violating bounds to the contract value so one defect produces
// one finding instead of a cascade. kInput/kJoin are resolved by the
// caller; passing them here is a programming error (returns Top).
Bound transfer(const WideOp& op, int node, const Bound& a, const Bound& b,
               PropagateCtx& ctx);

// One forward pass over the whole program in SSA order. `bounds` must be
// pre-sized to wp.ops.size(); kInput nodes keep their existing entry, every
// other node is recomputed. Join candidates with unequal bounds report
// select-bound-divergence (final pass only).
void propagate(const WideProgram& wp, std::vector<Bound>& bounds, PropagateCtx& ctx);

}  // namespace fourq::analysis::range::detail

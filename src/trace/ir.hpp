// Microinstruction IR for the F_{p^2} datapath (paper §III-C, step 2).
//
// Executing the scalar-multiplication program with the tracing value type
// (trace::Fp2Var) records every F_{p^2} operation into a Program: an SSA
// DAG whose nodes are the microinstructions the hardware will execute and
// whose leaves are register-file inputs. This is the C++ equivalent of the
// paper's Python execution-trace recording.
//
// Scalar-dependent behaviour is confined to *operand selection* (which of
// the 8 table entries an addition reads, and with which sign), never to
// control flow — the instruction sequence is fixed, as required for an FSM
// with a program ROM. Selected operands are modelled by SelectTable: a set
// of candidate SSA values plus a runtime selector (recoded digit + sign, or
// the even-k correction flag).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.hpp"

namespace fourq::trace {

enum class OpKind : uint8_t {
  kInput,   // register-file resident leaf (point coordinates, constants)
  kSelect,  // runtime-indexed operand read (digit-addressed table access);
            // pure register-file addressing, folded into the consumer
  kAdd,     // F_{p^2} adder/subtractor unit
  kSub,     //
  kConj,    // unary conjugate (a, b) -> (a, -b); runs on the adder/subtractor
  kMul,     // F_{p^2} multiplier unit
};

inline bool is_addsub(OpKind k) {
  return k == OpKind::kAdd || k == OpKind::kSub || k == OpKind::kConj;
}
inline bool is_compute(OpKind k) { return k != OpKind::kInput && k != OpKind::kSelect; }

// How a selected operand resolves its index at run time.
enum class SelKind : uint8_t {
  kNone,        // plain SSA reference
  kDigitTable,  // candidates[sign][digit] with (sign, digit) from iteration i
  kCorrection,  // candidates[0][k_even ? 1 : 0]
};

// Sentinel `iter` values for kDigitTable operands whose digit index comes
// from the sequencer's loop counter instead of a fixed position — used by
// the blocked/looped controller, where one scheduled body is replayed per
// digit group. kIterFromCounter reads the counter's digit itself; the
// family kIterFromCounter - o (o = 1, 2, ...) reads `o` digits below the
// counter, enabling unrolled bodies that consume several digits per replay.
inline constexpr int kIterFromCounter = -2;
inline constexpr int kMaxCounterOffset = 63;

inline bool is_counter_iter(int iter) {
  return iter <= kIterFromCounter && iter >= kIterFromCounter - kMaxCounterOffset;
}
inline int counter_offset(int iter) { return kIterFromCounter - iter; }
inline int counter_iter_with_offset(int offset) { return kIterFromCounter - offset; }

// Iteration-index offset marking the second scalar stream's digit reads in
// dual-stream (throughput) programs: iter in [kStream2IterBase, 2*base)
// resolves against the second recoded scalar.
inline constexpr int kStream2IterBase = 65;  // == curve::kDigits

struct Operand {
  SelKind sel = SelKind::kNone;
  int ssa = -1;    // producer op id (sel == kNone)
  int table = -1;  // index into Program::tables (sel != kNone)
  int iter = -1;   // digit index for kDigitTable

  static Operand of(int id) { return Operand{SelKind::kNone, id, -1, -1}; }
};

struct Op {
  OpKind kind = OpKind::kInput;
  // For compute ops: SSA operands (b unused for kConj). For kSelect: `a`
  // carries the SelKind/table/iter descriptor. Unused for kInput.
  Operand a, b;
  std::string label;
};

struct SelectTable {
  // candidates[variant][index]: op ids. For kDigitTable, variant 0 is the
  // positive-sign read and variant 1 the negative-sign read (the sign swap /
  // negated-dt2 trick); index is the recoded digit in [0, 8).
  std::vector<std::vector<int>> candidates;
};

struct Program {
  std::vector<Op> ops;
  std::vector<SelectTable> tables;
  std::vector<std::pair<int, std::string>> outputs;  // op id, name
  int iterations = 0;  // number of digit positions referenced

  int add_op(const Op& op) {
    ops.push_back(op);
    return static_cast<int>(ops.size()) - 1;
  }
};

struct OpStats {
  int muls = 0;
  int addsubs = 0;
  int inputs = 0;
  int total_arithmetic() const { return muls + addsubs; }
  double mul_fraction() const {
    int t = total_arithmetic();
    return t == 0 ? 0.0 : static_cast<double>(muls) / t;
  }
};

OpStats count_ops(const Program& p);

// Structural validation: operand ids in range and pointing backwards (SSA
// order), select tables well-formed, outputs resolvable. Throws on error.
void validate(const Program& p);

// FNV-1a digest of the op stream: every op's kind and operands in emission
// order, the select tables, the outputs (id and name) and the iteration
// count. Op labels stay out. `f` may carry a prefix: the compile cache
// hashes its key first and stores the result in each disk ROM.
uint64_t fingerprint(const Program& p, Fnv1a f = {});

}  // namespace fourq::trace

// Abstract-interpretation range verifier for the lazy-reduction datapath.
//
// `fourqc lint` (analysis/lint.hpp) proves that an emitted ROM computes the
// reference DAG and does so in constant time — but both proofs treat each
// F_{p^2} operation as an opaque node. The *inside* of those nodes is the
// paper's whole trick: operands travel unreduced between units and are
// Mersenne-folded only where Algorithm 2 demands it, which is correct only
// if every intermediate provably fits its stage register
// (field/bounds.hpp) for all inputs. This subsystem closes that gap:
//
//  1. Each traced op is expanded into the wide micro-ops of its datapath
//     realisation (WideProgram): the two 127x127 products t0/t1, the lazy
//     sums t2/t3/t5, the 128x128 product t6, the p<<127 correction t7, the
//     Karatsuba middle term t8, and the reduce_wide/canonicalise folds.
//  2. An exact magnitude bound (Bound: an inclusive U512 maximum, or Top)
//     is propagated forward over the micro-ops. Select joins take the
//     maximum over all candidates, so the result holds for every digit
//     value. Loop-carried bounds are iterated to a fixed point with
//     widening (AnalyzeOptions::carried).
//  3. An emitted ROM inherits the proof of the program it was compiled
//     from (cover_rom): lint_rom's equivalence says it computes exactly
//     that program's values through the same shapes (shape.hpp).
//
// Violations surface as fourq.lint.v1 findings (overflow-possible,
// reduce-missing, reduce-redundant, bound-widening-loop,
// select-bound-divergence, range-unbounded, range-cert-invalid); a clean
// run yields a machine-checkable fourq.ranges.v1 certificate with per-node
// bound provenance (ranges_json / check_certificate).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "common/u256.hpp"
#include "trace/ir.hpp"

namespace fourq::analysis::range {

// --- abstract domain -------------------------------------------------------

// Exact inclusive upper bound on a value's magnitude, or Top (no finite
// bound). U512 is wide enough for every expressible product: operands are
// clamped to their site contract (< 2^256) before multiplication.
struct Bound {
  U512 max{};
  bool top = false;

  static Bound exact(const U512& m) { return Bound{m, false}; }
  static Bound exact256(const U256& m) { return Bound{U512(m), false}; }
  static Bound of_u64(uint64_t m) { return Bound{U512(U256(m)), false}; }
  // The canonical-element contract: max = p - 1.
  static Bound canonical();
  static Bound unbounded() { return Bound{U512{}, true}; }

  // Smallest w such that max < 2^w (0 for the zero bound, 513 for Top).
  int bits() const;
  bool fits_bits(int w) const;

  friend bool operator==(const Bound& a, const Bound& b) {
    return a.top == b.top && (a.top || a.max == b.max);
  }
  friend bool operator!=(const Bound& a, const Bound& b) { return !(a == b); }
};

Bound badd(const Bound& a, const Bound& b);   // bound of x + y
Bound bmul(const Bound& a, const Bound& b);   // bound of x * y
Bound bjoin(const Bound& a, const Bound& b);  // max (lattice join)

// Shared magnitude constants (see field/bounds.hpp for the contract table).
const U512& canonical_max();  // p - 1
const U512& pshift127();      // p * 2^127, the t7 non-negativity threshold
U512 bits_max(int w);         // 2^w - 1

// --- wide micro-op IR ------------------------------------------------------

// One micro-op of the expanded datapath. Unary kinds leave b = -1.
enum class WideKind : uint8_t {
  kInput,     // leaf; bound defaults to canonical (AnalyzeOptions overrides)
  kJoin,      // select: join over WideProgram::joins[join] candidates
  kCopy,      // alias (conjugate real part)
  kLazyAdd,   // unreduced sum held in a `width`-bit register
  kMulCore,   // hardware multiplier core; operands must fit `limit`
  kAddP127,   // t7 = a - b, +p<<127 when negative; needs b <= p*2^127
  kMonusSub,  // t8 = a - b with a >= b by the Karatsuba product identity
  kFold,      // reduce site: Mersenne fold + canonicalise into [0, p)
  kModSub,    // canonical subtract (operands must already be canonical)
  kModNeg,    // canonical negate (operand must already be canonical)
};

// Operand magnitude precondition at a micro-op site.
enum class InLimit : uint8_t {
  kNone,
  kCanonical,  // <= p - 1: value must already be reduced
  kBits127,    // < 2^127: the multiplier-core operand width
  kBits128,    // < 2^128: the lazy-sum register width
  kBits256,    // < 2^256: the reduce_wide input width
  kPShift127,  // <= p*2^127: keeps the t7 correction non-negative
};

const char* wide_kind_name(WideKind k);

struct WideOp {
  WideKind kind = WideKind::kInput;
  int a = -1, b = -1;             // operand node ids (SSA order)
  int width = 0;                  // result register width in bits (0 = none)
  InLimit limit = InLimit::kNone; // operand precondition
  int origin = -1;                // trace op this micro-op expands
  int join = -1;                  // joins[] index for kJoin
  const char* role = "";          // datapath stage name ("t0".."t8", ...)
};

struct WideProgram {
  std::vector<WideOp> ops;
  std::vector<std::vector<int>> joins;  // kJoin candidate node lists

  int add(const WideOp& op) {
    ops.push_back(op);
    return static_cast<int>(ops.size()) - 1;
  }
};

// Expansion of a traced program: the micro-op DAG plus, per trace op, the
// (re, im) component node ids its value lives in.
struct ExpandResult {
  WideProgram wide;
  std::vector<std::pair<int, int>> op_nodes;  // trace op id -> (re, im)
};

ExpandResult expand_program(const trace::Program& p);

// --- analysis --------------------------------------------------------------

struct RangeOptions {
  // Loop-carried value pairs as *trace op ids*: bounds of `source` feed back
  // into input `input` on the next iteration (loop body q state).
  std::vector<std::pair<int, int>> carried;  // (input op, source op)
  int max_iterations = 16;  // fixed-point iteration budget
  int widen_after = 4;      // iterations before a growing bound widens to Top
  // Per-input overrides as wide-node bounds (defaults: canonical).
  std::vector<std::pair<int, Bound>> input_bounds;
};

struct RangeStats {
  int reduce_sites = 0;       // kFold micro-ops checked
  int redundant_reduces = 0;  // folds whose operand was already canonical
  int widened = 0;            // carried inputs widened to Top
};

struct RangeResult {
  std::vector<Bound> bounds;  // per wide node, the proven fixed point
  RangeStats stats;
  int max_bits = 0;           // widest finite bound proven (bits)
  bool proven = false;        // this pass raised no error-severity finding
};

// DAG-side analysis of one reference program: expand, propagate to a fixed
// point, check every stage contract. Appends findings to `report` (through
// the standard per-rule-capped sink) and fills its range_* summary fields.
struct ProgramRanges {
  ExpandResult expand;
  RangeResult result;
};

ProgramRanges analyze_program(const trace::Program& p, const RangeOptions& opt,
                              LintReport& report);

// Low-level entry point (seeded-defect tests build WideProgram by hand):
// propagate over an already-expanded program. `carried` pairs here are wide
// node ids.
RangeResult analyze_wide(const WideProgram& wp, const RangeOptions& opt,
                         const std::vector<std::pair<int, int>>& carried_nodes,
                         LintReport& report);

// Gives a linted ROM the verdict of the DAG proof of its reference program.
// When lint_rom found the ROM equivalent, every issue's value number is in
// the DAG, every select candidate and output register holds the DAG's
// value, and each issue runs the DAG's shape on equal operand bounds; so by
// induction over issue order every ROM-side bound is the DAG bound of the
// same value. Sets rom's range_* summary from `dag`, with ranges_proven iff
// the DAG proof is proven and rom.equivalent.
void cover_rom(const ProgramRanges& dag, LintReport& rom);

// --- certificate -----------------------------------------------------------

// fourq.ranges.v1: self-describing JSON with one entry per analysed program
// and per-node bound provenance (operands, stage role, register width,
// bound, slack) so an external checker can replay every local derivation.
struct CertEntry {
  std::string label;
  const ProgramRanges* ranges = nullptr;
};

std::string ranges_json(const std::vector<CertEntry>& entries);

// Replays the certificate: every non-leaf bound must dominate the transfer
// of its operand bounds, every carried input must dominate its source (the
// fixed-point condition), and every stage contract must hold. Tampered or
// unsound bounds produce range-cert-invalid findings. Returns true when the
// certificate replays cleanly.
bool check_certificate(const ProgramRanges& pr, const RangeOptions& opt,
                       LintReport& report);

// --- differential oracle (tests) -------------------------------------------

// Concrete big-integer interpreter over the micro-ops, mirroring the
// datapath semantics exactly (same folds, same correction adds). `pick[j]`
// selects the candidate of join j. Throws std::logic_error when an executed
// value breaks a stage invariant the hardware relies on.
// Tests use it to validate bound soundness against random executions and
// to cross-check the micro-op semantics against field::Fp2.
std::vector<U512> eval_wide(const WideProgram& wp,
                            const std::vector<std::pair<int, U512>>& inputs,
                            const std::vector<int>& pick);

}  // namespace fourq::analysis::range

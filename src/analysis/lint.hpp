// Static microcode verifier (the "lint" pass of the design flow).
//
// `sched/validate` checks the *Schedule* object before emission and the
// cycle-accurate simulator checks one concrete execution after it; this
// subsystem closes the remaining gap: it proves properties of the *emitted
// control ROM itself*, without running the simulator and without trusting
// the emitter.  Three cooperating analyses over a `sched::CompiledSm`:
//
//  1. ROM lifting + SSA equivalence (lift.cpp).  The ROM is symbolically
//     executed cycle by cycle — register file, unit pipelines and
//     forwarding buses hold value numbers instead of field elements — and
//     the recovered dataflow graph is checked, by hash-consed value
//     numbering, against the traced `trace::Program` DAG.  Register-
//     allocation clobbers, WAR/WAW violations, retargeted reads and
//     forwarding mistakes all surface as alien values, missing values or
//     output mismatches.
//
//  2. Liveness and port legality (liveness.cpp).  Re-derives, from the ROM
//     alone, per-cycle read/write port usage, issue-width and initiation-
//     interval legality, per-register live ranges (a digit-addressed read
//     keeps *every* candidate of its select map live), dead-write and
//     never-read diagnostics, and the register-pressure profile.
//
//  3. Secret-independence taint (lift.cpp).  The recoded digits/signs and
//     the even-k correction flag are the secrets.  In this ROM format the
//     instruction sequence, issue timing and every register address are
//     compile-time constants, so the only way a secret can influence
//     execution is through `SrcSel::kIndexed` operand addressing.  The
//     verifier checks that every such read is uniform across all digit
//     values — same port cost, every candidate register defined and
//     holding exactly the value the reference DAG expects — and tracks the
//     taint of select results through the dataflow.  A ROM that passes
//     carries a machine-checked constant-time certificate.
//
// Findings carry a severity and a stable kebab-case rule name; good ROMs
// produce zero error-severity findings (warnings such as dead writes are
// advisory).  `lint_json` emits the self-describing `fourq.lint.v1`
// document; `record_lint_metrics` feeds `lint.*` counters into the obs
// registry.
#pragma once

#include <string>
#include <vector>

#include "sched/microcode.hpp"
#include "sched/modulo.hpp"
#include "trace/ir.hpp"

namespace fourq::analysis {

enum class Severity : uint8_t { kInfo = 0, kWarning, kError };

const char* severity_name(Severity s);  // "info", "warning", "error"

// Diagnostic classes.  Stable names (see rule_name) are part of the
// fourq.lint.v1 schema; add new rules at the end, and never reuse a retired
// name (dag-rom-bound-mismatch).
enum class Rule : uint8_t {
  // -- lifting / structural --
  kRegisterOutOfRange = 0,  // control word names a register >= rf_size
  kInstanceOutOfRange,      // issue/writeback names a missing unit instance
  kUndefinedRead,           // kReg read of a register holding no value
  kForwardingBusEmpty,      // bus operand at a cycle with no completing op
  kPipelineCollision,       // two in-flight results due on one instance
  kWritebackNoResult,       // writeback with nothing completing
  kResultDropped,           // completed result neither written back nor kept
  kPreloadConflict,         // two inputs preloaded into one register
  // -- SSA equivalence --
  kAlienValue,              // ROM computes a value absent from the trace DAG
  kMissingValue,            // trace DAG value never computed by the ROM
  kOutputMismatch,          // output register holds the wrong value
  kOutputMissing,           // trace output name absent from the ROM
  // -- port / issue legality --
  kReadPortOverflow,
  kWritePortOverflow,
  kIssueWidthOverflow,
  kInitiationInterval,
  // -- secret independence --
  kSelectShapeMismatch,     // select map shape differs from the trace table
  kSelectCandidateUndefined,// some digit would read an undefined register
  kSelectCandidateMismatch, // some digit would read the wrong value
  // -- liveness (advisory) --
  kDeadWrite,               // value written and never read before overwrite
  kNeverReadRegister,       // register defined but never used at all
  // -- modulo steady-state --
  kModuloInfeasible,
  kModuloInvalid,
  // -- range verification (analysis/range, `fourqc lint --ranges`) --
  kOverflowPossible,        // a bound exceeds its stage register width
  kReduceMissing,           // unreduced value reaches a canonical-only site
  kReduceRedundant,         // reduction of an already-canonical value
  kBoundWideningLoop,       // carried bound found no finite fixed point
  kSelectBoundDivergence,   // select candidates carry unequal bounds
  kRangeUnbounded,          // Top bound reaches a width-checked site
  kRangeCertInvalid,        // fourq.ranges.v1 certificate fails replay
};
inline constexpr int kNumRules = 30;

const char* rule_name(Rule r);     // kebab-case, e.g. "ssa-alien-value"
const char* rule_meaning(Rule r);  // one-line definition
Severity rule_severity(Rule r);

struct Finding {
  Rule rule = Rule::kUndefinedRead;
  Severity severity = Severity::kError;
  int cycle = -1;  // ROM cycle, -1 = program-wide
  int reg = -1;    // register-file slot, -1 = n/a
  int node = -1;   // wide micro-op node (range rules), -1 = n/a
  std::string message;
};

struct PressurePoint {
  int cycle = 0;
  int live = 0;
};

struct LintReport {
  std::vector<Finding> findings;

  // False for a report that lints no ROM (the DAG-side range proof): only
  // its range summary and findings mean anything, and the renderers below
  // emit only those.
  bool rom = true;

  // Lifting / equivalence summary.
  int cycles = 0;
  int lifted_ops = 0;    // issues recovered from the ROM
  int matched_ops = 0;   // lifted ops whose value number is in the trace DAG
  bool equivalent = false;     // SSA equivalence proven end to end
  // Taint summary.
  int indexed_reads = 0;       // digit/correction-addressed operand reads
  int tainted_values = 0;      // values data-dependent on a secret selector
  bool constant_time = false;  // secret-independence certificate
  // Liveness summary.
  int peak_live = 0;
  int peak_live_cycle = -1;
  int dead_writes = 0;
  int never_read_regs = 0;
  int max_reads_in_cycle = 0;
  int max_writes_in_cycle = 0;
  // Range-verification summary (zero unless `fourqc lint --ranges` ran).
  int range_nodes = 0;         // wide micro-ops analysed
  int range_reduce_sites = 0;  // fold sites whose operand contract was checked
  int range_max_bits = 0;      // widest finite bound proven anywhere
  int range_widened = 0;       // carried bounds widened to Top
  bool ranges_checked = false; // the range pass ran on this program
  bool ranges_proven = false;  // overflow-freedom proven (no range errors)

  int errors() const;
  int warnings() const;
  bool ok() const { return errors() == 0; }
};

// Caps cascade noise: per rule at most this many findings are recorded, then
// one summary finding reports the suppressed remainder.
inline constexpr int kMaxFindingsPerRule = 25;

// Statically verifies the emitted ROM against the traced reference program
// it was compiled from.  Runs all three analyses; never throws on a bad ROM
// (every defect becomes a finding).
LintReport lint_rom(const sched::CompiledSm& sm, const trace::Program& reference);

// Steady-state lint of a modulo schedule (no ROM is emitted for these; the
// kernel is re-validated against unit occupancy and carried dependences).
LintReport lint_modulo(const sched::Problem& pr,
                       const std::vector<sched::CarriedDep>& carried,
                       const sched::ModuloOptions& opt = {});

// One linted program for report assembly ("loop/seq", "sm/list", ...).
struct LintedProgram {
  std::string label;
  LintReport report;
};

// Machine-readable fourq.lint.v1 document (self-describing: embeds the rule
// vocabulary next to the findings).
std::string lint_json(const std::vector<LintedProgram>& programs);

// Human-readable summary (one block per program, findings listed).
std::string lint_text(const std::vector<LintedProgram>& programs);

// Feeds lint.* counters/gauges into the global obs metrics registry under
// "lint.<label>.*" plus the cross-program totals "lint.errors" etc.
void record_lint_metrics(const std::string& label, const LintReport& r);

}  // namespace fourq::analysis

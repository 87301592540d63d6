// Rule vocabulary, finding sink, lint drivers, and the fourq.lint.v1
// report writers.
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/internal.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace fourq::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

namespace {

struct RuleMeta {
  const char* name;
  const char* meaning;
  Severity severity;
};

// Indexed by Rule. Names are stable identifiers in the fourq.lint.v1
// schema — never rename or reuse a retired one, only append.
constexpr RuleMeta kRuleMeta[kNumRules] = {
    {"register-out-of-range", "control word addresses a register outside the register file",
     Severity::kError},
    {"instance-out-of-range", "issue, bus or writeback names a unit instance that does not exist",
     Severity::kError},
    {"undefined-register-read", "operand reads a register that holds no value",
     Severity::kError},
    {"forwarding-bus-empty", "bus operand taken in a cycle where no result completes on that unit",
     Severity::kError},
    {"pipeline-collision", "two in-flight results would complete on one instance in the same cycle",
     Severity::kError},
    {"writeback-no-result", "writeback fires in a cycle where its unit completes nothing",
     Severity::kError},
    {"result-dropped", "a completed result is neither written back nor forwarded into the file",
     Severity::kError},
    {"preload-conflict", "input preload is invalid or clobbers an earlier preload",
     Severity::kError},
    {"ssa-alien-value", "ROM computes a value that does not exist in the reference DAG",
     Severity::kError},
    {"ssa-missing-value", "reference DAG value is never computed by the ROM",
     Severity::kError},
    {"output-mismatch", "output register does not hold the reference output value",
     Severity::kError},
    {"output-missing", "reference output name is absent from the ROM output map",
     Severity::kError},
    {"read-port-overflow", "register-file reads in one cycle exceed the configured read ports",
     Severity::kError},
    {"write-port-overflow", "writebacks in one cycle exceed the configured write ports",
     Severity::kError},
    {"issue-width-overflow", "more issues in one cycle than unit instances configured",
     Severity::kError},
    {"initiation-interval", "pipelined unit re-issued before its initiation interval elapsed",
     Severity::kError},
    {"select-shape-mismatch", "select map shape differs from the reference table",
     Severity::kError},
    {"select-candidate-undefined",
     "some digit value would read an undefined register (digit-dependent behaviour)",
     Severity::kError},
    {"select-candidate-mismatch",
     "some digit value would read the wrong value (digit-dependent result)",
     Severity::kError},
    {"dead-write", "value is written but never read before being overwritten or discarded",
     Severity::kWarning},
    {"never-read-register", "register is written but never read and is not an output",
     Severity::kWarning},
    {"modulo-infeasible", "modulo scheduler found no feasible steady-state kernel",
     Severity::kError},
    {"modulo-invalid", "modulo steady-state kernel fails re-validation",
     Severity::kError},
    {"overflow-possible",
     "a value's proven magnitude bound exceeds its datapath stage register width",
     Severity::kError},
    {"reduce-missing",
     "an unreduced value reaches a site whose contract requires a canonical operand",
     Severity::kError},
    {"reduce-redundant", "reduction applied to a value that is already canonical",
     Severity::kWarning},
    {"bound-widening-loop",
     "a loop-carried bound kept growing and was widened to Top (no finite fixed point)",
     Severity::kError},
    {"select-bound-divergence",
     "candidates of a digit-addressed read carry unequal bounds (digit-dependent magnitude)",
     Severity::kWarning},
    {"range-unbounded", "a Top (unbounded) value reaches a width-checked datapath site",
     Severity::kError},
    {"range-cert-invalid", "fourq.ranges.v1 certificate fails independent replay",
     Severity::kError},
};

}  // namespace

const char* rule_name(Rule r) { return kRuleMeta[static_cast<int>(r)].name; }
const char* rule_meaning(Rule r) { return kRuleMeta[static_cast<int>(r)].meaning; }
Severity rule_severity(Rule r) { return kRuleMeta[static_cast<int>(r)].severity; }

int LintReport::errors() const {
  int n = 0;
  for (const Finding& f : findings)
    if (f.severity == Severity::kError) ++n;
  return n;
}

int LintReport::warnings() const {
  int n = 0;
  for (const Finding& f : findings)
    if (f.severity == Severity::kWarning) ++n;
  return n;
}

namespace detail {

void FindingSink::add(Rule rule, int cycle, int reg, std::string message) {
  add(rule, cycle, reg, -1, std::move(message));
}

void FindingSink::add(Rule rule, int cycle, int reg, int node, std::string message) {
  Severity sev = rule_severity(rule);
  if (sev == Severity::kError) ++errors_;
  int& n = counts_[static_cast<int>(rule)];
  ++n;
  if (n > kMaxFindingsPerRule) return;  // summarised in finish()
  report_.findings.push_back(Finding{rule, sev, cycle, reg, node, std::move(message)});
}

void FindingSink::finish() {
  // Byte-deterministic emission order regardless of pass interleaving:
  // stable-sort keeps same-key findings in discovery order.
  std::stable_sort(report_.findings.begin(), report_.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.rule, a.node, a.cycle, a.reg, a.message) <
                            std::tie(b.rule, b.node, b.cycle, b.reg, b.message);
                   });
  for (int r = 0; r < kNumRules; ++r) {
    int suppressed = counts_[r] - kMaxFindingsPerRule;
    if (suppressed <= 0) continue;
    Rule rule = static_cast<Rule>(r);
    report_.findings.push_back(
        Finding{rule, rule_severity(rule), -1, -1, -1,
                "... and " + std::to_string(suppressed) + " more " +
                    rule_name(rule) + " finding(s) suppressed"});
  }
}

}  // namespace detail

LintReport lint_rom(const sched::CompiledSm& sm, const trace::Program& reference) {
  LintReport report;
  report.cycles = sm.cycles();
  detail::FindingSink sink(report);
  detail::run_lift(sm, reference, report, sink);
  detail::run_liveness(sm, report, sink);
  sink.finish();
  return report;
}

LintReport lint_modulo(const sched::Problem& pr,
                       const std::vector<sched::CarriedDep>& carried,
                       const sched::ModuloOptions& opt) {
  LintReport report;
  detail::FindingSink sink(report);
  sched::ModuloResult mr = sched::modulo_schedule(pr, carried, opt);
  if (!mr.feasible) {
    sink.add(Rule::kModuloInfeasible, -1, -1,
             "no steady-state kernel up to II " + std::to_string(opt.max_ii) +
                 " (ResMII " + std::to_string(mr.res_mii) + ", RecMII " +
                 std::to_string(mr.rec_mii) + ")");
  } else {
    report.cycles = mr.kernel_length;
    report.lifted_ops = static_cast<int>(pr.nodes.size());
    std::string err;
    if (check_modulo_schedule(pr, carried, mr, &err)) {
      report.matched_ops = report.lifted_ops;
      report.equivalent = true;
    } else {
      sink.add(Rule::kModuloInvalid, -1, -1, "II " + std::to_string(mr.ii) + ": " + err);
    }
  }
  // A modulo kernel is an analysis artifact, not an emitted ROM, so no
  // taint certificate is claimed either way.
  report.constant_time = false;
  sink.finish();
  return report;
}

namespace {

std::string num(int v) { return std::to_string(v); }

// The range summary, then the finding counts and list with the closing brace.
std::string ranges_json(const LintReport& r) {
  std::string out;
  out += std::string("\"ranges_checked\":") + (r.ranges_checked ? "true" : "false") + ",";
  out += std::string("\"ranges_proven\":") + (r.ranges_proven ? "true" : "false") + ",";
  out += "\"range_nodes\":" + num(r.range_nodes) + ",";
  out += "\"range_reduce_sites\":" + num(r.range_reduce_sites) + ",";
  out += "\"range_max_bits\":" + num(r.range_max_bits) + ",";
  out += "\"range_widened\":" + num(r.range_widened) + ",";
  out += "\"errors\":" + num(r.errors()) + ",";
  out += "\"warnings\":" + num(r.warnings()) + ",";
  out += "\"findings\":[";
  for (size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    if (i) out += ",";
    out += "{\"rule\":\"" + std::string(rule_name(f.rule)) + "\",";
    out += "\"severity\":\"" + std::string(severity_name(f.severity)) + "\",";
    out += "\"cycle\":" + num(f.cycle) + ",";
    out += "\"reg\":" + num(f.reg) + ",";
    out += "\"node\":" + num(f.node) + ",";
    out += "\"message\":\"" + obs::json_escape(f.message) + "\"}";
  }
  out += "]}";
  return out;
}

std::string report_json(const LintReport& r) {
  if (!r.rom) return "{\"rom\":false," + ranges_json(r);
  std::string out = "{";
  out += "\"cycles\":" + num(r.cycles) + ",";
  out += "\"lifted_ops\":" + num(r.lifted_ops) + ",";
  out += "\"matched_ops\":" + num(r.matched_ops) + ",";
  out += std::string("\"equivalent\":") + (r.equivalent ? "true" : "false") + ",";
  out += "\"indexed_reads\":" + num(r.indexed_reads) + ",";
  out += "\"tainted_values\":" + num(r.tainted_values) + ",";
  out += std::string("\"constant_time\":") + (r.constant_time ? "true" : "false") + ",";
  out += "\"peak_live\":" + num(r.peak_live) + ",";
  out += "\"peak_live_cycle\":" + num(r.peak_live_cycle) + ",";
  out += "\"dead_writes\":" + num(r.dead_writes) + ",";
  out += "\"never_read_regs\":" + num(r.never_read_regs) + ",";
  out += "\"max_reads_in_cycle\":" + num(r.max_reads_in_cycle) + ",";
  out += "\"max_writes_in_cycle\":" + num(r.max_writes_in_cycle) + ",";
  return out + ranges_json(r);
}

}  // namespace

std::string lint_json(const std::vector<LintedProgram>& programs) {
  std::string out = "{\"report\":\"fourq.lint.v1\",";
  out += "\"rules\":[";
  for (int r = 0; r < kNumRules; ++r) {
    if (r) out += ",";
    Rule rule = static_cast<Rule>(r);
    out += "{\"name\":\"" + std::string(rule_name(rule)) + "\",";
    out += "\"severity\":\"" + std::string(severity_name(rule_severity(rule))) + "\",";
    out += "\"meaning\":\"" + obs::json_escape(rule_meaning(rule)) + "\"}";
  }
  out += "],\"programs\":[";
  bool clean = true;
  for (size_t i = 0; i < programs.size(); ++i) {
    if (i) out += ",";
    out += "{\"label\":\"" + obs::json_escape(programs[i].label) + "\",";
    out += "\"lint\":" + report_json(programs[i].report) + "}";
    clean = clean && programs[i].report.ok();
  }
  out += "],\"ok\":";
  out += clean ? "true" : "false";
  out += "}";
  return out;
}

std::string lint_text(const std::vector<LintedProgram>& programs) {
  std::string out;
  for (const LintedProgram& p : programs) {
    const LintReport& r = p.report;
    out += "== " + p.label + " ==\n";
    if (r.rom) {
      out += "  cycles " + num(r.cycles) + ", lifted " + num(r.lifted_ops) + " ops (" +
             num(r.matched_ops) + " matched), equivalent " +
             (r.equivalent ? "yes" : "NO") + "\n";
      out += "  indexed reads " + num(r.indexed_reads) + ", tainted values " +
             num(r.tainted_values) + ", constant-time certificate " +
             (r.constant_time ? "yes" : "no") + "\n";
      out += "  peak live " + num(r.peak_live) + " regs @c" + num(r.peak_live_cycle) +
             ", port peaks " + num(r.max_reads_in_cycle) + "R/" +
             num(r.max_writes_in_cycle) + "W, dead writes " + num(r.dead_writes) +
             ", never-read regs " + num(r.never_read_regs) + "\n";
    }
    if (r.ranges_checked)
      out += "  ranges: " + num(r.range_nodes) + " wide nodes, " +
             num(r.range_reduce_sites) + " reduce sites, max bound " +
             num(r.range_max_bits) + " bits, widened " + num(r.range_widened) +
             ", overflow-freedom " + (r.ranges_proven ? "PROVEN" : "NOT proven") + "\n";
    out += "  findings: " + num(r.errors()) + " error(s), " + num(r.warnings()) +
           " warning(s)\n";
    for (const Finding& f : r.findings) {
      out += "    [" + std::string(severity_name(f.severity)) + "] " +
             rule_name(f.rule);
      if (f.cycle >= 0) out += " @c" + num(f.cycle);
      if (f.reg >= 0) out += " r" + num(f.reg);
      out += ": " + f.message + "\n";
    }
  }
  return out;
}

void record_lint_metrics(const std::string& label, const LintReport& r) {
  obs::Registry& m = obs::global().metrics;
  const std::string p = "lint." + label + ".";
  m.counter(p + "findings").inc(static_cast<uint64_t>(r.findings.size()));
  m.counter(p + "errors").inc(static_cast<uint64_t>(r.errors()));
  m.counter(p + "warnings").inc(static_cast<uint64_t>(r.warnings()));
  if (r.rom) {
    m.counter(p + "indexed_reads").inc(static_cast<uint64_t>(r.indexed_reads));
    m.gauge(p + "equivalent").set(r.equivalent ? 1 : 0);
    m.gauge(p + "constant_time").set(r.constant_time ? 1 : 0);
    m.gauge(p + "peak_live").set(r.peak_live);
    m.gauge(p + "dead_writes").set(r.dead_writes);
  }
  if (r.ranges_checked) {
    m.gauge(p + "ranges_proven").set(r.ranges_proven ? 1 : 0);
    m.gauge(p + "range_nodes").set(r.range_nodes);
    m.gauge(p + "range_max_bits").set(r.range_max_bits);
  }
  m.counter("lint.programs").inc();
  m.counter("lint.errors").inc(static_cast<uint64_t>(r.errors()));
  m.counter("lint.warnings").inc(static_cast<uint64_t>(r.warnings()));
}

}  // namespace fourq::analysis

// DAG-side range analysis: fixed-point propagation with widening over the
// expanded wide micro-op program, ROM coverage, the fourq.ranges.v1
// certificate writer and replay checker, and the concrete differential
// interpreter.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/range/internal.hpp"
#include "obs/json.hpp"

namespace fourq::analysis::range {

using analysis::detail::FindingSink;

namespace {

// The range_* summary of one proof.
void summarise(const WideProgram& wp, const RangeResult& res, LintReport& report) {
  report.ranges_checked = true;
  report.ranges_proven = res.proven;
  report.range_nodes = static_cast<int>(wp.ops.size());
  report.range_reduce_sites = res.stats.reduce_sites;
  report.range_max_bits = res.max_bits;
  report.range_widened = res.stats.widened;
}

}  // namespace

RangeResult analyze_wide(const WideProgram& wp, const RangeOptions& opt,
                         const std::vector<std::pair<int, int>>& carried_nodes,
                         LintReport& report) {
  RangeResult res;
  res.bounds.assign(wp.ops.size(), Bound::exact(U512{}));
  for (size_t n = 0; n < wp.ops.size(); ++n)
    if (wp.ops[n].kind == WideKind::kInput) res.bounds[n] = Bound::canonical();
  for (const auto& [node, b] : opt.input_bounds)
    res.bounds[static_cast<size_t>(node)] = b;

  // Fixed-point iteration, findings silenced: only the converged state is
  // reported, so a defect surfaces once instead of once per iteration.
  // Carried inputs join in their source's bound each round; one still
  // growing after `widen_after` rounds is widened to Top (absorbing), which
  // guarantees convergence well inside `max_iterations`.
  std::vector<int> widened;
  detail::PropagateCtx silent;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    detail::propagate(wp, res.bounds, silent);
    bool changed = false;
    for (const auto& [in, src] : carried_nodes) {
      Bound j = bjoin(res.bounds[static_cast<size_t>(in)],
                      res.bounds[static_cast<size_t>(src)]);
      if (j == res.bounds[static_cast<size_t>(in)]) continue;
      if (iter + 1 >= opt.widen_after) {
        j = Bound::unbounded();
        widened.push_back(in);
      }
      res.bounds[static_cast<size_t>(in)] = j;
      changed = true;
    }
    if (!changed) break;
  }

  // Reporting pass over the converged bounds.
  FindingSink sink(report);
  detail::PropagateCtx ctx;
  ctx.sink = &sink;
  ctx.stats = &res.stats;
  detail::propagate(wp, res.bounds, ctx);
  for (int n : widened)
    sink.add(Rule::kBoundWideningLoop, -1, -1, n,
             "loop-carried bound at node " + std::to_string(n) +
                 " found no finite fixed point and was widened to Top");
  res.stats.widened = static_cast<int>(widened.size());
  for (const Bound& b : res.bounds)
    if (!b.top && b.bits() > res.max_bits) res.max_bits = b.bits();
  res.proven = !sink.any_error();
  sink.finish();
  summarise(wp, res, report);
  return res;
}

namespace {

// Maps loop-carried trace-op pairs onto wide nodes, component-wise.
std::vector<std::pair<int, int>> carried_wide_nodes(const ExpandResult& ex,
                                                    const RangeOptions& opt) {
  std::vector<std::pair<int, int>> nodes;
  for (const auto& [in, src] : opt.carried) {
    const auto& i = ex.op_nodes[static_cast<size_t>(in)];
    const auto& s = ex.op_nodes[static_cast<size_t>(src)];
    nodes.emplace_back(i.first, s.first);
    nodes.emplace_back(i.second, s.second);
  }
  return nodes;
}

}  // namespace

ProgramRanges analyze_program(const trace::Program& p, const RangeOptions& opt,
                              LintReport& report) {
  ProgramRanges pr;
  pr.expand = expand_program(p);
  pr.result = analyze_wide(pr.expand.wide, opt, carried_wide_nodes(pr.expand, opt), report);
  return pr;
}

void cover_rom(const ProgramRanges& dag, LintReport& rom) {
  summarise(dag.expand.wide, dag.result, rom);
  rom.ranges_proven = dag.result.proven && rom.equivalent;
}

// --- certificate -----------------------------------------------------------

namespace {

std::string u512_hex(const U512& v) {
  char buf[17];
  std::string out;
  bool started = false;
  for (int i = 7; i >= 0; --i) {
    if (!started && v.w[static_cast<size_t>(i)] == 0 && i > 0) continue;
    std::snprintf(buf, sizeof buf, started ? "%016llx" : "%llx",
                  static_cast<unsigned long long>(v.w[static_cast<size_t>(i)]));
    out += buf;
    started = true;
  }
  return "0x" + out;
}

std::string bound_json(const Bound& b) {
  if (b.top) return "\"top\"";
  return "\"" + u512_hex(b.max) + "\"";
}

const char* limit_name(InLimit l) {
  switch (l) {
    case InLimit::kNone: return "none";
    case InLimit::kCanonical: return "canonical";
    case InLimit::kBits127: return "bits127";
    case InLimit::kBits128: return "bits128";
    case InLimit::kBits256: return "bits256";
    case InLimit::kPShift127: return "pshift127";
  }
  return "?";
}

// A claimed bound is acceptable iff it dominates (is at least as large as)
// the recomputed one: loosening is sound, tightening without proof is not.
bool dominates(const Bound& claimed, const Bound& recomputed) {
  if (claimed.top) return true;
  if (recomputed.top) return false;
  return claimed.max >= recomputed.max;
}

}  // namespace

std::string ranges_json(const std::vector<CertEntry>& entries) {
  std::string out = "{\"report\":\"fourq.ranges.v1\",\"programs\":[";
  bool proven = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    const ProgramRanges& pr = *entries[e].ranges;
    const WideProgram& wp = pr.expand.wide;
    if (e) out += ",";
    out += "{\"label\":\"" + obs::json_escape(entries[e].label) + "\",";
    out += std::string("\"proven\":") + (pr.result.proven ? "true" : "false") + ",";
    out += "\"max_bits\":" + std::to_string(pr.result.max_bits) + ",";
    out += "\"reduce_sites\":" + std::to_string(pr.result.stats.reduce_sites) + ",";
    out += "\"redundant_reduces\":" + std::to_string(pr.result.stats.redundant_reduces) + ",";
    out += "\"widened\":" + std::to_string(pr.result.stats.widened) + ",";
    out += "\"joins\":[";
    for (size_t j = 0; j < wp.joins.size(); ++j) {
      if (j) out += ",";
      out += "[";
      for (size_t c = 0; c < wp.joins[j].size(); ++c) {
        if (c) out += ",";
        out += std::to_string(wp.joins[j][c]);
      }
      out += "]";
    }
    out += "],\"nodes\":[";
    for (size_t n = 0; n < wp.ops.size(); ++n) {
      const WideOp& op = wp.ops[n];
      const Bound& b = pr.result.bounds[n];
      if (n) out += ",";
      out += "{\"id\":" + std::to_string(n) + ",";
      out += "\"kind\":\"" + std::string(wide_kind_name(op.kind)) + "\",";
      out += "\"role\":\"" + std::string(op.role) + "\",";
      out += "\"origin\":" + std::to_string(op.origin) + ",";
      out += "\"a\":" + std::to_string(op.a) + ",";
      out += "\"b\":" + std::to_string(op.b) + ",";
      out += "\"join\":" + std::to_string(op.join) + ",";
      out += "\"width\":" + std::to_string(op.width) + ",";
      out += "\"limit\":\"" + std::string(limit_name(op.limit)) + "\",";
      out += "\"bound\":" + bound_json(b) + ",";
      out += "\"bits\":" + std::to_string(b.top ? -1 : b.bits()) + "}";
    }
    out += "]}";
    proven = proven && pr.result.proven;
  }
  out += "],\"proven\":";
  out += proven ? "true" : "false";
  out += "}";
  return out;
}

bool check_certificate(const ProgramRanges& pr, const RangeOptions& opt,
                       LintReport& report) {
  const WideProgram& wp = pr.expand.wide;
  const std::vector<Bound>& claimed = pr.result.bounds;
  FindingSink sink(report);
  if (claimed.size() != wp.ops.size()) {
    sink.add(Rule::kRangeCertInvalid, -1, -1,
             "certificate carries " + std::to_string(claimed.size()) +
                 " bounds for " + std::to_string(wp.ops.size()) + " nodes");
    sink.finish();
    return false;
  }

  detail::PropagateCtx ctx;
  ctx.sink = &sink;
  ctx.cert_replay = true;
  static const Bound kZero = Bound::exact(U512{});
  for (size_t n = 0; n < wp.ops.size(); ++n) {
    const WideOp& op = wp.ops[n];
    int node = static_cast<int>(n);
    Bound recomputed;
    switch (op.kind) {
      case WideKind::kInput:
        continue;  // a seed; soundness rests on the carried checks below
      case WideKind::kJoin: {
        recomputed = kZero;
        for (int c : wp.joins[static_cast<size_t>(op.join)])
          recomputed = bjoin(recomputed, claimed[static_cast<size_t>(c)]);
        break;
      }
      default: {
        const Bound& a = claimed[static_cast<size_t>(op.a)];
        const Bound& b = op.b >= 0 ? claimed[static_cast<size_t>(op.b)] : kZero;
        recomputed = detail::transfer(op, node, a, b, ctx);
        break;
      }
    }
    if (!dominates(claimed[n], recomputed))
      sink.add(Rule::kRangeCertInvalid, -1, -1, node,
               "claimed bound at node " + std::to_string(node) + " (" +
                   wide_kind_name(op.kind) +
                   ") is tighter than its operands justify — tampered or unsound");
  }

  // Fixed-point condition: each carried input's claimed bound must absorb
  // its source's, else iteration 2 of the loop escapes the certificate.
  for (const auto& [in, src] : carried_wide_nodes(pr.expand, opt))
    if (!dominates(claimed[static_cast<size_t>(in)], claimed[static_cast<size_t>(src)]))
      sink.add(Rule::kRangeCertInvalid, -1, -1, in,
               "carried input node " + std::to_string(in) +
                   " does not dominate its loop source node " + std::to_string(src) +
                   " — the claimed bounds are not a fixed point");

  sink.finish();
  return !sink.any_error();
}

// --- concrete interpreter --------------------------------------------------

namespace {

void eval_check(bool ok, const char* what, size_t node) {
  if (!ok)
    throw std::logic_error("eval_wide: " + std::string(what) + " at node " +
                           std::to_string(node));
}

U256 p256() { return U256(~0ull, 0x7fffffffffffffffull, 0, 0); }

}  // namespace

std::vector<U512> eval_wide(const WideProgram& wp,
                            const std::vector<std::pair<int, U512>>& inputs,
                            const std::vector<int>& pick) {
  std::vector<U512> v(wp.ops.size());
  for (const auto& [node, val] : inputs) v[static_cast<size_t>(node)] = val;

  const U256 p = p256();
  const U512 pwide(p);
  for (size_t n = 0; n < wp.ops.size(); ++n) {
    const WideOp& op = wp.ops[n];
    const U512& a = op.a >= 0 ? v[static_cast<size_t>(op.a)] : v[n];
    switch (op.kind) {
      case WideKind::kInput:
        break;
      case WideKind::kJoin: {
        const std::vector<int>& cands = wp.joins[static_cast<size_t>(op.join)];
        int c = pick[static_cast<size_t>(op.join)];
        v[n] = v[static_cast<size_t>(cands[static_cast<size_t>(c)])];
        break;
      }
      case WideKind::kCopy:
        v[n] = a;
        break;
      case WideKind::kLazyAdd: {
        eval_check(add(a, v[static_cast<size_t>(op.b)], v[n]) == 0,
                   "lazy sum carries out of U512", n);
        break;
      }
      case WideKind::kMulCore: {
        const U512& b = v[static_cast<size_t>(op.b)];
        eval_check(a.hi256().is_zero() && b.hi256().is_zero(),
                   "multiplier operand exceeds 256 bits", n);
        v[n] = mul_wide(a.lo256(), b.lo256());
        break;
      }
      case WideKind::kAddP127: {
        const U512& b = v[static_cast<size_t>(op.b)];
        if (sub(a, b, v[n])) {
          // borrowed: add the p<<127 correction; must restore positivity
          U512 corrected;
          eval_check(add(v[n], pshift127(), corrected) == 1,
                     "p<<127 correction failed to absorb the borrow", n);
          v[n] = corrected;
        }
        break;
      }
      case WideKind::kMonusSub: {
        eval_check(sub(a, v[static_cast<size_t>(op.b)], v[n]) == 0,
                   "Karatsuba middle term went negative", n);
        break;
      }
      case WideKind::kFold: {
        v[n] = U512(mod(a, p));
        break;
      }
      case WideKind::kModSub: {
        const U512& b = v[static_cast<size_t>(op.b)];
        U512 d;
        if (sub(a, b, d)) {
          U512 t;
          add(d, pwide, t);  // wrapped difference + p, still mod 2^512
          d = t;
        }
        v[n] = d;
        break;
      }
      case WideKind::kModNeg: {
        if (a.is_zero()) {
          v[n] = U512{};
        } else {
          eval_check(sub(pwide, a, v[n]) == 0, "negate of a non-canonical value", n);
        }
        break;
      }
    }
    if (op.width > 0)
      eval_check(v[n].top_bit() + 1 <= op.width, "stage register overflow", n);
  }
  return v;
}

}  // namespace fourq::analysis::range

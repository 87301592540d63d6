// The abstract domain: exact magnitude bounds over U512, the per-kind
// transfer functions with their site contracts, and the forward propagation
// core. See field/bounds.hpp for the contract table these checks realise.
#include <string>
#include <vector>

#include "analysis/range/internal.hpp"
#include "field/bounds.hpp"

namespace fourq::analysis::range {

namespace {

// p = 2^127 - 1 as a U512.
U512 make_p() {
  U512 p;
  p.w[0] = ~0ull;
  p.w[1] = 0x7fffffffffffffffull;
  return p;
}

U512 make_canonical_max() {
  U512 m = make_p();
  U512 one(U256(1));
  U512 r;
  sub(m, one, r);
  return r;
}

// p * 2^127 = 2^254 - 2^127: the largest subtrahend the single +p<<127
// correction of the t7 stage can absorb.
U512 make_pshift127() { return shl(make_p(), 127); }

}  // namespace

const U512& canonical_max() {
  static const U512 v = make_canonical_max();
  return v;
}

const U512& pshift127() {
  static const U512 v = make_pshift127();
  return v;
}

U512 bits_max(int w) {
  U512 m;
  for (int i = 0; i < w; ++i) m.w[static_cast<size_t>(i) / 64] |= 1ull << (i % 64);
  return m;
}

Bound Bound::canonical() { return Bound{canonical_max(), false}; }

int Bound::bits() const { return top ? 513 : max.top_bit() + 1; }

bool Bound::fits_bits(int w) const { return !top && bits() <= w; }

Bound badd(const Bound& a, const Bound& b) {
  if (a.top || b.top) return Bound::unbounded();
  U512 r;
  if (add(a.max, b.max, r)) return Bound::unbounded();  // overflow of U512 itself
  return Bound::exact(r);
}

Bound bmul(const Bound& a, const Bound& b) {
  if (a.top || b.top) return Bound::unbounded();
  // U512 holds any product of 256-bit operands; wider operands at a
  // multiplier site are a contract violation reported before this runs.
  if (!a.fits_bits(256) || !b.fits_bits(256)) return Bound::unbounded();
  return Bound::exact(mul_wide(a.max.lo256(), b.max.lo256()));
}

Bound bjoin(const Bound& a, const Bound& b) {
  if (a.top || b.top) return Bound::unbounded();
  return a.max >= b.max ? a : b;
}

const char* wide_kind_name(WideKind k) {
  switch (k) {
    case WideKind::kInput: return "input";
    case WideKind::kJoin: return "join";
    case WideKind::kCopy: return "copy";
    case WideKind::kLazyAdd: return "lazy-add";
    case WideKind::kMulCore: return "mul-core";
    case WideKind::kAddP127: return "add-p127";
    case WideKind::kMonusSub: return "monus-sub";
    case WideKind::kFold: return "fold";
    case WideKind::kModSub: return "mod-sub";
    case WideKind::kModNeg: return "mod-neg";
  }
  return "?";
}

namespace detail {

void PropagateCtx::report(Rule rule, int node, const std::string& message) {
  if (!sink) return;
  if (cert_replay && rule != Rule::kSelectBoundDivergence)
    rule = Rule::kRangeCertInvalid;
  sink->add(rule, -1, -1, node, message);
}

namespace {

struct Limit {
  U512 max;
  const char* what;  // human name of the contract
};

Limit limit_value(InLimit l) {
  switch (l) {
    case InLimit::kCanonical:
      return {canonical_max(), "canonical (<= p-1)"};
    case InLimit::kBits127:
      return {bits_max(field::bounds::kCanonicalBits), "the 127-bit multiplier operand"};
    case InLimit::kBits128:
      return {bits_max(field::bounds::kLazySumBits), "the 128-bit lazy-sum register"};
    case InLimit::kBits256:
      return {bits_max(field::bounds::kWideAccumulatorBits), "the 256-bit reduce_wide input"};
    case InLimit::kPShift127:
      return {pshift127(), "the p*2^127 correction threshold"};
    case InLimit::kNone:
      break;
  }
  return {U512{}, ""};
}

std::string site_str(const WideOp& op, int node) {
  std::string s = std::string(wide_kind_name(op.kind));
  if (op.role && op.role[0]) s += " '" + std::string(op.role) + "'";
  s += " (node " + std::to_string(node);
  if (op.origin >= 0) s += ", trace op " + std::to_string(op.origin);
  s += ")";
  return s;
}

// Checks one operand against the site's limit; on violation reports
// (reduce-missing for canonicality contracts, overflow-possible for pure
// width contracts) and clamps the bound to the limit so downstream sites
// are judged against the contract, not the defect.
Bound check_operand(const WideOp& op, int node, const char* which, Bound b,
                    InLimit limit, PropagateCtx& ctx) {
  if (limit == InLimit::kNone) return b;
  Limit lim = limit_value(limit);
  if (b.top) {
    ctx.report(Rule::kRangeUnbounded, node,
               "operand " + std::string(which) + " of " + site_str(op, node) +
                   " has no finite bound but must fit " + lim.what);
    return Bound::exact(lim.max);
  }
  if (lim.max >= b.max) return b;
  bool canonicality = limit == InLimit::kCanonical || limit == InLimit::kBits127;
  ctx.report(canonicality ? Rule::kReduceMissing : Rule::kOverflowPossible, node,
             "operand " + std::string(which) + " of " + site_str(op, node) +
                 " is bounded by " + std::to_string(b.bits()) +
                 " bits, exceeding " + lim.what +
                 (canonicality ? " — a reduction is missing upstream" : ""));
  return Bound::exact(lim.max);
}

}  // namespace

Bound transfer(const WideOp& op, int node, const Bound& a_in, const Bound& b_in,
               PropagateCtx& ctx) {
  Bound a = a_in, b = b_in;
  Bound r = Bound::unbounded();
  switch (op.kind) {
    case WideKind::kInput:
    case WideKind::kJoin:
      return Bound::unbounded();  // resolved by the caller, never here
    case WideKind::kCopy:
      r = a;
      break;
    case WideKind::kLazyAdd:
      r = badd(a, b);
      break;
    case WideKind::kMulCore:
      a = check_operand(op, node, "a", a, op.limit, ctx);
      b = check_operand(op, node, "b", b, op.limit, ctx);
      r = bmul(a, b);
      break;
    case WideKind::kAddP127:
      // r = a - b, plus p*2^127 once when the subtraction borrows. The
      // correction restores non-negativity only if b <= p*2^127 (operand a
      // needs no limit: a smaller a only lowers the result). Result is
      // max(a, p*2^127 - 1): the no-borrow branch is bounded by a, the
      // borrow branch by p*2^127 - (b - a) <= p*2^127 - 1.
      b = check_operand(op, node, "b", b, op.limit, ctx);
      if (a.top || b.top) {
        r = Bound::unbounded();
      } else {
        U512 borrow_max;
        sub(pshift127(), U512(U256(1)), borrow_max);
        r = bjoin(a, Bound::exact(borrow_max));
      }
      break;
    case WideKind::kMonusSub:
      // r = a - b with a >= b guaranteed by the Karatsuba product identity
      // (t6 = t0 + t1 + cross terms >= t0 + t1 = t5), so r <= a. The
      // interval domain cannot see the identity; it is part of the stage's
      // semantics (field/bounds.hpp) and eval_wide asserts it concretely.
      r = a;
      break;
    case WideKind::kFold: {
      Bound checked = check_operand(op, node, "a", a, op.limit, ctx);
      if (ctx.stats) {
        ++ctx.stats->reduce_sites;
        if (!a.top && canonical_max() >= a.max) {
          ++ctx.stats->redundant_reduces;
          ctx.report(Rule::kReduceRedundant, node,
                     "fold at " + site_str(op, node) + " reduces a value already bounded by " +
                         std::to_string(a.bits()) + " bits (canonical) — redundant reduction");
        }
      }
      (void)checked;
      r = Bound::canonical();
      break;
    }
    case WideKind::kModSub:
      a = check_operand(op, node, "a", a, op.limit, ctx);
      b = check_operand(op, node, "b", b, op.limit, ctx);
      r = Bound::canonical();
      break;
    case WideKind::kModNeg:
      a = check_operand(op, node, "a", a, op.limit, ctx);
      r = Bound::canonical();
      break;
  }
  if (op.width > 0) {
    if (r.top) {
      ctx.report(Rule::kRangeUnbounded, node,
                 "result of " + site_str(op, node) + " has no finite bound but lands in a " +
                     std::to_string(op.width) + "-bit stage register");
      r = Bound::exact(bits_max(op.width));
    } else if (!r.fits_bits(op.width)) {
      ctx.report(Rule::kOverflowPossible, node,
                 "result of " + site_str(op, node) + " is bounded by " +
                     std::to_string(r.bits()) + " bits, overflowing its " +
                     std::to_string(op.width) + "-bit stage register");
      r = Bound::exact(bits_max(op.width));
    }
  }
  return r;
}

void propagate(const WideProgram& wp, std::vector<Bound>& bounds, PropagateCtx& ctx) {
  for (size_t n = 0; n < wp.ops.size(); ++n) {
    const WideOp& op = wp.ops[n];
    int node = static_cast<int>(n);
    switch (op.kind) {
      case WideKind::kInput:
        break;  // leaf: keeps the caller-seeded bound
      case WideKind::kJoin: {
        const std::vector<int>& cands = wp.joins[static_cast<size_t>(op.join)];
        Bound j = Bound::exact(U512{});
        bool diverge = false;
        for (size_t i = 0; i < cands.size(); ++i) {
          const Bound& c = bounds[static_cast<size_t>(cands[i])];
          if (i && c != bounds[static_cast<size_t>(cands[0])]) diverge = true;
          j = bjoin(j, c);
        }
        if (diverge)
          ctx.report(Rule::kSelectBoundDivergence, node,
                     "candidates of " + site_str(op, node) +
                         " carry unequal bounds — selected magnitude depends on the digit");
        bounds[n] = j;
        break;
      }
      default: {
        const Bound& a = bounds[static_cast<size_t>(op.a)];
        static const Bound kZero = Bound::exact(U512{});
        const Bound& b = op.b >= 0 ? bounds[static_cast<size_t>(op.b)] : kZero;
        bounds[n] = transfer(op, node, a, b, ctx);
        break;
      }
    }
  }
}

}  // namespace detail

}  // namespace fourq::analysis::range

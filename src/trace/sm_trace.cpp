#include "trace/sm_trace.hpp"

#include "common/check.hpp"
#include "curve/scalarmul.hpp"
#include "obs/obs.hpp"

namespace fourq::trace {

namespace {

// x^(2^n) by n chained squarings (multiplier unit only).
Fp2Var sqr_n(Fp2Var x, int n) {
  for (int i = 0; i < n; ++i) x = sqr(x);
  return x;
}

// x^(2^127 - 3) — the F_p Fermat inverse exponent, run on F_{p^2} values
// whose imaginary part is zero (the norm). Itoh–Tsujii-style chain:
// 126 squarings + 12 multiplications (Fp::inv runs the same chain).
Fp2Var fermat_inverse_chain(Tracer& t, Fp2Var n) {
  Fp2Var t1 = n;                           // 2^1 - 1
  Fp2Var t2 = t.mul(sqr_n(t1, 1), t1);     // 2^2 - 1
  Fp2Var t4 = t.mul(sqr_n(t2, 2), t2);     // 2^4 - 1
  Fp2Var t8 = t.mul(sqr_n(t4, 4), t4);     // 2^8 - 1
  Fp2Var t16 = t.mul(sqr_n(t8, 8), t8);    // 2^16 - 1
  Fp2Var t32 = t.mul(sqr_n(t16, 16), t16); // 2^32 - 1
  Fp2Var t64 = t.mul(sqr_n(t32, 32), t32); // 2^64 - 1
  Fp2Var a = t.mul(sqr_n(t64, 32), t32);   // 2^96 - 1
  Fp2Var b = t.mul(sqr_n(a, 16), t16);     // 2^112 - 1
  Fp2Var c = t.mul(sqr_n(b, 8), t8);       // 2^120 - 1
  Fp2Var d = t.mul(sqr_n(c, 4), t4);       // 2^124 - 1
  Fp2Var e = t.mul(sqr_n(d, 1), t1);       // 2^125 - 1
  return t.mul(sqr_n(e, 2), t1);           // 4*(2^125 - 1) + 1 = 2^127 - 3
}

// F_{p^2} inversion on the datapath: z^{-1} = conj(z) * (z * conj(z))^{p-2}.
// The norm z*conj(z) has zero imaginary part, so the F_p Fermat chain runs
// as ordinary F_{p^2} multiplications.
Fp2Var fp2_inverse(Tracer& t, Fp2Var z) {
  Fp2Var zc = t.conj(z, "conj(z)");
  Fp2Var n = t.mul(z, zc, "norm");
  Fp2Var ninv = fermat_inverse_chain(t, n);
  return t.mul(zc, ninv, "zinv");
}

// --- Endomorphism-shaped stand-in (kPaperCost variant) ---------------------
//
// Structure mirrors the Costello–Longa evaluation pipeline
//   phi = tau_dual ∘ phi_hat ∘ tau,  psi = tau_dual ∘ psi_hat ∘ tau
// with the same multiplication counts; the curve constants are placeholder
// inputs (the real values are not printed in the DATE paper). See
// DESIGN.md §2 for why this preserves the scheduling problem exactly.

// tau: 4M + 3A, maps (X, Y, Z) to the hat-curve.
std::array<Fp2Var, 3> stub_tau(Tracer& t, const TR1& p, const EndoConsts& k) {
  Fp2Var t0 = sqr(p.X);
  Fp2Var t1 = sqr(p.Y);
  Fp2Var x = t.mul(p.X, p.Y);
  Fp2Var z = t.mul(t0 + t1, k[0]);
  return {x, t1 - t0, z};
}

// tau_dual: 4M + 3A, maps back to extended twisted Edwards (R1).
TR1 stub_tau_dual(Tracer& t, const std::array<Fp2Var, 3>& w, const EndoConsts& k) {
  Fp2Var t0 = sqr(w[0]);
  Fp2Var ta = t0 - w[1];
  Fp2Var tb = w[1] + w[2];
  Fp2Var x = t.mul(w[0], k[1]);
  Fp2Var y = t.mul(w[1], w[2]);
  Fp2Var z = t.mul(tb, k[2]);
  return TR1{x, y, z, ta, tb};
}

// phi_hat: 10M + 5A on the hat-curve (the heaviest CL map).
std::array<Fp2Var, 3> stub_phi_hat(Tracer& t, const std::array<Fp2Var, 3>& w,
                                   const EndoConsts& k) {
  Fp2Var t0 = sqr(w[0]);
  Fp2Var t1 = sqr(w[1]);
  Fp2Var t2 = t.mul(t0, k[3]);
  Fp2Var t3 = t.mul(t1, k[4]);
  Fp2Var t4 = t.mul(w[0], w[1]);
  Fp2Var t5 = t.mul(w[2], k[5]);
  Fp2Var x = t.mul(t4, t2 + t3);
  Fp2Var y = t.mul(t5, t2 - t3);
  Fp2Var z = t.mul(t0 + t1, w[2]);
  return {x, y, z};
}

// psi_hat: 5M + 2A (the p-power Frobenius composite is cheap).
std::array<Fp2Var, 3> stub_psi_hat(Tracer& t, const std::array<Fp2Var, 3>& w,
                                   const EndoConsts& k) {
  Fp2Var t0 = t.conj(w[0]);
  Fp2Var t1 = t.conj(w[1]);
  Fp2Var t2 = t.conj(w[2]);
  Fp2Var x = t.mul(t0, k[3]);
  Fp2Var z = t.mul(t2, k[4]);
  Fp2Var y = t.mul(t1, t2);
  Fp2Var y2 = t.mul(y, k[5]);
  Fp2Var x2 = t.mul(x, z);
  return {x2, y2, t0 + t2};
}

struct CoreInputs {
  Fp2Var zero, one, two_d, px, py;
  const EndoConsts* endo = nullptr;  // null = functional (192-doubling) variant
};

struct CoreOutputs {
  TR1 q;                       // final accumulator (pre-normalisation)
  std::array<Fp2Var, 2> xy;    // affine outputs (valid when inversion requested)
};

// Traces one complete Alg.-1 scalar multiplication into `t`. `stream`
// selects which runtime scalar the digit/correction reads bind to (0 or 1
// for dual-stream throughput programs).
CoreOutputs trace_sm_core(Tracer& t, const CoreInputs& in, const SmTraceOptions& opt,
                          int stream) {
  const TR1 p = curve::to_r1(curve::AffineT<Fp2Var>{in.px, in.py}, in.one);
  const std::array<TR1, 8> table = curve::table_r1(p, aux_points(t, p, in.endo), in.two_d);
  const TableCols cols = table_cols(t, table, in.zero, in.two_d);

  t.set_iterations(opt.digits);
  const int iter_base = stream * kStream2IterBase;
  const std::string s = "/s" + std::to_string(stream);
  CoreOutputs res;
  res.q = curve::digit_loop(in.zero, in.one, opt.digits, [&](int i) {
    return digit_read(t, cols, iter_base + i, "@" + std::to_string(i) + s);
  });
  const auto corr = curve::correction_operands(p, in.zero, in.one, in.two_d);
  res.q = curve::add(res.q, correction_read(t, corr[0], corr[1], stream));
  if (opt.include_inversion) res.xy = normalise(t, res.q);
  return res;
}

}  // namespace

EndoConsts endo_inputs(Tracer& t, std::vector<int>& ids) {
  EndoConsts k;
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = t.input("endo.c" + std::to_string(i));
    ids.push_back(k[i].id);
  }
  return k;
}

std::array<TR1, 3> aux_points(Tracer& t, const TR1& p, const EndoConsts* endo) {
  if (endo == nullptr) return curve::aux_points(p);
  const EndoConsts& k = *endo;
  const auto w = stub_tau(t, p, k);
  const TR1 phi = stub_tau_dual(t, stub_phi_hat(t, w, k), k);  // "phi(P)"
  const TR1 psi = stub_tau_dual(t, stub_psi_hat(t, w, k), k);  // "psi(P)"
  const auto w2 = stub_tau(t, phi, k);
  return {phi, psi, stub_tau_dual(t, stub_psi_hat(t, w2, k), k)};  // "psi(phi(P))"
}

TableCols table_cols(Tracer& t, const std::array<TR1, 8>& table, const Fp2Var& zero,
                     const Fp2Var& two_d) {
  TableCols c;
  for (size_t u = 0; u < table.size(); ++u) {
    const TR2 r2 = curve::to_r2(table[u], two_d);
    c.xpy.push_back(r2.xpy);
    c.ymx.push_back(r2.ymx);
    c.z2.push_back(r2.z2);
    c.dt2.push_back(r2.dt2);
    c.ndt2.push_back(t.sub(zero, r2.dt2, "T.ndt2[" + std::to_string(u) + "]"));
  }
  return c;
}

TR2 digit_read(Tracer& t, const TableCols& c, int iter, const std::string& tag) {
  TR2 r;
  r.xpy = t.digit_select({c.xpy, c.ymx}, iter, "T.xpy" + tag);
  r.ymx = t.digit_select({c.ymx, c.xpy}, iter, "T.ymx" + tag);
  r.z2 = t.digit_select({c.z2, c.z2}, iter, "T.z2" + tag);
  r.dt2 = t.digit_select({c.dt2, c.ndt2}, iter, "T.dt2" + tag);
  return r;
}

TR2 correction_read(Tracer& t, const TR2& if_odd, const TR2& if_even, int stream) {
  TR2 r;
  r.xpy = t.correction_select(if_odd.xpy, if_even.xpy, "corr.xpy", stream);
  r.ymx = t.correction_select(if_odd.ymx, if_even.ymx, "corr.ymx", stream);
  r.z2 = t.correction_select(if_odd.z2, if_even.z2, "corr.z2", stream);
  r.dt2 = t.correction_select(if_odd.dt2, if_even.dt2, "corr.dt2", stream);
  return r;
}

std::array<Fp2Var, 2> normalise(Tracer& t, const TR1& q) {
  Fp2Var zi = fp2_inverse(t, q.Z);
  Fp2Var x = t.mul(q.X, zi, "x.affine");
  return {x, t.mul(q.Y, zi, "y.affine")};
}

SmTrace build_sm_trace(const SmTraceOptions& opt) {
  FOURQ_SPAN("trace.build_sm");
  FOURQ_CHECK(opt.digits >= 2 && opt.digits <= curve::kDigits);
  SmTrace out;
  out.options = opt;
  Tracer t;

  CoreInputs in;
  in.zero = t.input("const.zero");
  in.one = t.input("const.one");
  in.two_d = t.input("const.2d");
  in.px = t.input("P.x");
  in.py = t.input("P.y");
  out.in_zero = in.zero.id;
  out.in_one = in.one.id;
  out.in_two_d = in.two_d.id;
  out.in_px = in.px.id;
  out.in_py = in.py.id;

  EndoConsts k;
  if (opt.endo == EndoVariant::kPaperCost) {
    k = endo_inputs(t, out.in_endo_consts);
    in.endo = &k;
  }

  CoreOutputs res = trace_sm_core(t, in, opt, 0);
  if (opt.include_inversion) {
    t.mark_output(res.xy[0], "x");
    t.mark_output(res.xy[1], "y");
  } else {
    t.mark_output(res.q.X, "X");
    t.mark_output(res.q.Y, "Y");
    t.mark_output(res.q.Z, "Z");
  }

  out.program = t.take_program();
  validate(out.program);
  return out;
}

DualSmTrace build_dual_sm_trace(const SmTraceOptions& opt) {
  FOURQ_CHECK(opt.digits >= 2 && opt.digits <= curve::kDigits);
  FOURQ_CHECK_MSG(opt.include_inversion, "dual-stream trace assumes affine outputs");
  DualSmTrace out;
  Tracer t;

  CoreInputs shared;
  shared.zero = t.input("const.zero");
  shared.one = t.input("const.one");
  shared.two_d = t.input("const.2d");
  out.in_zero = shared.zero.id;
  out.in_one = shared.one.id;
  out.in_two_d = shared.two_d.id;

  EndoConsts k;
  if (opt.endo == EndoVariant::kPaperCost) {
    k = endo_inputs(t, out.in_endo_consts);
    shared.endo = &k;
  }

  for (int s = 0; s < 2; ++s) {
    CoreInputs in = shared;
    in.px = t.input("P" + std::to_string(s) + ".x");
    in.py = t.input("P" + std::to_string(s) + ".y");
    out.in_px[static_cast<size_t>(s)] = in.px.id;
    out.in_py[static_cast<size_t>(s)] = in.py.id;
    CoreOutputs res = trace_sm_core(t, in, opt, s);
    t.mark_output(res.xy[0], "x" + std::to_string(s));
    t.mark_output(res.xy[1], "y" + std::to_string(s));
  }

  out.program = t.take_program();
  validate(out.program);
  return out;
}

LoopBodyTrace build_loop_body_trace() {
  LoopBodyTrace out;
  Tracer t;
  TR1 q;
  q.X = t.input("Qx");
  q.Y = t.input("Qy");
  q.Z = t.input("Qz");
  q.Ta = t.input("Ta");
  q.Tb = t.input("Tb");
  out.q_inputs = {q.X.id, q.Y.id, q.Z.id, q.Ta.id, q.Tb.id};
  TR2 e;
  e.xpy = t.input("T.xpy");
  e.ymx = t.input("T.ymx");
  e.z2 = t.input("T.2z");
  e.dt2 = t.input("T.2dt");
  out.table_inputs = {e.xpy.id, e.ymx.id, e.z2.id, e.dt2.id};

  TR1 r = curve::add(curve::dbl(q), e);
  t.mark_output(r.X, "Qx");
  t.mark_output(r.Y, "Qy");
  t.mark_output(r.Z, "Qz");
  t.mark_output(r.Ta, "Ta");
  t.mark_output(r.Tb, "Tb");
  out.program = t.take_program();
  validate(out.program);
  return out;
}

}  // namespace fourq::trace

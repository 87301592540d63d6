#include "trace/sm_trace.hpp"

#include <array>

#include "common/check.hpp"
#include "curve/point.hpp"
#include "curve/scalar.hpp"
#include "obs/obs.hpp"

namespace fourq::trace {

namespace {

using TR1 = curve::R1T<Fp2Var>;
using TR2 = curve::R2T<Fp2Var>;

TR1 dbl_n(TR1 p, int n) {
  for (int i = 0; i < n; ++i) p = curve::dbl(p);
  return p;
}

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

struct EndoStub {
  std::array<Fp2Var, 6> c;  // placeholder constants (RF-resident)
};

// tau: 4M + 3A, maps (X, Y, Z) to the hat-curve.
std::array<Fp2Var, 3> stub_tau(Tracer& t, const TR1& p, const EndoStub& k) {
  Fp2Var t0 = sqr(p.X);
  Fp2Var t1 = sqr(p.Y);
  Fp2Var x = t.mul(p.X, p.Y);
  Fp2Var z = t.mul(t0 + t1, k.c[0]);
  return {x, t1 - t0, z};
}

// tau_dual: 4M + 3A, maps back to extended twisted Edwards (R1).
TR1 stub_tau_dual(Tracer& t, const std::array<Fp2Var, 3>& w, const EndoStub& k) {
  Fp2Var t0 = sqr(w[0]);
  Fp2Var ta = t0 - w[1];
  Fp2Var tb = w[1] + w[2];
  Fp2Var x = t.mul(w[0], k.c[1]);
  Fp2Var y = t.mul(w[1], w[2]);
  Fp2Var z = t.mul(tb, k.c[2]);
  return TR1{x, y, z, ta, tb};
}

// phi_hat: 10M + 5A on the hat-curve (the heaviest CL map).
std::array<Fp2Var, 3> stub_phi_hat(Tracer& t, const std::array<Fp2Var, 3>& w,
                                   const EndoStub& k) {
  Fp2Var t0 = sqr(w[0]);
  Fp2Var t1 = sqr(w[1]);
  Fp2Var t2 = t.mul(t0, k.c[3]);
  Fp2Var t3 = t.mul(t1, k.c[4]);
  Fp2Var t4 = t.mul(w[0], w[1]);
  Fp2Var t5 = t.mul(w[2], k.c[5]);
  Fp2Var x = t.mul(t4, t2 + t3);
  Fp2Var y = t.mul(t5, t2 - t3);
  Fp2Var z = t.mul(t0 + t1, w[2]);
  return {x, y, z};
}

// psi_hat: 5M + 2A (the p-power Frobenius composite is cheap).
std::array<Fp2Var, 3> stub_psi_hat(Tracer& t, const std::array<Fp2Var, 3>& w,
                                   const EndoStub& k) {
  Fp2Var t0 = t.conj(w[0]);
  Fp2Var t1 = t.conj(w[1]);
  Fp2Var t2 = t.conj(w[2]);
  Fp2Var x = t.mul(t0, k.c[3]);
  Fp2Var z = t.mul(t2, k.c[4]);
  Fp2Var y = t.mul(t1, t2);
  Fp2Var y2 = t.mul(y, k.c[5]);
  Fp2Var x2 = t.mul(x, z);
  return {x2, y2, t0 + t2};
}

}  // namespace

namespace {

struct CoreInputs {
  Fp2Var zero, one, two_d, px, py;
  const EndoStub* endo = nullptr;  // null = functional (192-doubling) variant
};

struct CoreOutputs {
  TR1 q;                 // final accumulator (pre-normalisation)
  Fp2Var x, y;           // affine outputs (valid when inversion requested)
};

// Traces one complete Alg.-1 scalar multiplication into `t`. `stream`
// selects which runtime scalar the digit/correction reads bind to (0 or 1
// for dual-stream throughput programs).
CoreOutputs trace_sm_core(Tracer& t, const CoreInputs& in, const SmTraceOptions& opt,
                          int stream);

}  // namespace

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

  EndoStub k;
  if (opt.endo == EndoVariant::kPaperCost) {
    for (int i = 0; i < 6; ++i) {
      Fp2Var c = t.input("endo.c" + std::to_string(i));
      k.c[static_cast<size_t>(i)] = c;
      out.in_endo_consts.push_back(c.id);
    }
    in.endo = &k;
  }

  CoreOutputs res = trace_sm_core(t, in, opt, 0);
  if (opt.include_inversion) {
    t.mark_output(res.x, "x");
    t.mark_output(res.y, "y");
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

  EndoStub k;
  if (opt.endo == EndoVariant::kPaperCost) {
    for (int i = 0; i < 6; ++i) {
      Fp2Var c = t.input("endo.c" + std::to_string(i));
      k.c[static_cast<size_t>(i)] = c;
      out.in_endo_consts.push_back(c.id);
    }
    shared.endo = &k;
  }

  for (int s = 0; s < 2; ++s) {
    CoreInputs in = shared;
    in.px = t.input("P" + std::to_string(s) + ".x");
    in.py = t.input("P" + std::to_string(s) + ".y");
    out.in_px[static_cast<size_t>(s)] = in.px.id;
    out.in_py[static_cast<size_t>(s)] = in.py.id;
    CoreOutputs res = trace_sm_core(t, in, opt, s);
    t.mark_output(res.x, "x" + std::to_string(s));
    t.mark_output(res.y, "y" + std::to_string(s));
  }

  out.program = t.take_program();
  validate(out.program);
  return out;
}

namespace {

CoreOutputs trace_sm_core(Tracer& t, const CoreInputs& in, const SmTraceOptions& opt,
                          int stream) {
  const Fp2Var& zero = in.zero;
  const Fp2Var& one = in.one;
  const Fp2Var& two_d = in.two_d;
  int iter_base = stream * kStream2IterBase;

  TR1 p = curve::to_r1(curve::AffineT<Fp2Var>{in.px, in.py}, one);

  // Phase 1: auxiliary points (endomorphism substitutes).
  TR1 p2, p3, p4;
  if (in.endo == nullptr) {
    p2 = dbl_n(p, 64);
    p3 = dbl_n(p2, 64);
    p4 = dbl_n(p3, 64);
  } else {
    const EndoStub& k = *in.endo;
    auto w = stub_tau(t, p, k);
    p2 = stub_tau_dual(t, stub_phi_hat(t, w, k), k);          // "phi(P)"
    p3 = stub_tau_dual(t, stub_psi_hat(t, w, k), k);          // "psi(P)"
    auto w2 = stub_tau(t, p2, k);
    p4 = stub_tau_dual(t, stub_psi_hat(t, w2, k), k);         // "psi(phi(P))"
  }

  // Phase 2: 8-entry table, T[u] = P + u0 P2 + u1 P3 + u2 P4 (7 additions).
  TR2 p2r = curve::to_r2(p2, two_d);
  TR2 p3r = curve::to_r2(p3, two_d);
  TR2 p4r = curve::to_r2(p4, two_d);
  std::array<TR1, 8> t1;
  t1[0] = p;
  t1[1] = curve::add(t1[0], p2r);
  t1[2] = curve::add(t1[0], p3r);
  t1[3] = curve::add(t1[1], p3r);
  for (int u = 0; u < 4; ++u) t1[static_cast<size_t>(u + 4)] = curve::add(t1[static_cast<size_t>(u)], p4r);

  std::vector<Fp2Var> xpy(8), ymx(8), z2(8), dt2(8), ndt2(8);
  for (int u = 0; u < 8; ++u) {
    TR2 r2 = curve::to_r2(t1[static_cast<size_t>(u)], two_d);
    xpy[static_cast<size_t>(u)] = r2.xpy;
    ymx[static_cast<size_t>(u)] = r2.ymx;
    z2[static_cast<size_t>(u)] = r2.z2;
    dt2[static_cast<size_t>(u)] = r2.dt2;
    // Negated 2dT precomputed once so per-iteration sign handling is pure
    // register addressing (no extra per-iteration op).
    ndt2[static_cast<size_t>(u)] = t.sub(zero, r2.dt2, "T.ndt2[" + std::to_string(u) + "]");
  }

  // Phase 3: main double-and-add loop (paper Alg. 1 lines 6-10).
  t.set_iterations(opt.digits);
  TR1 q = curve::identity_r1(zero, one);
  for (int i = opt.digits - 1; i >= 0; --i) {
    if (i != opt.digits - 1) q = curve::dbl(q);
    TR2 sel;
    std::string tag = "@" + std::to_string(i) + "/s" + std::to_string(stream);
    sel.xpy = t.digit_select({xpy, ymx}, iter_base + i, "T.xpy" + tag);
    sel.ymx = t.digit_select({ymx, xpy}, iter_base + i, "T.ymx" + tag);
    sel.z2 = t.digit_select({z2, z2}, iter_base + i, "T.z2" + tag);
    sel.dt2 = t.digit_select({dt2, ndt2}, iter_base + i, "T.dt2" + tag);
    q = curve::add(q, sel);
  }

  // Phase 4: uniform even-k correction (one more complete addition).
  TR2 id_r2{one, one, one + one, zero};
  TR2 minus_p = curve::neg_r2(curve::to_r2(p, two_d), zero);
  TR2 corr;
  corr.xpy = t.correction_select(id_r2.xpy, minus_p.xpy, "corr.xpy", stream);
  corr.ymx = t.correction_select(id_r2.ymx, minus_p.ymx, "corr.ymx", stream);
  corr.z2 = t.correction_select(id_r2.z2, minus_p.z2, "corr.z2", stream);
  corr.dt2 = t.correction_select(id_r2.dt2, minus_p.dt2, "corr.dt2", stream);
  q = curve::add(q, corr);

  // Phase 5: normalisation.
  CoreOutputs res;
  res.q = q;
  if (opt.include_inversion) {
    Fp2Var zi = fp2_inverse(t, q.Z);
    res.x = t.mul(q.X, zi, "x.affine");
    res.y = t.mul(q.Y, zi, "y.affine");
  }
  return res;
}

}  // namespace

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

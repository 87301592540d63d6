#include "asic/looped.hpp"

#include <algorithm>
#include <numeric>

#include "asic/machine_state.hpp"
#include "common/check.hpp"
#include "curve/scalarmul.hpp"

namespace fourq::asic {

using curve::kDigits;
using trace::Fp2Var;
using trace::Tracer;

namespace {

using trace::TR1;
using trace::TR2;

// Architectural register-file slot layout shared by the three segments.
struct ArchLayout {
  static constexpr int kZero = 0, kOne = 1, kTwoD = 2;
  static constexpr int kEndoBase = 3;   // 6 slots
  static constexpr int kPx = 9, kPy = 10;
  static constexpr int kXpy = 11;       // +u, u < 8
  static constexpr int kYmx = 19;
  static constexpr int kZ2 = 27;
  static constexpr int kDt2 = 35;
  static constexpr int kNdt2 = 43;
  static constexpr int kCorrOdd = 51;   // xpy, ymx, z2, dt2
  static constexpr int kCorrEven = 55;  // xpy, ymx, z2, dt2
  static constexpr int kBankA = 59;     // X, Y, Z, Ta, Tb
  static constexpr int kBankB = 64;
  static constexpr int kTempBase = 72;
};

// The table's five columns: name and first slot (entry u sits at slot + u).
struct TableColumn {
  std::vector<Fp2Var> trace::TableCols::*col;
  const char* name;
  int slot;
};
constexpr TableColumn kTableColumns[] = {
    {&trace::TableCols::xpy, "T.xpy", ArchLayout::kXpy},
    {&trace::TableCols::ymx, "T.ymx", ArchLayout::kYmx},
    {&trace::TableCols::z2, "T.z2", ArchLayout::kZ2},
    {&trace::TableCols::dt2, "T.dt2", ArchLayout::kDt2},
    {&trace::TableCols::ndt2, "T.ndt2", ArchLayout::kNdt2},
};

}  // namespace

LoopedSm build_looped_sm(const LoopedSmOptions& opt) {
  using L = ArchLayout;
  FOURQ_CHECK_MSG(opt.body_unroll >= 1 && kDigits % opt.body_unroll == 0,
                  "body_unroll must divide the digit count (1, 5 or 13)");
  FOURQ_CHECK(opt.body_unroll - 1 <= trace::kMaxCounterOffset);
  LoopedSm out;
  out.iterations = kDigits / opt.body_unroll;  // replays; the first replay's
                                               // leading doubling hits the identity
  out.body_unroll = opt.body_unroll;
  for (int i = 0; i < 5; ++i) {
    out.bank_a[static_cast<size_t>(i)] = L::kBankA + i;
    out.bank_b[static_cast<size_t>(i)] = L::kBankB + i;
  }

  sched::CompileOptions copt;
  copt.cfg = opt.cfg;
  copt.solver = opt.solver;

  // ---- Prologue: constants + table + correction candidates + Q0. ----------
  {
    Tracer t;
    sched::PinSpec pins;
    pins.temp_base = L::kTempBase;
    auto pin = [&](const Fp2Var& v, int slot) { pins.pins.emplace_back(v.id, slot); };
    auto pin_r2 = [&](const TR2& v, int slot) {
      for (const Fp2Var& x : {v.xpy, v.ymx, v.z2, v.dt2}) pin(x, slot++);
    };

    Fp2Var zero = t.input("const.zero");
    Fp2Var one = t.input("const.one");
    Fp2Var two_d = t.input("const.2d");
    Fp2Var px = t.input("P.x");
    Fp2Var py = t.input("P.y");
    pin(zero, L::kZero);
    pin(one, L::kOne);
    pin(two_d, L::kTwoD);
    pin(px, L::kPx);
    pin(py, L::kPy);
    out.in_zero = zero.id;
    out.in_one = one.id;
    out.in_two_d = two_d.id;
    out.in_px = px.id;
    out.in_py = py.id;

    const TR1 p = curve::to_r1(curve::AffineT<Fp2Var>{px, py}, one);
    trace::EndoConsts k;
    const bool paper = opt.endo == trace::EndoVariant::kPaperCost;
    if (paper) {
      k = trace::endo_inputs(t, out.in_endo_consts);
      for (int i = 0; i < 6; ++i) pin(k[static_cast<size_t>(i)], L::kEndoBase + i);
    }
    const trace::TableCols c = trace::table_cols(
        t, curve::table_r1(p, trace::aux_points(t, p, paper ? &k : nullptr), two_d), zero,
        two_d);
    for (int u = 0; u < 8; ++u)
      for (const TableColumn& tc : kTableColumns) {
        const Fp2Var& v = (c.*tc.col)[static_cast<size_t>(u)];
        pin(v, tc.slot + u);
        t.mark_output(v, tc.name + std::to_string(u));
      }

    // Correction candidates, each in its own architectural slot: the
    // identity (1, 1, 2, 0) in R2 by explicit copies, and -P.
    const TR2 odd{t.add(one, zero, "corr.odd.xpy"), t.add(one, zero, "corr.odd.ymx"),
                  t.add(one, one, "corr.odd.z2"), t.add(zero, zero, "corr.odd.dt2")};
    const TR2 even = curve::neg_r2(curve::to_r2(p, two_d), zero);
    pin_r2(odd, L::kCorrOdd);
    pin_r2(even, L::kCorrEven);
    for (const TR2& v : {odd, even})
      for (const Fp2Var& x : {v.xpy, v.ymx, v.z2, v.dt2})
        t.mark_output(x, "corr." + std::to_string(x.id));

    // Initial accumulator Q = identity, copied into bank A.
    Fp2Var q0x = t.add(zero, zero, "Q0.X");
    Fp2Var q0y = t.add(one, zero, "Q0.Y");
    Fp2Var q0z = t.add(one, zero, "Q0.Z");
    Fp2Var q0ta = t.add(zero, zero, "Q0.Ta");
    Fp2Var q0tb = t.add(one, zero, "Q0.Tb");
    const Fp2Var q0[5] = {q0x, q0y, q0z, q0ta, q0tb};
    for (int i = 0; i < 5; ++i) {
      pin(q0[i], L::kBankA + i);
      t.mark_output(q0[i], "Q0." + std::to_string(i));
    }

    out.prologue_program = t.take_program();
    out.prologue = sched::compile_block(out.prologue_program, copt, pins).sm;
  }

  // ---- Body: one dbl+add replayed per digit (counter-indexed reads). ------
  {
    Tracer t;
    sched::PinSpec pins;
    pins.temp_base = L::kTempBase;
    auto pin = [&](const Fp2Var& v, int slot) { pins.pins.emplace_back(v.id, slot); };

    TR1 q;
    q.X = t.input("Qx");
    q.Y = t.input("Qy");
    q.Z = t.input("Qz");
    q.Ta = t.input("Ta");
    q.Tb = t.input("Tb");
    const Fp2Var qin[5] = {q.X, q.Y, q.Z, q.Ta, q.Tb};
    for (int i = 0; i < 5; ++i) pin(qin[i], L::kBankA + i);

    trace::TableCols c;
    for (int u = 0; u < 8; ++u)
      for (const TableColumn& tc : kTableColumns) {
        (c.*tc.col).push_back(t.input(tc.name + std::to_string(u)));
        pin((c.*tc.col).back(), tc.slot + u);
      }

    // The loop step of curve::digit_loop, always doubling: the first replay
    // doubles the identity, a no-op.
    TR1 r = q;
    for (int o = 0; o < opt.body_unroll; ++o) {
      const TR2 sel = trace::digit_read(t, c, trace::counter_iter_with_offset(o),
                                        "@i-" + std::to_string(o));
      r = curve::add(curve::dbl(r), sel);
    }
    const Fp2Var qout[5] = {r.X, r.Y, r.Z, r.Ta, r.Tb};
    const char* names[5] = {"Qx", "Qy", "Qz", "Ta", "Tb"};
    for (int i = 0; i < 5; ++i) {
      pin(qout[i], L::kBankB + i);
      t.mark_output(qout[i], names[i]);
    }
    out.body_program = t.take_program();
    out.body = sched::compile_block(out.body_program, copt, pins).sm;
  }

  // ---- Epilogue: correction addition + normalisation. ----------------------
  {
    Tracer t;
    sched::PinSpec pins;
    pins.temp_base = L::kTempBase;
    auto pin = [&](const Fp2Var& v, int slot) { pins.pins.emplace_back(v.id, slot); };

    TR1 q;
    q.X = t.input("Qx");
    q.Y = t.input("Qy");
    q.Z = t.input("Qz");
    q.Ta = t.input("Ta");
    q.Tb = t.input("Tb");
    const Fp2Var qin[5] = {q.X, q.Y, q.Z, q.Ta, q.Tb};
    // The 65th body replay writes bank B (see simulate_looped).
    for (int i = 0; i < 5; ++i) pin(qin[i], L::kBankB + i);

    Fp2Var co[4], ce[4];
    const char* coord[4] = {"xpy", "ymx", "z2", "dt2"};
    for (int i = 0; i < 4; ++i) {
      co[i] = t.input(std::string("corr.odd.") + coord[i]);
      ce[i] = t.input(std::string("corr.even.") + coord[i]);
      pin(co[i], L::kCorrOdd + i);
      pin(ce[i], L::kCorrEven + i);
    }
    const TR1 final_q = curve::add(
        q, trace::correction_read(t, TR2{co[0], co[1], co[2], co[3]},
                                  TR2{ce[0], ce[1], ce[2], ce[3]}, 0));
    const auto xy = trace::normalise(t, final_q);
    t.mark_output(xy[0], "x");
    t.mark_output(xy[1], "y");

    out.epilogue_program = t.take_program();
    out.epilogue = sched::compile_block(out.epilogue_program, copt, pins).sm;
  }

  // One register file for the three segments: the largest one's demand.
  out.rf_size = std::max({out.prologue.rf_slots, out.body.rf_slots, out.epilogue.rf_slots});
  for (sched::CompiledSm* seg : {&out.prologue, &out.body, &out.epilogue})
    seg->cfg.rf_size = out.rf_size;
  return out;
}

SimResult simulate_looped(const LoopedSm& sm, const trace::InputBindings& inputs,
                          const trace::EvalContext& base_ctx,
                          obs::CycleEventSink* sink) {
  detail::MachineState m(sm.prologue.cfg, sm.rf_size, &base_ctx);
  m.set_event_sink(sink);

  // Bind prologue inputs.
  for (const auto& [op_id, reg] : sm.prologue.preload) {
    bool bound = false;
    for (const auto& [id, v] : inputs) {
      if (id == op_id) {
        m.preload(reg, v);
        bound = true;
        break;
      }
    }
    FOURQ_CHECK_MSG(bound, "prologue input op " + std::to_string(op_id) + " not bound");
  }

  detail::RegTranslate identity;
  detail::RegTranslate swapped(static_cast<size_t>(sm.rf_size));
  std::iota(swapped.begin(), swapped.end(), 0);
  for (int i = 0; i < 5; ++i) {
    std::swap(swapped[static_cast<size_t>(sm.bank_a[static_cast<size_t>(i)])],
              swapped[static_cast<size_t>(sm.bank_b[static_cast<size_t>(i)])]);
  }

  int t = 0;
  trace::EvalContext ctx = base_ctx;

  for (int i = 0; i < sm.prologue.cycles(); ++i, ++t)
    m.step(sm.prologue.rom[static_cast<size_t>(i)], sm.prologue.select_maps, t, identity, ctx);
  FOURQ_CHECK(m.pipelines_empty());

  for (int j = 0; j < sm.iterations; ++j) {
    // Top digit of this replay's group (the body reads counter, counter-1,
    // ..., counter-(unroll-1)).
    ctx.counter_iter = curve::kDigits - 1 - j * sm.body_unroll;
    const detail::RegTranslate& tr = (j % 2 == 0) ? identity : swapped;
    for (int i = 0; i < sm.body.cycles(); ++i, ++t)
      m.step(sm.body.rom[static_cast<size_t>(i)], sm.body.select_maps, t, tr, ctx);
    FOURQ_CHECK(m.pipelines_empty());
  }

  // The final accumulator sits in physical bank B when the last replay used
  // the identity translation (even last index), bank A otherwise.
  const detail::RegTranslate& epi_tr =
      ((sm.iterations - 1) % 2 == 0) ? identity : swapped;
  ctx.counter_iter = -1;
  for (int i = 0; i < sm.epilogue.cycles(); ++i, ++t)
    m.step(sm.epilogue.rom[static_cast<size_t>(i)], sm.epilogue.select_maps, t, epi_tr, ctx);
  FOURQ_CHECK(m.pipelines_empty());

  SimResult res;
  res.stats = m.stats();
  FOURQ_CHECK_MSG(res.stats.cycles == t, "event-derived cycle count out of sync");
  for (const auto& [name, reg] : sm.epilogue.outputs) res.outputs[name] = m.peek(reg);
  return res;
}

}  // namespace fourq::asic

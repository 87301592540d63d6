#include "engine/decoded.hpp"

#include <algorithm>

#include "asic/select_resolve.hpp"
#include "common/check.hpp"
#include "engine/lanes.hpp"

namespace fourq::engine {

using field::Fp2;

namespace {

DecodedSrc decode_src(const sched::SrcSel& s) {
  DecodedSrc d;
  switch (s.kind) {
    case sched::SrcSel::Kind::kNone:
      d.kind = DecodedSrc::Kind::kNone;
      break;
    case sched::SrcSel::Kind::kReg:
      d.kind = DecodedSrc::Kind::kReg;
      d.reg = static_cast<int16_t>(s.reg);
      break;
    case sched::SrcSel::Kind::kMulBus:
      d.kind = DecodedSrc::Kind::kMulBus;
      d.unit = static_cast<uint8_t>(s.unit);
      break;
    case sched::SrcSel::Kind::kAddBus:
      d.kind = DecodedSrc::Kind::kAddBus;
      d.unit = static_cast<uint8_t>(s.unit);
      break;
    case sched::SrcSel::Kind::kIndexed:
      d.kind = DecodedSrc::Kind::kIndexed;
      d.map = static_cast<int16_t>(s.map);
      d.iter = static_cast<int16_t>(s.iter);
      break;
  }
  return d;
}

bool is_rf_read(const DecodedSrc& s) {
  return s.kind == DecodedSrc::Kind::kReg || s.kind == DecodedSrc::Kind::kIndexed;
}

bool is_forward(const DecodedSrc& s) {
  return s.kind == DecodedSrc::Kind::kMulBus || s.kind == DecodedSrc::Kind::kAddBus;
}

}  // namespace

DecodedRom decode(const sched::CompiledSm& sm) {
  DecodedRom rom;
  rom.cycles = sm.cycles();
  rom.rf_slots = sm.rf_slots;
  rom.cfg = sm.cfg;
  rom.select_maps = sm.select_maps;
  rom.preload = sm.preload;
  rom.outputs = sm.outputs;

  asic::SimStats& st = rom.stats;
  st.cycles = rom.cycles;
  for (int t = 0; t < rom.cycles; ++t) {
    const sched::CtrlWord& w = sm.rom[static_cast<size_t>(t)];
    int reads = 0;
    if (w.mul.empty() && w.addsub.empty()) ++st.stall_cycles;
    for (const sched::UnitCtrl& u : w.mul) {
      FOURQ_CHECK(u.unit >= 0 && u.unit < sm.cfg.num_multipliers);
      DecodedIssue iss;
      iss.cycle = t;
      iss.op = u.op;
      iss.unit = static_cast<uint8_t>(u.unit);
      iss.a = decode_src(u.a);
      iss.b = decode_src(u.b);
      rom.mul.push_back(iss);
      ++st.mul_issues;
      reads += is_rf_read(iss.a) + is_rf_read(iss.b);
      st.forwarded_operands += is_forward(iss.a) + is_forward(iss.b);
    }
    for (const sched::UnitCtrl& u : w.addsub) {
      FOURQ_CHECK(u.unit >= 0 && u.unit < sm.cfg.num_addsubs);
      DecodedIssue iss;
      iss.cycle = t;
      iss.op = u.op;
      iss.unit = static_cast<uint8_t>(u.unit);
      iss.a = decode_src(u.a);
      iss.b = decode_src(u.b);
      // kConj consumes only operand a; the simulator never resolves b.
      if (iss.op == trace::OpKind::kConj) iss.b = DecodedSrc{};
      rom.addsub.push_back(iss);
      ++st.addsub_issues;
      reads += is_rf_read(iss.a) + is_rf_read(iss.b);
      st.forwarded_operands += is_forward(iss.a) + is_forward(iss.b);
    }
    for (const sched::WbCtrl& wb : w.writebacks) {
      FOURQ_CHECK(wb.reg >= 0 && wb.reg < sm.rf_slots);
      DecodedWb d;
      d.cycle = t;
      d.reg = static_cast<int16_t>(wb.reg);
      d.from_mul = wb.from_mul;
      d.unit = static_cast<uint8_t>(wb.unit);
      rom.writebacks.push_back(d);
    }
    st.rf_reads += reads;
    st.max_reads_in_cycle = std::max(st.max_reads_in_cycle, reads);
    st.rf_writes += static_cast<int>(w.writebacks.size());
    st.max_writes_in_cycle =
        std::max(st.max_writes_in_cycle, static_cast<int>(w.writebacks.size()));
  }
  rom.lanes = lower_lanes(rom);
  return rom;
}

void SimWorkspace::prepare(const DecodedRom& rom) {
  rf.assign(static_cast<size_t>(rom.rf_slots), Fp2());
  mul_pipes.assign(static_cast<size_t>(rom.cfg.num_multipliers),
                   asic::PipeRing(rom.cfg.mul_latency));
  add_pipes.assign(static_cast<size_t>(rom.cfg.num_addsubs),
                   asic::PipeRing(rom.cfg.addsub_latency));
}

namespace {

inline const Fp2& resolve(const DecodedSrc& s, int t, const DecodedRom& rom,
                          const SimWorkspace& ws, const trace::EvalContext& ctx) {
  switch (s.kind) {
    case DecodedSrc::Kind::kReg:
      return ws.rf[static_cast<size_t>(s.reg)];
    case DecodedSrc::Kind::kIndexed:
      return ws.rf[static_cast<size_t>(asic::resolve_select_reg(
          rom.select_maps[static_cast<size_t>(s.map)], s.iter, ctx))];
    case DecodedSrc::Kind::kMulBus:
      return ws.mul_pipes[s.unit].get(t);
    case DecodedSrc::Kind::kAddBus:
      return ws.add_pipes[s.unit].get(t);
    case DecodedSrc::Kind::kNone:
      break;
  }
  FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
}

}  // namespace

void run(const DecodedRom& rom, const trace::InputBindings& inputs,
         const trace::EvalContext& ctx, SimWorkspace& ws) {
  if (ws.rf.size() != static_cast<size_t>(rom.rf_slots) ||
      ws.mul_pipes.size() != static_cast<size_t>(rom.cfg.num_multipliers)) {
    ws.prepare(rom);
  }

  for (const auto& [op_id, reg] : rom.preload) {
    bool bound = false;
    for (const auto& [id, v] : inputs) {
      if (id == op_id) {
        ws.rf[static_cast<size_t>(reg)] = v;
        bound = true;
        break;
      }
    }
    FOURQ_CHECK_MSG(bound, "input op " + std::to_string(op_id) + " not bound");
  }

  // Three cursors over the cycle-sorted streams replace simulate()'s
  // per-cycle vectors-of-vectors walk. Stale PipeRing slots from a previous
  // job are harmless: a forwarded/written-back result at cycle t exists only
  // because this program issued it (put() overwrites unconditionally), and
  // the schedule's legality was established against the reference simulator.
  size_t mi = 0, ai = 0, wi = 0;
  const size_t mn = rom.mul.size(), an = rom.addsub.size(), wn = rom.writebacks.size();
  for (int t = 0; t < rom.cycles; ++t) {
    for (; mi < mn && rom.mul[mi].cycle == t; ++mi) {
      const DecodedIssue& u = rom.mul[mi];
      const Fp2& a = resolve(u.a, t, rom, ws, ctx);
      const Fp2& b = resolve(u.b, t, rom, ws, ctx);
      ws.mul_pipes[u.unit].put(t + rom.cfg.mul_latency, Fp2::mul_karatsuba(a, b));
    }
    for (; ai < an && rom.addsub[ai].cycle == t; ++ai) {
      const DecodedIssue& u = rom.addsub[ai];
      const Fp2& a = resolve(u.a, t, rom, ws, ctx);
      Fp2 r;
      switch (u.op) {
        case trace::OpKind::kAdd:
          r = a + resolve(u.b, t, rom, ws, ctx);
          break;
        case trace::OpKind::kSub:
          r = a - resolve(u.b, t, rom, ws, ctx);
          break;
        case trace::OpKind::kConj:
          r = a.conj();
          break;
        default:
          FOURQ_CHECK_MSG(false, "invalid decoded adder opcode");
      }
      ws.add_pipes[u.unit].put(t + rom.cfg.addsub_latency, r);
    }
    for (; wi < wn && rom.writebacks[wi].cycle == t; ++wi) {
      const DecodedWb& wb = rom.writebacks[wi];
      const asic::PipeRing& pipe =
          wb.from_mul ? ws.mul_pipes[wb.unit] : ws.add_pipes[wb.unit];
      ws.rf[static_cast<size_t>(wb.reg)] = pipe.get(t);
    }
  }
}

const Fp2& output_value(const DecodedRom& rom, const SimWorkspace& ws,
                        const std::string& name) {
  for (const auto& [n, reg] : rom.outputs)
    if (n == name) return ws.rf[static_cast<size_t>(reg)];
  FOURQ_CHECK_MSG(false, "unknown output '" + name + "'");
}

}  // namespace fourq::engine

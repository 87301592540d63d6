#include "engine/lanes.hpp"

#include <cstdint>
#include <map>

#include "asic/select_resolve.hpp"
#include "common/check.hpp"

namespace fourq::engine {

using field::Fp2;
namespace lk = field::lanes;

LaneProgram lower_lanes(const DecodedRom& rom) {
  const sched::MachineConfig& cfg = rom.cfg;
  const int mul_ring = cfg.mul_latency + 1, add_ring = cfg.addsub_latency + 1;
  const int mul_base = rom.rf_slots;
  const int add_base = mul_base + cfg.num_multipliers * mul_ring;
  LaneProgram lp;
  lp.slots = add_base + cfg.num_addsubs * add_ring;
  FOURQ_CHECK_MSG(lp.slots <= 0xffff, "too many state slots for a lane program");
  auto mul_slot = [&](int unit, int t) {
    return static_cast<uint16_t>(mul_base + unit * mul_ring + t % mul_ring);
  };
  auto add_slot = [&](int unit, int t) {
    return static_cast<uint16_t>(add_base + unit * add_ring + t % add_ring);
  };
  lp.ops.reserve(rom.mul.size() + rom.addsub.size() + rom.writebacks.size());
  std::map<std::pair<int16_t, int16_t>, uint16_t> rows;
  // Returns the operand's slot, or its gather row (setting `gathered`).
  auto source = [&](const DecodedSrc& s, int t, bool& gathered) -> uint16_t {
    gathered = false;
    switch (s.kind) {
      case DecodedSrc::Kind::kReg:
        FOURQ_CHECK(s.reg >= 0 && s.reg < rom.rf_slots);
        return static_cast<uint16_t>(s.reg);
      case DecodedSrc::Kind::kMulBus:
        FOURQ_CHECK(s.unit < cfg.num_multipliers);
        return mul_slot(s.unit, t);
      case DecodedSrc::Kind::kAddBus:
        FOURQ_CHECK(s.unit < cfg.num_addsubs);
        return add_slot(s.unit, t);
      case DecodedSrc::Kind::kIndexed: {
        gathered = true;
        auto [it, fresh] = rows.try_emplace({s.map, s.iter}, static_cast<uint16_t>(rows.size()));
        if (fresh) {
          FOURQ_CHECK_MSG(rows.size() <= 0xffff, "too many gather rows for a lane program");
          // Every register the select can pick must be a state slot.
          FOURQ_CHECK(s.map >= 0 && static_cast<size_t>(s.map) < rom.select_maps.size());
          for (const std::vector<int>& variant : rom.select_maps[static_cast<size_t>(s.map)].reg)
            for (int r : variant)
              FOURQ_CHECK_MSG(r >= 0 && r < rom.rf_slots, "select map register out of range");
          lp.gathers.emplace_back(s.map, s.iter);
        }
        return it->second;
      }
      case DecodedSrc::Kind::kNone:
        break;
    }
    FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
  };
  auto issue = [&](const DecodedIssue& u, uint8_t kind, uint16_t dst, int t) {
    lk::SlotOp op;
    op.kind = kind;
    op.dst = dst;
    bool ga = false, gb = false;
    op.a = source(u.a, t, ga);
    if (kind != lk::SlotOp::kConj) op.b = source(u.b, t, gb);
    op.gather = static_cast<uint8_t>((ga ? lk::SlotOp::kGatherA : 0) |
                                     (gb ? lk::SlotOp::kGatherB : 0));
    lp.ops.push_back(op);
  };

  size_t mi = 0, ai = 0, wi = 0;
  for (int t = 0; t < rom.cycles; ++t) {
    for (; mi < rom.mul.size() && rom.mul[mi].cycle == t; ++mi)
      issue(rom.mul[mi], lk::SlotOp::kMul,
            mul_slot(rom.mul[mi].unit, t + cfg.mul_latency), t);
    for (; ai < rom.addsub.size() && rom.addsub[ai].cycle == t; ++ai) {
      const DecodedIssue& u = rom.addsub[ai];
      uint8_t kind = lk::SlotOp::kAdd;
      if (u.op == trace::OpKind::kSub) kind = lk::SlotOp::kSub;
      else if (u.op == trace::OpKind::kConj) kind = lk::SlotOp::kConj;
      else FOURQ_CHECK_MSG(u.op == trace::OpKind::kAdd, "invalid decoded adder opcode");
      issue(u, kind, add_slot(u.unit, t + cfg.addsub_latency), t);
    }
    for (; wi < rom.writebacks.size() && rom.writebacks[wi].cycle == t; ++wi) {
      const DecodedWb& wb = rom.writebacks[wi];
      lk::SlotOp op;
      op.kind = lk::SlotOp::kCopy;
      op.dst = static_cast<uint16_t>(wb.reg);
      op.a = wb.from_mul ? mul_slot(wb.unit, t) : add_slot(wb.unit, t);
      lp.ops.push_back(op);
    }
  }
  for (const auto& [op_id, reg] : rom.preload) {
    FOURQ_CHECK(reg >= 0 && reg < rom.rf_slots);
    lp.inputs.push_back(static_cast<uint16_t>(reg));
  }
  for (const auto& [name, reg] : rom.outputs) {
    FOURQ_CHECK(reg >= 0 && reg < rom.rf_slots);
    lp.outputs.push_back(static_cast<uint16_t>(reg));
  }
  return lp;
}

lk::SlotProgram LaneProgram::view() const {
  lk::SlotProgram p;
  p.ops = ops.data();
  p.n_ops = ops.size();
  p.inputs = inputs.data();
  p.n_inputs = inputs.size();
  p.outputs = outputs.data();
  p.n_outputs = outputs.size();
  return p;
}

void run_lanes(const DecodedRom& rom, const trace::InputBindings* inputs,
               const trace::EvalContext* ctxs, int lanes, LaneWorkspace& ws) {
  FOURQ_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes, "lane count out of range");
  const LaneProgram& lp = rom.lanes;
  constexpr size_t kW = lk::kWaveLanes;
  // resize() keeps capacity: no allocation once sized for the program.
  ws.in_re.resize(lp.inputs.size() * kW);
  ws.in_im.resize(lp.inputs.size() * kW);
  ws.gather.resize(lp.gathers.size() * kW);
  ws.out_re.resize(lp.outputs.size() * kW);
  ws.out_im.resize(lp.outputs.size() * kW);
  // One cache line of slack so the state can start 64-byte aligned.
  ws.state.resize(static_cast<size_t>(lp.slots) * lk::kSlotStateBytes / sizeof(uint64_t) + 8);
  ws.width = lanes;

  for (size_t i = 0; i < rom.preload.size(); ++i) {
    const int op_id = rom.preload[i].first;
    for (int l = 0; l < lanes; ++l) {
      bool bound = false;
      for (const auto& [id, v] : inputs[l]) {
        if (id == op_id) {
          lk::split(v, ws.in_re[i * kW + static_cast<size_t>(l)],
                    ws.in_im[i * kW + static_cast<size_t>(l)]);
          bound = true;
          break;
        }
      }
      FOURQ_CHECK_MSG(bound, "input op " + std::to_string(op_id) + " not bound");
    }
  }
  // Each select's register depends on the lane's recoded scalar: resolved
  // here once per wave, then read per lane by every op that gathers it.
  for (size_t g = 0; g < lp.gathers.size(); ++g) {
    const auto [map, iter] = lp.gathers[g];
    const sched::SelectMap& m = rom.select_maps[static_cast<size_t>(map)];
    for (int l = 0; l < lanes; ++l)
      ws.gather[g * kW + static_cast<size_t>(l)] =
          static_cast<uint16_t>(asic::resolve_select_reg(m, iter, ctxs[l]));
  }

  lk::SlotWave wave;
  wave.lanes = static_cast<size_t>(lanes);
  wave.in_re = ws.in_re.data();
  wave.in_im = ws.in_im.data();
  wave.gather = ws.gather.data();
  wave.out_re = ws.out_re.data();
  wave.out_im = ws.out_im.data();
  const uintptr_t base = reinterpret_cast<uintptr_t>(ws.state.data());
  wave.state = reinterpret_cast<void*>((base + 63) & ~uintptr_t{63});
  lk::active().run_slots(lp.view(), wave);
}

Fp2 lane_output(const DecodedRom& rom, const LaneWorkspace& ws, const std::string& name,
                int lane) {
  FOURQ_CHECK_MSG(lane >= 0 && lane < ws.width, "lane out of range");
  for (size_t i = 0; i < rom.outputs.size(); ++i) {
    if (rom.outputs[i].first == name) {
      const size_t at = i * lk::kWaveLanes + static_cast<size_t>(lane);
      return lk::join(ws.out_re[at], ws.out_im[at]);
    }
  }
  FOURQ_CHECK_MSG(false, "unknown output '" + name + "'");
}

}  // namespace fourq::engine

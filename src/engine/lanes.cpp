#include "engine/lanes.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "asic/select_resolve.hpp"
#include "common/check.hpp"

namespace fourq::engine {

using field::Fp2;
namespace lk = field::lanes;

LaneProgram lower_lanes(const DecodedRom& rom) {
  const sched::MachineConfig& cfg = rom.cfg;
  constexpr int32_t kNone = -1;
  const size_t n_in = rom.preload.size(), n_ops = rom.mul.size() + rom.addsub.size();
  const int32_t readout = static_cast<int32_t>(n_ops) + 1;
  LaneProgram lp;
  lp.ops.resize(n_ops);

  // Pass 1, in run_lanes' order: number the values. Value v < n_in is
  // preload v and value n_in + i the result of op i; positions order the
  // definitions and reads (the preloads at 0, op i at i + 1, then the
  // readout). An issue's value lands on its unit's ring position `latency`
  // cycles later, and a writeback only renames its register to it.
  std::vector<int32_t> reg_val(static_cast<size_t>(rom.rf_slots), kNone);
  std::vector<int32_t> last(n_in + n_ops);  // each value's last read (its def if none)
  for (size_t v = 0; v < n_in; ++v) {
    const int reg = rom.preload[v].second;
    FOURQ_CHECK(reg >= 0 && reg < rom.rf_slots);
    reg_val[static_cast<size_t>(reg)] = static_cast<int32_t>(v);
  }
  auto reg_value = [&](int reg) {
    const int32_t v = reg_val[static_cast<size_t>(reg)];
    FOURQ_CHECK_MSG(v != kNone, "read of register r" + std::to_string(reg) +
                                    ", which no preload or earlier op wrote");
    return v;
  };
  struct Landing {  // a unit's result due at one ring position
    int32_t cycle = -1, value = kNone;
  };
  const int mul_ring = cfg.mul_latency + 1, add_ring = cfg.addsub_latency + 1;
  std::vector<Landing> mul_land(static_cast<size_t>(cfg.num_multipliers * mul_ring));
  std::vector<Landing> add_land(static_cast<size_t>(cfg.num_addsubs * add_ring));
  auto landing = [&](bool mul, int unit, int cycle) -> Landing& {
    FOURQ_CHECK(unit < (mul ? cfg.num_multipliers : cfg.num_addsubs));
    const int ring = mul ? mul_ring : add_ring;
    return (mul ? mul_land : add_land)[static_cast<size_t>(unit * ring + cycle % ring)];
  };
  // The value landing on a unit's bus at cycle t.
  auto landed = [&](bool mul, int unit, int t) {
    const Landing& l = landing(mul, unit, t);
    FOURQ_CHECK_MSG(l.cycle == t, "bus read or writeback with no result landing");
    return l.value;
  };

  // A gathered operand reads through its select map translated to values:
  // those its candidate registers hold at that point. Gathers with equal
  // translations share them, and each gather keeps all of its
  // translation's values alive up to that gather. A translation is keyed
  // by its signature: the map kind, then each variant's size and values.
  std::map<std::vector<int32_t>, int32_t> xlat_of;  // signature -> translation
  std::vector<int32_t> xlat_pos, sig;  // each translation's last gather; scratch
  std::map<std::pair<int32_t, int16_t>, uint16_t> rows;  // (translation, digit) -> row
  auto gather_row = [&](const DecodedSrc& s, int32_t pos) -> int32_t {
    FOURQ_CHECK(s.map >= 0 && static_cast<size_t>(s.map) < rom.select_maps.size());
    const sched::SelectMap& m = rom.select_maps[static_cast<size_t>(s.map)];
    sig.assign(1, static_cast<int32_t>(m.kind));
    for (const std::vector<int>& variant : m.reg) {
      sig.push_back(static_cast<int32_t>(variant.size()));
      for (int r : variant) {
        FOURQ_CHECK_MSG(r >= 0 && r < rom.rf_slots, "select map register out of range");
        sig.push_back(reg_value(r));
      }
    }
    const auto [xt, added] = xlat_of.try_emplace(sig, static_cast<int32_t>(xlat_pos.size()));
    if (added) {
      FOURQ_CHECK_MSG(xlat_pos.size() < INT16_MAX,
                      "too many select translations for a lane program");
      xlat_pos.push_back(pos);
    }
    const int32_t x = xt->second;
    xlat_pos[static_cast<size_t>(x)] = pos;
    const auto [it, fresh] = rows.try_emplace({x, s.iter}, static_cast<uint16_t>(rows.size()));
    if (fresh) {
      FOURQ_CHECK_MSG(rows.size() <= 0xffff, "too many gather rows for a lane program");
      lp.gathers.emplace_back(static_cast<int16_t>(x), s.iter);
    }
    return it->second;
  };
  // Returns the operand's value, or its gather row (setting `gathered`).
  auto read = [&](const DecodedSrc& s, int t, int32_t pos, bool& gathered) -> int32_t {
    gathered = false;
    int32_t v = kNone;
    switch (s.kind) {
      case DecodedSrc::Kind::kReg:
        FOURQ_CHECK(s.reg >= 0 && s.reg < rom.rf_slots);
        v = reg_value(s.reg);
        break;
      case DecodedSrc::Kind::kMulBus:
      case DecodedSrc::Kind::kAddBus:
        v = landed(s.kind == DecodedSrc::Kind::kMulBus, s.unit, t);
        break;
      case DecodedSrc::Kind::kIndexed:
        gathered = true;
        return gather_row(s, pos);
      case DecodedSrc::Kind::kNone:
        FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
    }
    last[static_cast<size_t>(v)] = pos;  // reads arrive in position order
    return v;
  };
  std::vector<int32_t> ref_a(n_ops), ref_b(n_ops);  // operand values or gather rows
  size_t op = 0;
  auto issue = [&](const DecodedIssue& u, uint8_t kind, bool mul, int t) {
    const int32_t pos = static_cast<int32_t>(op) + 1;
    bool ga = false, gb = false;
    ref_a[op] = read(u.a, t, pos, ga);
    if (kind != lk::SlotOp::kConj) ref_b[op] = read(u.b, t, pos, gb);
    if (kind == lk::SlotOp::kMul && !ga && !gb && ref_a[op] == ref_b[op])
      kind = lk::SlotOp::kSqr;
    lp.ops[op].kind = kind;
    lp.ops[op].gather = static_cast<uint8_t>((ga ? lk::SlotOp::kGatherA : 0) |
                                             (gb ? lk::SlotOp::kGatherB : 0));
    const int32_t v = static_cast<int32_t>(n_in + op);
    last[static_cast<size_t>(v)] = pos;
    const int due = t + (mul ? cfg.mul_latency : cfg.addsub_latency);
    Landing& l = landing(mul, u.unit, due);
    FOURQ_CHECK_MSG(l.cycle != due, "two results landing on one unit in one cycle");
    l = {due, v};
    ++op;
  };
  size_t mi = 0, ai = 0, wi = 0;
  for (int t = 0; t < rom.cycles; ++t) {
    for (; mi < rom.mul.size() && rom.mul[mi].cycle == t; ++mi)
      issue(rom.mul[mi], lk::SlotOp::kMul, true, t);
    for (; ai < rom.addsub.size() && rom.addsub[ai].cycle == t; ++ai) {
      const DecodedIssue& u = rom.addsub[ai];
      uint8_t kind = lk::SlotOp::kAdd;
      if (u.op == trace::OpKind::kSub) kind = lk::SlotOp::kSub;
      else if (u.op == trace::OpKind::kConj) kind = lk::SlotOp::kConj;
      else FOURQ_CHECK_MSG(u.op == trace::OpKind::kAdd, "invalid decoded adder opcode");
      issue(u, kind, false, t);
    }
    for (; wi < rom.writebacks.size() && rom.writebacks[wi].cycle == t; ++wi) {
      const DecodedWb& wb = rom.writebacks[wi];
      FOURQ_CHECK(wb.reg >= 0 && wb.reg < rom.rf_slots);
      reg_val[static_cast<size_t>(wb.reg)] = landed(wb.from_mul, wb.unit, t);
    }
  }
  FOURQ_CHECK_MSG(op == n_ops, "decoded issue outside the program's cycles");
  std::vector<int32_t> out_val;
  out_val.reserve(rom.outputs.size());
  for (const auto& [name, reg] : rom.outputs) {
    FOURQ_CHECK(reg >= 0 && reg < rom.rf_slots);
    out_val.push_back(reg_value(reg));
    last[static_cast<size_t>(out_val.back())] = readout;
  }
  for (const auto& [sg, x] : xlat_of)
    for (size_t k = 1; k < sg.size(); k += 1 + static_cast<size_t>(sg[k]))
      for (size_t j = k + 1; j <= k + static_cast<size_t>(sg[k]); ++j) {
        int32_t& l = last[static_cast<size_t>(sg[j])];
        l = std::max(l, xlat_pos[static_cast<size_t>(x)]);
      }

  // Pass 2, a linear scan: each value holds one slot from its definition to
  // its last read. The values dying at a position free their slots only
  // after the op there has taken its destination, so no op's destination is
  // one of its operands' slots.
  std::vector<int32_t> dies_at(static_cast<size_t>(readout), kNone), next_dying(last.size());
  for (size_t v = 0; v < last.size(); ++v)  // one list of values per position
    if (last[v] < readout)
      next_dying[v] = std::exchange(dies_at[static_cast<size_t>(last[v])], static_cast<int32_t>(v));
  std::vector<uint16_t> slot(last.size()), free_slots;
  auto take = [&]() -> uint16_t {
    if (free_slots.empty()) {
      FOURQ_CHECK_MSG(lp.slots < 0xffff, "too many state slots for a lane program");
      return static_cast<uint16_t>(lp.slots++);
    }
    const uint16_t s = free_slots.back();
    free_slots.pop_back();
    return s;
  };
  auto release = [&](size_t pos) {
    for (int32_t v = dies_at[pos]; v != kNone; v = next_dying[static_cast<size_t>(v)])
      free_slots.push_back(slot[static_cast<size_t>(v)]);
  };
  for (size_t v = 0; v < n_in; ++v) slot[v] = take();
  release(0);
  for (size_t i = 0; i < n_ops; ++i) {
    slot[n_in + i] = take();
    release(i + 1);
  }

  for (size_t i = 0; i < n_ops; ++i) {
    lk::SlotOp& o = lp.ops[i];
    o.dst = slot[n_in + i];
    auto operand = [&](int32_t ref, uint8_t bit) {
      return (o.gather & bit) ? static_cast<uint16_t>(ref) : slot[static_cast<size_t>(ref)];
    };
    o.a = operand(ref_a[i], lk::SlotOp::kGatherA);
    if (o.kind != lk::SlotOp::kConj && o.kind != lk::SlotOp::kSqr)
      o.b = operand(ref_b[i], lk::SlotOp::kGatherB);
  }
  lp.inputs.assign(slot.begin(), slot.begin() + static_cast<std::ptrdiff_t>(n_in));
  for (int32_t v : out_val) lp.outputs.push_back(slot[static_cast<size_t>(v)]);
  lp.select_maps.resize(xlat_pos.size());
  for (const auto& [sg, x] : xlat_of) {
    sched::SelectMap& m = lp.select_maps[static_cast<size_t>(x)];
    m.kind = static_cast<trace::SelKind>(sg[0]);
    for (size_t k = 1; k < sg.size(); k += 1 + static_cast<size_t>(sg[k])) {
      std::vector<int>& variant = m.reg.emplace_back();
      for (size_t j = k + 1; j <= k + static_cast<size_t>(sg[k]); ++j)
        variant.push_back(slot[static_cast<size_t>(sg[j])]);
    }
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
    const sched::SelectMap& m = lp.select_maps[static_cast<size_t>(map)];
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

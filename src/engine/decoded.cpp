#include "engine/decoded.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace fourq::engine {

namespace lk = field::lanes;

DecodedRom decode(const sched::CompiledSm& sm) {
  const sched::MachineConfig& cfg = sm.cfg;
  constexpr int32_t kNone = -1;
  size_t n_ops = 0;
  for (const sched::CtrlWord& w : sm.rom) n_ops += w.mul.size() + w.addsub.size();
  const size_t n_in = sm.preload.size();
  const int32_t readout = static_cast<int32_t>(n_ops) + 1;
  DecodedRom rom;
  rom.preload = sm.preload;
  rom.outputs = sm.outputs;
  asic::SimStats& st = rom.stats;
  st.cycles = sm.cycles();
  LaneProgram& lp = rom.lanes;
  lp.ops.resize(n_ops);

  // Pass 1, one walk of the control words: count the statistics and number
  // the values. Value v < n_in is preload v and value n_in + i the result
  // of op i; positions order the definitions and reads (the preloads at 0,
  // op i at i + 1, then the readout). An issue's value lands on its unit's
  // ring position `latency` cycles later, and a writeback only renames its
  // register to it.
  std::vector<int32_t> reg_val(static_cast<size_t>(sm.rf_slots), kNone);
  std::vector<int32_t> last(n_in + n_ops);  // each value's last read (its def if none)
  for (size_t v = 0; v < n_in; ++v) {
    const int reg = sm.preload[v].second;
    FOURQ_CHECK(reg >= 0 && reg < sm.rf_slots);
    reg_val[static_cast<size_t>(reg)] = static_cast<int32_t>(v);
  }
  auto reg_value = [&](int reg) {
    FOURQ_CHECK_MSG(reg >= 0 && reg < sm.rf_slots, "register r" + std::to_string(reg) +
                                                       " is outside the register file");
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
    FOURQ_CHECK_MSG(unit >= 0 && unit < (mul ? cfg.num_multipliers : cfg.num_addsubs),
                    "unit " + std::to_string(unit) + " is not in the machine");
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
  auto gather_row = [&](const sched::SrcSel& s, int32_t pos) -> int32_t {
    FOURQ_CHECK(s.map >= 0 && static_cast<size_t>(s.map) < sm.select_maps.size());
    const sched::SelectMap& m = sm.select_maps[static_cast<size_t>(s.map)];
    sig.assign(1, static_cast<int32_t>(m.kind));
    for (const std::vector<int>& variant : m.reg) {
      sig.push_back(static_cast<int32_t>(variant.size()));
      for (int r : variant) sig.push_back(reg_value(r));
    }
    const auto [xt, added] = xlat_of.try_emplace(sig, static_cast<int32_t>(xlat_pos.size()));
    if (added) {
      FOURQ_CHECK_MSG(xlat_pos.size() < INT16_MAX,
                      "too many select translations for a lane program");
      xlat_pos.push_back(pos);
    }
    const int32_t x = xt->second;
    xlat_pos[static_cast<size_t>(x)] = pos;
    const int16_t iter = static_cast<int16_t>(s.iter);
    const auto [it, fresh] = rows.try_emplace({x, iter}, static_cast<uint16_t>(rows.size()));
    if (fresh) {
      FOURQ_CHECK_MSG(rows.size() <= 0xffff, "too many gather rows for a lane program");
      lp.gathers.emplace_back(static_cast<int16_t>(x), iter);
    }
    return it->second;
  };
  // Returns the operand's value, or its gather row (setting `gathered`),
  // and counts it as a register-file read or a forwarded operand.
  int reads = 0;  // register-file reads in the current cycle
  auto read = [&](const sched::SrcSel& s, int t, int32_t pos, bool& gathered) -> int32_t {
    gathered = false;
    int32_t v = kNone;
    switch (s.kind) {
      case sched::SrcSel::Kind::kReg:
        ++reads;
        v = reg_value(s.reg);
        break;
      case sched::SrcSel::Kind::kMulBus:
      case sched::SrcSel::Kind::kAddBus:
        ++st.forwarded_operands;
        v = landed(s.kind == sched::SrcSel::Kind::kMulBus, s.unit, t);
        break;
      case sched::SrcSel::Kind::kIndexed:
        ++reads;
        gathered = true;
        return gather_row(s, pos);
      case sched::SrcSel::Kind::kNone:
        FOURQ_CHECK_MSG(false, "unresolvable operand");
    }
    last[static_cast<size_t>(v)] = pos;  // reads arrive in position order
    return v;
  };
  std::vector<int32_t> ref_a(n_ops), ref_b(n_ops);  // operand values or gather rows
  size_t op = 0;
  auto issue = [&](const sched::UnitCtrl& u, uint8_t kind, bool mul, int t) {
    const int32_t pos = static_cast<int32_t>(op) + 1;
    bool ga = false, gb = false;
    ref_a[op] = read(u.a, t, pos, ga);
    // kConj consumes only operand a; the simulator never resolves b.
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
    ++(mul ? st.mul_issues : st.addsub_issues);
    ++op;
  };
  for (int t = 0; t < st.cycles; ++t) {
    const sched::CtrlWord& w = sm.rom[static_cast<size_t>(t)];
    if (w.mul.empty() && w.addsub.empty()) ++st.stall_cycles;
    reads = 0;
    for (const sched::UnitCtrl& u : w.mul) issue(u, lk::SlotOp::kMul, true, t);
    for (const sched::UnitCtrl& u : w.addsub) {
      uint8_t kind = lk::SlotOp::kAdd;
      if (u.op == trace::OpKind::kSub) kind = lk::SlotOp::kSub;
      else if (u.op == trace::OpKind::kConj) kind = lk::SlotOp::kConj;
      else FOURQ_CHECK_MSG(u.op == trace::OpKind::kAdd, "invalid adder opcode");
      issue(u, kind, false, t);
    }
    for (const sched::WbCtrl& wb : w.writebacks) {
      FOURQ_CHECK(wb.reg >= 0 && wb.reg < sm.rf_slots);
      reg_val[static_cast<size_t>(wb.reg)] = landed(wb.from_mul, wb.unit, t);
    }
    const int writes = static_cast<int>(w.writebacks.size());
    st.rf_reads += reads;
    st.max_reads_in_cycle = std::max(st.max_reads_in_cycle, reads);
    st.rf_writes += writes;
    st.max_writes_in_cycle = std::max(st.max_writes_in_cycle, writes);
  }
  std::vector<int32_t> out_val;
  out_val.reserve(sm.outputs.size());
  for (const auto& [name, reg] : sm.outputs) {
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
  return rom;
}

}  // namespace fourq::engine

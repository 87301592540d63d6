#include "trace/ir.hpp"

#include "common/check.hpp"

namespace fourq::trace {

OpStats count_ops(const Program& p) {
  OpStats s;
  for (const Op& op : p.ops) {
    switch (op.kind) {
      case OpKind::kMul:
        ++s.muls;
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
      case OpKind::kConj:
        ++s.addsubs;
        break;
      case OpKind::kInput:
        ++s.inputs;
        break;
      case OpKind::kSelect:
        break;  // pure addressing, no arithmetic
    }
  }
  return s;
}

namespace {

void validate_ssa_operand(const Operand& o, int op_id) {
  FOURQ_CHECK_MSG(o.sel == SelKind::kNone, "compute operand must be an SSA reference");
  FOURQ_CHECK_MSG(o.ssa >= 0 && o.ssa < op_id, "operand must reference an earlier op");
}

void validate_select(const Program& p, const Operand& o, int op_id) {
  FOURQ_CHECK_MSG(o.sel != SelKind::kNone, "kSelect must carry a selector");
  FOURQ_CHECK_MSG(o.table >= 0 && o.table < static_cast<int>(p.tables.size()),
                  "select table index out of range");
  const SelectTable& t = p.tables[static_cast<size_t>(o.table)];
  FOURQ_CHECK_MSG(!t.candidates.empty(), "empty select table");
  for (const auto& variant : t.candidates) {
    FOURQ_CHECK_MSG(!variant.empty(), "empty select variant");
    for (int id : variant) {
      FOURQ_CHECK_MSG(id >= 0 && id < op_id, "select candidate must precede consumer");
      FOURQ_CHECK_MSG(p.ops[static_cast<size_t>(id)].kind != OpKind::kSelect,
                      "select candidates must be materialisable values");
    }
  }
  if (o.sel == SelKind::kDigitTable)
    FOURQ_CHECK_MSG(o.iter >= 0 || is_counter_iter(o.iter),
                    "digit-table operand needs an iteration index (or counter sentinel)");
}

}  // namespace

void validate(const Program& p) {
  for (int i = 0; i < static_cast<int>(p.ops.size()); ++i) {
    const Op& op = p.ops[static_cast<size_t>(i)];
    switch (op.kind) {
      case OpKind::kInput:
        break;
      case OpKind::kSelect:
        validate_select(p, op.a, i);
        break;
      case OpKind::kConj:
        validate_ssa_operand(op.a, i);
        break;
      default:
        validate_ssa_operand(op.a, i);
        validate_ssa_operand(op.b, i);
        break;
    }
  }
  for (const auto& [id, name] : p.outputs) {
    FOURQ_CHECK_MSG(id >= 0 && id < static_cast<int>(p.ops.size()),
                    "output id out of range: " + name);
    FOURQ_CHECK_MSG(p.ops[static_cast<size_t>(id)].kind != OpKind::kSelect,
                    "outputs must be materialised values: " + name);
  }
}

namespace {

void mix_operand(Fnv1a& f, const Operand& o) {
  f.mix(static_cast<uint64_t>(o.sel));
  f.mix(static_cast<uint64_t>(o.ssa));
  f.mix(static_cast<uint64_t>(o.table));
  f.mix(static_cast<uint64_t>(o.iter));
}

}  // namespace

uint64_t fingerprint(const Program& p, Fnv1a f) {
  for (const Op& op : p.ops) {
    f.mix(static_cast<uint64_t>(op.kind));
    mix_operand(f, op.a);
    mix_operand(f, op.b);
  }
  for (const SelectTable& t : p.tables)
    for (const std::vector<int>& variant : t.candidates) {
      f.mix(variant.size());
      for (int id : variant) f.mix(static_cast<uint64_t>(id));
    }
  for (const auto& [id, name] : p.outputs) {
    f.mix(static_cast<uint64_t>(id));
    f.bytes(name);
  }
  f.mix(static_cast<uint64_t>(p.iterations));
  return f.h;
}

}  // namespace fourq::trace

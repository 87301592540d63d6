#include "sched/regalloc.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"

namespace fourq::sched {

using trace::OpKind;

namespace {

struct Interval {
  int op_id;
  int start;  // cycle the value lands in the RF
  int end;    // last cycle the value is read from the RF
};

std::vector<Interval> build_intervals(const Problem& pr, const Schedule& s) {
  const trace::Program& p = *pr.program;
  std::vector<int> issue_of_op(p.ops.size(), -1);
  for (size_t i = 0; i < pr.nodes.size(); ++i)
    issue_of_op[static_cast<size_t>(pr.nodes[i].op_id)] = s.cycle[i];

  std::vector<int> start(p.ops.size(), -1), end(p.ops.size(), -1);

  for (size_t i = 0; i < p.ops.size(); ++i) {
    const trace::Op& op = p.ops[i];
    if (op.kind == OpKind::kInput) {
      start[i] = 0;  // preloaded before execution
    } else if (trace::is_compute(op.kind)) {
      int ni = pr.node_of_op[i];
      start[i] = s.cycle[static_cast<size_t>(ni)] + latency(pr.cfg, op.kind);
    }
  }

  // Extend ends over every consumer's RF read.
  for (size_t ni = 0; ni < pr.nodes.size(); ++ni) {
    const Node& n = pr.nodes[ni];
    int t = s.cycle[ni];
    for (const OperandReq& req : n.operands) {
      for (int prod : req.producers) {
        bool via_rf = true;
        if (!req.is_select && pr.node_of_op[static_cast<size_t>(prod)] >= 0) {
          int done = issue_of_op[static_cast<size_t>(prod)] +
                     latency(pr.cfg, p.ops[static_cast<size_t>(prod)].kind);
          if (pr.cfg.forwarding && t == done) via_rf = false;  // bus, no RF read
        }
        if (via_rf) end[static_cast<size_t>(prod)] = std::max(end[static_cast<size_t>(prod)], t);
      }
    }
  }

  // Outputs stay live to the end of the program.
  for (const auto& [id, name] : p.outputs) {
    (void)name;
    end[static_cast<size_t>(id)] = std::max(end[static_cast<size_t>(id)], s.makespan);
  }

  std::vector<Interval> iv;
  for (size_t i = 0; i < p.ops.size(); ++i) {
    if (p.ops[i].kind == OpKind::kSelect) continue;  // aliases, no storage
    FOURQ_CHECK(start[i] >= 0);
    // Values never read from the RF (all consumers forwarded) still occupy
    // their slot momentarily at the write cycle.
    if (end[i] < 0) end[i] = start[i];
    iv.push_back(Interval{static_cast<int>(i), start[i], end[i]});
  }
  std::sort(iv.begin(), iv.end(), [](const Interval& a, const Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.op_id < b.op_id;
  });
  return iv;
}

}  // namespace

Allocation allocate_registers(const Problem& pr, const Schedule& s, std::optional<int> capacity,
                              const PinSpec& spec) {
  std::vector<int> pinned_slot(pr.program->ops.size(), -1);
  std::vector<bool> slot_taken(static_cast<size_t>(spec.temp_base), false);
  for (const auto& [op, slot] : spec.pins) {
    FOURQ_CHECK_MSG(slot >= 0 && slot < spec.temp_base, "pin slot outside reserved range");
    FOURQ_CHECK_MSG(!slot_taken[static_cast<size_t>(slot)], "duplicate pin slot");
    slot_taken[static_cast<size_t>(slot)] = true;
    FOURQ_CHECK(op >= 0 && op < static_cast<int>(pr.program->ops.size()));
    FOURQ_CHECK_MSG(pinned_slot[static_cast<size_t>(op)] < 0, "op pinned twice");
    pinned_slot[static_cast<size_t>(op)] = slot;
  }

  Allocation alloc;
  alloc.slot_of_op.assign(pr.program->ops.size(), -1);

  // Min-heap of (end, slot) for busy temporaries; free list of released slots.
  using EndSlot = std::pair<int, int>;
  std::priority_queue<EndSlot, std::vector<EndSlot>, std::greater<>> busy;
  std::vector<int> free_slots;
  int next_fresh = spec.temp_base;

  for (const Interval& v : build_intervals(pr, s)) {
    int& slot = alloc.slot_of_op[static_cast<size_t>(v.op_id)];
    slot = pinned_slot[static_cast<size_t>(v.op_id)];
    if (slot >= 0) continue;  // pinned slots never enter the free list
    // A slot whose last read is before this value's write can be reused.
    while (!busy.empty() && busy.top().first < v.start) {
      free_slots.push_back(busy.top().second);
      busy.pop();
    }
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = next_fresh++;
      if (capacity)
        FOURQ_CHECK_MSG(next_fresh <= *capacity,
                        "register file too small: need > " + std::to_string(*capacity));
    }
    busy.emplace(v.end, slot);
  }
  alloc.slots_used = next_fresh;
  return alloc;
}

int register_pressure(const Problem& pr, const Schedule& s) {
  return allocate_registers(pr, s, std::nullopt).slots_used;
}

}  // namespace fourq::sched

// Register allocation: maps every stored value (program inputs and compute
// results) onto the register file, from the lifetimes implied by the final
// schedule. Greedy linear scan; the flat controller's compile fails loudly
// if the configured register file cannot hold the working set (paper
// Fig. 1: the RF is dimensioned so the whole SM runs without spills — there
// is no memory hierarchy).
#pragma once

#include <optional>

#include "sched/problem.hpp"

namespace fourq::sched {

struct Allocation {
  std::vector<int> slot_of_op;  // op id -> RF slot; -1 for kSelect ops
  int slots_used = 0;           // peak register demand

  int slot(int op_id) const { return slot_of_op[static_cast<size_t>(op_id)]; }
};

// Fixed register-file slots for values shared across the looped
// controller's segments (block inputs and outputs), and the first slot
// left to temporaries. Pin slots must be unique and < temp_base. The
// default pins nothing.
struct PinSpec {
  std::vector<std::pair<int, int>> pins;  // (op id, slot)
  int temp_base = 0;
};

// Linear scan over the lifetimes the schedule implies. Pinned ops sit on
// their slot; every other value gets a slot from `spec.temp_base` upwards,
// so it never collides with an architectural one. Throws if more than
// `capacity` slots are needed; std::nullopt checks nothing.
Allocation allocate_registers(const Problem& pr, const Schedule& s, std::optional<int> capacity,
                              const PinSpec& spec = {});

// Peak register demand without pins or a limit (for the register-file
// sizing ablation).
int register_pressure(const Problem& pr, const Schedule& s);

}  // namespace fourq::sched

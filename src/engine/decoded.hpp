// Pre-decoded ROM: the slot program the batch engine's lane waves run
// (engine/lanes.hpp) and the statistics of its control stream.
//
// asic::simulate() is the reference interpreter: it walks vector<CtrlWord>
// (three nested vectors per cycle), re-validates port limits and pipeline
// legality every cycle, and publishes an obs::CycleEvent per action. All of
// that is the right thing for a *model* and wrong for a *farm*: the control
// stream is static, so its legality and its statistics are data-independent
// and can be established once per program instead of once per job.
//
// decode() walks the control words once, in the simulator's order (per
// cycle the mul issues, then the add/sub issues, then the writebacks), and
// in that one pass derives SimStats and lowers the words into the slot
// program. It checks only what the lowering needs (unit and register
// ranges, and a value behind every read); legality is the reference
// simulator's and the static verifier's job, and tests pin every lane's
// outputs bitwise to asic::simulate().
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "asic/simulator.hpp"
#include "engine/cache.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::engine {

// The slot program, lowered by value rather than by register. In the walk's
// order every preload and every issue defines one value and a writeback
// only renames its register, so the program is exactly one op per issue:
// no op copies a result from a pipe ring into a register. Each value keeps
// one state slot from its definition to its last read, and slots are
// reused once their values die (a linear scan), so a slot is not tied to a
// register. A mul of one value by itself becomes a kSqr. A digit or
// correction select becomes a gather row: its map translated to the slots
// holding the candidate registers' values at that point, whose per-lane
// slot run_lanes resolves once per wave.
struct LaneProgram {
  std::vector<field::lanes::SlotOp> ops;  // one per mul and add/sub issue
  std::vector<uint16_t> inputs;   // slot of each preload, rom.preload order
  std::vector<uint16_t> outputs;  // slot of each output, rom.outputs order
  std::vector<sched::SelectMap> select_maps;  // rom maps with slots for registers
  std::vector<std::pair<int16_t, int16_t>> gathers;  // (select_maps index, digit) per row
  int slots = 0;

  field::lanes::SlotProgram view() const;
};

struct DecodedRom {
  std::vector<std::pair<int, int>> preload;          // (input op id, reg)
  std::vector<std::pair<std::string, int>> outputs;  // name -> reg
  // SimStats are a function of the control stream alone (operand *values*
  // never change which events fire), so they are computed here, once.
  asic::SimStats stats;
  LaneProgram lanes;
};

// A read of a register, bus or select candidate that no preload or earlier
// issue wrote, a unit or register out of range, or two results landing on
// one unit in one cycle fails a FOURQ_CHECK.
DecodedRom decode(const sched::CompiledSm& sm);

}  // namespace fourq::engine

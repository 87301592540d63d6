// Pre-decoded ROM — the control stream the batch engine's lane waves
// (engine/lanes.hpp) execute — and run(), its one-job reference walk.
//
// asic::simulate() is the reference interpreter: it walks vector<CtrlWord>
// (three nested vectors per cycle), re-validates port limits and pipeline
// legality every cycle, and publishes an obs::CycleEvent per action. All of
// that is the right thing for a *model* and wrong for a *farm*: the control
// stream is static, so its legality and its statistics are data-independent
// and can be established once per program instead of once per job.
//
// DecodedRom flattens the ROM into struct-of-arrays issue/writeback streams
// sorted by cycle (three cursors replace all per-cycle map lookups), drops
// per-cycle checks (decode() re-derives SimStats from the static stream;
// legality is the flat simulator's and the static verifier's job — tests
// pin run() outputs bitwise to asic::simulate()), and run() reuses a
// SimWorkspace so repeated jobs perform zero heap allocations. decode()
// also lowers the streams once more, into the slot program the lane waves
// run (LaneProgram below).
#pragma once

#include <vector>

#include "asic/pipe_ring.hpp"
#include "asic/simulator.hpp"
#include "engine/cache.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::engine {

// One operand source, decoded from sched::SrcSel.
struct DecodedSrc {
  enum class Kind : uint8_t { kNone, kReg, kMulBus, kAddBus, kIndexed };
  Kind kind = Kind::kNone;
  uint8_t unit = 0;    // producing instance for bus operands
  int16_t reg = -1;    // register for kReg
  int16_t map = -1;    // select_maps index for kIndexed
  int16_t iter = -1;   // digit position for kIndexed
};

struct DecodedIssue {
  int32_t cycle = 0;
  trace::OpKind op = trace::OpKind::kMul;
  uint8_t unit = 0;
  DecodedSrc a, b;
};

struct DecodedWb {
  int32_t cycle = 0;
  int16_t reg = -1;
  bool from_mul = true;
  uint8_t unit = 0;
};

// The lane waves' form of the decoded streams (engine/lanes.hpp), lowered
// by decode() by value rather than by register. Walking the streams in
// run()'s order (per cycle the mul issues, then the add/sub issues, then
// the writebacks), every preload and every issue defines one value and a
// writeback only renames its register, so the program is exactly one op
// per issue: no op copies a result from a pipe ring into a register. Each
// value keeps one state slot from its definition to its last read, and
// slots are reused once their values die (a linear scan), so a slot is no
// longer tied to a register. A mul of one value by itself becomes a kSqr.
// A digit or correction select becomes a gather row: its map translated to
// the slots holding the candidate registers' values at that point, whose
// per-lane slot run_lanes resolves once per wave.
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
  int cycles = 0;
  int rf_slots = 0;
  sched::MachineConfig cfg;
  std::vector<DecodedIssue> mul, addsub;  // sorted by cycle
  std::vector<DecodedWb> writebacks;      // sorted by cycle
  std::vector<sched::SelectMap> select_maps;
  std::vector<std::pair<int, int>> preload;          // (input op id, reg)
  std::vector<std::pair<std::string, int>> outputs;  // name -> reg
  // SimStats are a function of the control stream alone (operand *values*
  // never change which events fire), so they are computed here, once.
  asic::SimStats stats;
  LaneProgram lanes;
};

DecodedRom decode(const sched::CompiledSm& sm);

// Reusable execution state. reset() is cheap (no deallocation); rf keeps
// its capacity across jobs.
struct SimWorkspace {
  std::vector<field::Fp2> rf;
  std::vector<asic::PipeRing> mul_pipes, add_pipes;

  void prepare(const DecodedRom& rom);  // sizes state for this program
};

// Executes the decoded program: preloads `inputs` (op id -> value, same
// bindings as asic::simulate), runs every cycle, returns nothing — read
// results from ws.rf via rom.outputs, e.g. through output_value().
void run(const DecodedRom& rom, const trace::InputBindings& inputs,
         const trace::EvalContext& ctx, SimWorkspace& ws);

// Convenience: named output from a finished workspace.
const field::Fp2& output_value(const DecodedRom& rom, const SimWorkspace& ws,
                               const std::string& name);

}  // namespace fourq::engine

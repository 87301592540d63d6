// The engine's ROM executor — W jobs, one control stream.
//
// The paper's ASIC never pays for its control per datum: one control ROM
// drives a wide datapath, and decoding the ROM costs nothing per operand.
// run_lanes() is the software analogue. decode() lowers the control words
// once into a flat slot program (DecodedRom::lanes, see decoded.hpp) by
// value: one op per issue, each register, bus or pipe-ring operand
// replaced by the state slot of the value it holds, and each writeback a
// renaming at lowering time, so no op resolves an operand or copies a
// result at run time. A wave of 1..8 jobs then runs as one call of the
// active kernel table's run_slots (field/fp_lanes.hpp), which keeps the
// state of all its lanes in its own representation for the whole wave —
// radix-2^52 limbs on avx512, split at preload and joined at readout;
// canonical u128 through the fp2 kernels on generic.
//
// The only per-lane scalar steps are at the wave's edges: binding each
// lane's preloads, and resolving each digit or correction select (a gather
// row, whose slot depends on the lane's recoded scalar) once per wave from
// the lanes' EvalContexts and the program's slot-translated select maps.
// Inside the wave a gather is one per-lane read of the resolved slots.
//
// Inputs enter canonical and every runner hands back canonical outputs
// (avx512's semi-reduced state is folded once at readout), and canonical
// form is unique, so each lane's outputs are bitwise-equal to
// asic::simulate(), the checked reference — tests/test_lanes.cpp pins
// this for every width 1..8 across a MachineConfig grid, both
// endomorphism variants and every kernel table.
#pragma once

#include <string>
#include <vector>

#include "engine/decoded.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::engine {

// Maximum lane width accepted by run_lanes; BatchEngine::run's wave width.
inline constexpr int kMaxLanes = static_cast<int>(field::lanes::kWaveLanes);

// Reusable rows and state of one wave. run_lanes() sizes them for the
// program on first use, so steady-state waves perform zero heap
// allocations. Rows are kMaxLanes lanes wide whatever the wave's width.
struct LaneWorkspace {
  int width = 0;                      // live lanes of the last wave
  std::vector<u128> in_re, in_im;     // [preload * kMaxLanes + lane]
  std::vector<uint16_t> gather;       // [gather row * kMaxLanes + lane] -> slot
  std::vector<u128> out_re, out_im;   // [output * kMaxLanes + lane]
  std::vector<uint64_t> state;        // the kernel table's slot state
};

// Executes the decoded program for `lanes` jobs at once. inputs[l] / ctxs[l]
// are lane l's preload bindings and select context (the same values
// asic::simulate() takes). Results stay in ws; read them per lane with
// lane_output().
void run_lanes(const DecodedRom& rom, const trace::InputBindings* inputs,
               const trace::EvalContext* ctxs, int lanes, LaneWorkspace& ws);

// Named output of one lane from a finished workspace.
field::Fp2 lane_output(const DecodedRom& rom, const LaneWorkspace& ws,
                       const std::string& name, int lane);

// One job as a one-lane wave, under the names perfbench's
// engine.decoded.job_us probe calls.
using SimWorkspace = LaneWorkspace;
inline void run(const DecodedRom& rom, const trace::InputBindings& inputs,
                const trace::EvalContext& ctx, SimWorkspace& ws) {
  run_lanes(rom, &inputs, &ctx, 1, ws);
}
inline field::Fp2 output_value(const DecodedRom& rom, const SimWorkspace& ws,
                               const std::string& name) {
  return lane_output(rom, ws, name, 0);
}

}  // namespace fourq::engine

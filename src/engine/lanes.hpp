// Lane-parallel decoded-ROM executor — W jobs, one control stream.
//
// decoded::run() already removes the per-cycle interpretive overhead of
// asic::simulate(), but it still pays the full stream walk (cursor
// advances, operand resolution, pipe-ring indexing) once per *job*. The
// paper's ASIC never pays that per datum: one control ROM drives a wide
// datapath, and decoding the ROM costs nothing per operand. run_lanes() is
// the software analogue. decode() lowers the cycle-sorted streams once
// into a flat slot program (DecodedRom::lanes, see decoded.hpp) by value:
// one op per issue, each register, bus or pipe-ring operand replaced by
// the state slot of the value it holds, and each writeback a renaming at
// lowering time, so no op resolves an operand or copies a result at run
// time. A wave of W <= 8 jobs then runs as one call of the active kernel
// table's run_slots (field/fp_lanes.hpp), which keeps the state of all W
// lanes in its own representation for the whole wave — radix-2^52 limbs on
// avx512, split at preload and joined at readout; canonical u128 through
// the fp2 kernels on avx2 and generic.
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
// decoded::run() and therefore to asic::simulate() — tests/test_lanes.cpp
// pins this for every width 1..8 across a MachineConfig grid, both
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

// The lowering decode() runs once per program (see LaneProgram in
// decoded.hpp). Validates every operand it turns into a slot: a read of a
// register, bus or select candidate that no preload or earlier issue wrote
// fails a FOURQ_CHECK.
LaneProgram lower_lanes(const DecodedRom& rom);

// Executes the decoded program for `lanes` jobs at once. inputs[l] / ctxs[l]
// are lane l's preload bindings and select context (the same values the
// scalar engine::run() takes). Results stay in ws; read them per lane with
// lane_output().
void run_lanes(const DecodedRom& rom, const trace::InputBindings* inputs,
               const trace::EvalContext* ctxs, int lanes, LaneWorkspace& ws);

// Named output of one lane from a finished workspace.
field::Fp2 lane_output(const DecodedRom& rom, const LaneWorkspace& ws,
                       const std::string& name, int lane);

}  // namespace fourq::engine

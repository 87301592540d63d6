// Lane-parallel decoded-ROM executor — W jobs, one control stream.
//
// decoded::run() already removes the per-cycle interpretive overhead of
// asic::simulate(), but it still pays the full stream walk (cursor
// advances, operand resolution, pipe-ring indexing) once per *job*. The
// paper's ASIC never pays that per datum: one control ROM drives a wide
// datapath. run_lanes() is the software analogue — SimWorkspace state is
// refactored to struct-of-arrays over W lanes:
//
//     rf_re[slot * W + lane]            register file, real component
//     rf_im[slot * W + lane]            register file, imaginary component
//     mul_re[(unit * R + ring) * W + lane]   mul pipe rings (R = latency+1)
//     add_re[(unit * R + ring) * W + lane]   add/sub pipe rings
//
// and a single pass over the cycle-sorted issue/writeback streams executes
// all W jobs: one decode walk, one cursor advance, W datapaths. For a fixed
// (slot | unit, ring) the W lanes are contiguous, so kReg and bus operands
// are zero-copy slices handed straight to the field::lanes batch kernels
// (which provide the per-op parallelism: W independent carry chains for
// the portable kernels, 4 lanes per vector for AVX2), and results land
// directly in the destination pipe-ring slot — safe because a ring of size
// latency+1 puts the write index (t + latency) mod R never equal to the
// read index t mod R for latency >= 1. Only kIndexed operands (digit-table
// selects, which depend on each job's recoded scalar) gather per lane.
//
// Every value entering the SoA state is canonical and every kernel output
// is canonical, so each lane's outputs are bitwise-equal to decoded::run()
// and therefore to asic::simulate() — tests/test_lanes.cpp pins this for
// W in {1, 2, 4, 8}.
#pragma once

#include <string>
#include <vector>

#include "engine/decoded.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::engine {

// Maximum lane width accepted by run_lanes; BatchEngine::run's wave width.
inline constexpr int kMaxLanes = 8;

// Reusable SoA execution state for one wave of W lanes. prepare() sizes
// everything for (rom, width); run_lanes() re-prepares automatically when
// either changed, so steady-state waves perform zero heap allocations.
struct LaneWorkspace {
  int width = 0;     // W this workspace is laid out for
  int rf_slots = 0;
  int mul_units = 0, add_units = 0;
  int mul_ring = 0, add_ring = 0;  // latency + 1 slots per unit

  std::vector<u128> rf_re, rf_im;
  std::vector<u128> mul_re, mul_im;  // [(unit * mul_ring + slot) * W + lane]
  std::vector<u128> add_re, add_im;
  std::vector<u128> ga_re, ga_im, gb_re, gb_im;  // kIndexed gather scratch

  void prepare(const DecodedRom& rom, int width);
};

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

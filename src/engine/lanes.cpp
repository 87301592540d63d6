#include "engine/lanes.hpp"

#include <cstdint>
#include <string>

#include "asic/select_resolve.hpp"
#include "common/check.hpp"

namespace fourq::engine {

using field::Fp2;
namespace lk = field::lanes;

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

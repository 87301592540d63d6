// Schedule explainability, part 2: stall root-cause attribution and
// the text timeline `fourqc explain` prints (docs/OBSERVABILITY.md).
//
// The cycle-accurate simulator publishes one kStall event per control word
// that issues nothing; this pass replays the ROM alongside the recorded
// event stream and explains every such bubble — and, more generally, every
// cycle a functional unit sat idle — as one of:
//
//   raw-hazard    every pending op still waits for an operand (the value it
//                 actually consumed had not been produced yet);
//   rf-port       some op had all operands ready, but issuing it here would
//                 have exceeded the read ports, or its writeback would have
//                 landed in a cycle whose write ports are already full;
//   issue-width   some op was data-ready but every instance of its unit was
//                 inside its initiation interval;
//   drain         nothing left to issue — the tail of the pipeline;
//   unforced      an op was issuable; the solver simply left the slot empty
//                 (slack the search did not exploit).
//
// Attribution is conservative and total: each full-stall control word gets
// exactly one class, so the classes sum to SimStats::stall_cycles — the
// conservation check callers (and tests) assert on.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "asic/simulator.hpp"
#include "sched/microcode.hpp"

namespace fourq::asic {

enum class StallClass : uint8_t {
  kRawHazard = 0,
  kRfPort,
  kIssueWidth,
  kDrain,
  kUnforced,
};
inline constexpr int kNumStallClasses = 5;

const char* stall_class_name(StallClass c);   // "raw-hazard", "rf-port", ...
char stall_class_letter(StallClass c);        // 'R', 'P', 'W', 'D', 'U'
const char* stall_class_meaning(StallClass c);  // one-line definition

struct StallBreakdown {
  std::array<int, kNumStallClasses> by_class{};
  int total() const;
  int of(StallClass c) const { return by_class[static_cast<size_t>(c)]; }
};

struct StallAttribution {
  // Full-stall control words (no issue on any unit). total() equals
  // SimStats::stall_cycles when conservation_ok.
  StallBreakdown stalls;
  // Idle cycles per unit class, same vocabulary (a cycle may be idle for
  // the multiplier while the adder issues; full stalls count in both).
  StallBreakdown mul_idle;
  StallBreakdown addsub_idle;
  // Per cycle: the stall class, or -1 for cycles that issued something.
  std::vector<int8_t> stall_class_of_cycle;
  // Attributed full-stall cycles match the event stream's kStall count.
  bool conservation_ok = false;
};

// Replays `sm`'s ROM against the event stream recorded while simulating
// exactly that program (the reads in the stream resolve digit-indexed
// operands the ROM alone cannot). Flat programs only.
StallAttribution attribute_stalls(const sched::CompiledSm& sm,
                                  const std::vector<obs::CycleEvent>& events);

// ASCII occupancy timeline: one row per unit class (issue marks), a
// writeback-count row and a stall-class row, wrapped every `width` cycles.
struct GanttOptions {
  int width = 96;   // cycles per text row
  int from = 0;     // first cycle shown
  int count = -1;   // cycles shown (-1 = to the end)
};
std::string render_gantt(const sched::CompiledSm& sm, const StallAttribution& attr,
                         const GanttOptions& opt = {});

// Folds the events that fall inside [begin_cycle, end_cycle) into SimStats
// (used for per-phase occupancy breakdowns of the looped controller).
SimStats stats_in_window(const std::vector<obs::CycleEvent>& events, int begin_cycle,
                         int end_cycle);

}  // namespace fourq::asic

// Blocked / looped controller — the alternative FSM organisation the paper
// argues against in §III-C, built for real so the trade-off is measurable:
//
//   * the double-and-add loop body is scheduled ONCE and replayed by a
//     hardware loop counter for every recoded digit (65 replays including
//     the top digit: the first replay doubles the identity, a no-op);
//   * scalar state lives in architecturally pinned register-file slots; the
//     accumulator is double-buffered (bank A/B) and the sequencer swaps the
//     banks each iteration, so the body ROM is iteration-independent;
//   * digit-addressed table reads take their index from the loop counter
//     (trace::kIterFromCounter).
//
// The segments trace the same Alg. 1 phases as the flat program: the
// prologue runs curve::aux_points (or the kPaperCost stand-ins) and
// curve::table_r1 through trace::table_cols, plus the correction
// candidates and Q0 copied into their own slots; the body is
// curve::digit_loop's step over trace::digit_read; the epilogue adds
// trace::correction_read's operand and runs trace::normalise
// (trace/sm_trace.hpp).
//
// Result: a much smaller program ROM (prologue + one body + epilogue)
// against more cycles (no cross-iteration overlap — the pipeline drains at
// every block boundary) and a slightly larger register file. The
// global-vs-blocked bench (E7) quantifies exactly this.
//
// The register file is sized from the allocation, not configured. Slots
// below 72 hold the architectural state (constants, P, the table, the
// correction candidates and both accumulator banks); each segment's
// temporaries sit above them. Every segment is allocated with no capacity
// check, LoopedSm::rf_size is the largest segment's rf_slots, and that size
// is written into each segment's cfg.rf_size, so the ROM images, lint and
// rom_stats agree. The default shape needs 96 slots; mul_latency 2 or no
// forwarding needs up to 98.
#pragma once

#include "asic/simulator.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::asic {

struct LoopedSmOptions {
  sched::MachineConfig cfg;  // cfg.rf_size is derived (see above), not read
  trace::EndoVariant endo = trace::EndoVariant::kPaperCost;
  sched::Solver solver = sched::Solver::kList;
  // Digits consumed per body replay (software-pipelining-lite: the solver
  // overlaps the unrolled iterations inside one block). Must divide the 65
  // recoded digits: 1, 5 or 13.
  int body_unroll = 1;
};

struct LoopedSm {
  sched::CompiledSm prologue, body, epilogue;
  // The traced reference program each segment was compiled from, retained
  // so the static verifier (analysis/lint) can re-check the emitted ROMs.
  trace::Program prologue_program, body_program, epilogue_program;
  std::array<int, 5> bank_a{}, bank_b{};  // accumulator slots (X,Y,Z,Ta,Tb)
  int iterations = 0;                     // body replays
  int body_unroll = 1;                    // digits per replay
  int rf_size = 0;                        // largest segment's rf_slots

  // Prologue input-binding ids (same contract as trace::SmTrace).
  int in_px = -1, in_py = -1, in_zero = -1, in_one = -1, in_two_d = -1;
  std::vector<int> in_endo_consts;

  int total_cycles() const {
    return prologue.cycles() + iterations * body.cycles() + epilogue.cycles();
  }
  int rom_words() const { return prologue.cycles() + body.cycles() + epilogue.cycles(); }
};

LoopedSm build_looped_sm(const LoopedSmOptions& opt = {});

// `sink`, when non-null, receives the cycle-level event stream (absolute
// cycles across prologue, body replays and epilogue).
SimResult simulate_looped(const LoopedSm& sm, const trace::InputBindings& inputs,
                          const trace::EvalContext& ctx,
                          obs::CycleEventSink* sink = nullptr);

}  // namespace fourq::asic

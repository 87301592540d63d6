// Lane executor experiment. One pre-decoded program: the engine's 8-lane
// waves with 1 and 8 workers, and ragged batches of 1..7 jobs, each a
// single partial wave. The 8-worker leg guards the queue-chunking fix (8
// workers must not fall below 1 worker again).
//
// The headline metric is the 8-lane wave's ledger efficiency: the lowered
// slot program's op counts by kind priced at the measured cost of one
// lane-op of that kind in the kernel table's slot-program runner (W x (muls
// x mul ns + squarings x sqr ns + add/sub/conj x add ns) per wave), divided
// by the measured time per wave. The prices come from three straight-line
// programs of independent ops, one of muls, one of squarings and one of
// adds, run through the same run_slots entry the wave uses, so the floor
// is the wave's own arithmetic with nothing between the ops. Both sides
// run in this process, so ambient host load largely cancels (a busy
// sibling hyperthread slows the wave more than the L1-resident pricing
// loop), and the gate depends only on the laned path itself. The
// ragged-batch rate is printed and recorded, but not gated.
//
// Gated by tools/baselines/bench_lanes_baseline.jsonl via perf_regress:
// wave efficiency at or above its floor, 8w/1w >= 1, and every output
// (full waves, partial waves, the timed wave) must match the software
// golden model bitwise.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "engine/batch.hpp"
#include "engine/lanes.hpp"
#include "field/fp_lanes.hpp"

namespace {

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Cost of one lane-op of the wave's arithmetic in the active table's
// slot-program runner: 2048 independent muls (then squarings, then adds)
// over 16 input slots, 8 lanes, best of 4 passes each.
struct SlotOpCost {
  double mul_ns = 0.0;
  double sqr_ns = 0.0;
  double add_ns = 0.0;
};

SlotOpCost slot_op_cost() {
  namespace lk = fourq::field::lanes;
  constexpr uint16_t kInputs = 16, kSlots = 64;
  constexpr size_t kOps = 2048, kW = lk::kWaveLanes;
  fourq::Rng rng(0x510e);
  std::vector<fourq::u128> in_re(kInputs * kW), in_im(kInputs * kW), out_re(kW), out_im(kW);
  for (size_t i = 0; i < in_re.size(); ++i) {
    in_re[i] = fourq::field::Fp::from_u256(rng.next_u256()).raw();
    in_im[i] = fourq::field::Fp::from_u256(rng.next_u256()).raw();
  }
  std::vector<uint16_t> inputs(kInputs), outputs{kInputs};
  for (uint16_t i = 0; i < kInputs; ++i) inputs[i] = i;
  std::vector<uint64_t> state(kSlots * lk::kSlotStateBytes / sizeof(uint64_t) + 8);
  lk::SlotWave wave;
  wave.lanes = kW;
  wave.in_re = in_re.data();
  wave.in_im = in_im.data();
  wave.out_re = out_re.data();
  wave.out_im = out_im.data();
  wave.state = reinterpret_cast<void*>(
      (reinterpret_cast<uintptr_t>(state.data()) + 63) & ~uintptr_t{63});
  auto per_lane_op_ns = [&](uint8_t kind) {
    std::vector<lk::SlotOp> ops(kOps);
    for (size_t i = 0; i < kOps; ++i) {
      ops[i].kind = kind;
      ops[i].a = static_cast<uint16_t>(i % kInputs);
      ops[i].b = static_cast<uint16_t>((i + 5) % kInputs);
      ops[i].dst = static_cast<uint16_t>(kInputs + i % (kSlots - kInputs));
    }
    lk::SlotProgram prog;
    prog.ops = ops.data();
    prog.n_ops = kOps;
    prog.inputs = inputs.data();
    prog.n_inputs = kInputs;
    prog.outputs = outputs.data();
    prog.n_outputs = 1;
    double best = 1e300;
    for (int pass = 0; pass < 4; ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      lk::active().run_slots(prog, wave);
      best = std::min(best, secs_since(t0) * 1e9 / static_cast<double>(kOps * kW));
    }
    return best;
  };
  return {per_lane_op_ns(lk::SlotOp::kMul), per_lane_op_ns(lk::SlotOp::kSqr),
          per_lane_op_ns(lk::SlotOp::kAdd)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fourq;
  bench::parse_bench_args(argc, argv);

  bench::print_header("Lane executor — full and partial waves");

  engine::CompileKey key;
  key.trace.endo = trace::EndoVariant::kFunctional;

  constexpr int kJobs = 256;
  Rng rng(20260808);
  curve::Affine base = curve::deterministic_point(1);
  std::vector<engine::SmJob> jobs(kJobs);
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), base};

  engine::CompileCache cache;
  const auto prog = cache.get_or_compile(key);
  const engine::DecodedRom rom = engine::decode(prog->sm);

  std::printf("field kernels: %s  (program: functional single-SM, %d jobs)\n\n",
              field::lanes::active().name, kJobs);
  std::printf("%-34s %12s\n", "Configuration", "jobs/s");
  bench::print_rule(47);

  // Per-job bitwise check against the software golden model, shared by
  // every configuration (the outputs must not depend on the workers or
  // padding).
  std::vector<curve::Affine> golden(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i)
    golden[i] = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
  int mismatches = 0;
  auto check = [&](size_t i, const curve::Affine& out) {
    if (!(out.x == golden[i].x) || !(out.y == golden[i].y)) ++mismatches;
  };

  // Lane staging, as BatchEngine does it: decomposition + recoding and the
  // input bindings of one job.
  auto stage = [&](const engine::SmJob& job, curve::Decomposition& dec,
                   curve::RecodedScalar& rec, trace::InputBindings& binds,
                   trace::EvalContext& ctx) {
    trace::bind_sm_inputs(*prog, job.base, binds);
    dec = curve::decompose(job.k);
    rec = curve::recode(dec.a);
    ctx = trace::EvalContext{};
    ctx.recoded = &rec;
    ctx.k_was_even = dec.k_was_even;
  };

  // Engine rows: 8-lane waves through BatchEngine::run, best of 3 after a
  // warm-up that sizes the arenas.
  auto run_engine = [&](int workers) {
    engine::EngineOptions eopt;
    eopt.workers = workers;
    eopt.key = key;
    eopt.cache = &cache;
    engine::BatchEngine eng(eopt);
    eng.run(jobs);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      const std::vector<engine::SmResult> results = eng.run(jobs);
      best = std::max(best, kJobs / secs_since(t0));
      if (rep == 0)
        for (size_t i = 0; i < jobs.size(); ++i) check(i, results[i].out);
    }
    return best;
  };
  const double full_jps = run_engine(1);
  std::printf("%-34s %12.1f\n", "engine, 1 worker, 8 lanes", full_jps);
  const double jps_8w = run_engine(8);
  std::printf("%-34s %12.1f\n", "engine, 8 workers, 8 lanes", jps_8w);

  // Ragged batches: 1..7 jobs per run(), each one partial wave. Ungated;
  // on the generic-only build this is the partial-wave smoke.
  double ragged_jps = 0.0;
  {
    engine::EngineOptions eopt;
    eopt.key = key;
    eopt.cache = &cache;
    engine::BatchEngine eng(eopt);
    constexpr size_t kRaggedJobs = 1 + 2 + 3 + 4 + 5 + 6 + 7;
    for (int rep = 0; rep < 4; ++rep) {  // rep 0 is the warm-up
      auto t0 = std::chrono::steady_clock::now();
      for (size_t n = 1, first = 0; n <= 7; first += n, ++n) {
        const std::vector<engine::SmJob> batch(jobs.begin() + first,
                                               jobs.begin() + first + n);
        const std::vector<engine::SmResult> results = eng.run(batch);
        if (rep == 0)
          for (size_t j = 0; j < n; ++j) check(first + j, results[j].out);
      }
      if (rep > 0) ragged_jps = std::max(ragged_jps, kRaggedJobs / secs_since(t0));
    }
  }
  std::printf("%-34s %12.1f\n", "engine, ragged batches of 1..7", ragged_jps);

  const double ratio_8w = jps_8w / full_jps;
  std::printf("\n8w/1w: %.2f   cross-check: %s\n", ratio_8w,
              mismatches == 0 ? "all match" : "MISMATCH");

  // Ledger efficiency of one 8-lane wave, timed on this thread straight
  // through run_lanes (no pool hand-off, no per-job staging): every op of
  // the lowered program is priced as one slot-program op of its kind over
  // the wave's 8 lanes (a conj at the add price). Each timed batch of waves
  // is followed by a pricing pass on the same thread, and the best of each
  // is kept, so both come from the same stretch of host load.
  constexpr int kW = 8, kWaves = 4;
  std::vector<trace::InputBindings> binds(kW);
  std::vector<curve::Decomposition> decs(kW);
  std::vector<curve::RecodedScalar> recs(kW);
  std::vector<trace::EvalContext> ctxs(kW);
  for (size_t l = 0; l < kW; ++l) stage(jobs[l], decs[l], recs[l], binds[l], ctxs[l]);
  engine::LaneWorkspace lws;
  engine::run_lanes(rom, binds.data(), ctxs.data(), kW, lws);  // warm-up
  for (int l = 0; l < kW; ++l)
    check(static_cast<size_t>(l),
          {engine::lane_output(rom, lws, "x", l), engine::lane_output(rom, lws, "y", l)});
  double wave_us = 1e300;
  SlotOpCost cost{1e300, 1e300, 1e300};
  for (int rep = 0; rep < 25; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int w = 0; w < kWaves; ++w) engine::run_lanes(rom, binds.data(), ctxs.data(), kW, lws);
    wave_us = std::min(wave_us, secs_since(t0) * 1e6 / kWaves);
    const SlotOpCost c = slot_op_cost();
    cost.mul_ns = std::min(cost.mul_ns, c.mul_ns);
    cost.sqr_ns = std::min(cost.sqr_ns, c.sqr_ns);
    cost.add_ns = std::min(cost.add_ns, c.add_ns);
  }
  long muls = 0, sqrs = 0, adds = 0;
  for (const field::lanes::SlotOp& op : rom.lanes.ops) {
    if (op.kind == field::lanes::SlotOp::kMul) ++muls;
    else if (op.kind == field::lanes::SlotOp::kSqr) ++sqrs;
    else ++adds;
  }
  const double floor_us =
      kW * (muls * cost.mul_ns + sqrs * cost.sqr_ns + adds * cost.add_ns) / 1e3;
  const double efficiency = floor_us / wave_us;
  std::printf("8-lane wave: %.1f us measured, %.1f us floor (%ld mul x %.2f ns + %ld sqr x "
              "%.2f ns + %ld add/sub x %.2f ns, per lane-op) -> efficiency %.3f\n",
              wave_us, floor_us, muls, cost.mul_ns, sqrs, cost.sqr_ns, adds, cost.add_ns,
              efficiency);

  bench::JsonRecorder rec("lanes");
  rec.record("engine.1w.jobs_per_s", full_jps, "jobs/s");
  rec.record("engine.8w.jobs_per_s", jps_8w, "jobs/s");
  rec.record("ragged.jobs_per_s", ragged_jps, "jobs/s");
  rec.record("ratio_8w_vs_1w", ratio_8w, "x");
  rec.record("slots.mul_ns_per_lane_op", cost.mul_ns, "ns");
  rec.record("slots.sqr_ns_per_lane_op", cost.sqr_ns, "ns");
  rec.record("slots.add_ns_per_lane_op", cost.add_ns, "ns");
  rec.record("wave.measured_us", wave_us, "us");
  rec.record("wave.floor_us", floor_us, "us");
  rec.record("wave.efficiency", efficiency, "ratio");
  rec.record("check.mismatches", mismatches);

  std::printf(
      "\nThe engine runs 8 jobs as one pass of the pre-lowered slot program\n"
      "through the kernel table's runner, and a partial wave as one pass\n"
      "with fewer live lanes. The gated efficiency is measured in-process so\n"
      "shared-host load cancels out.\n");
  return mismatches == 0 ? 0 : 1;
}

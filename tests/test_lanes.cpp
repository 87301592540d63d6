// Lane-parallel execution: the vector Fp2 batch kernels of every
// compiled-in dispatch table against an independent Montgomery reference
// (10k random inputs plus boundary operands incl. p-1 and Karatsuba sums
// next to 2^128), each table's slot-program runner against the scalar Fp2
// operators, the lane executor against the reference simulator for every
// wave width over a MachineConfig grid, and the strip-parallel batch
// inversion. The executor tests run once more under each portable table
// (tests/CMakeLists.txt), since active() picks one table per process. The generic table calls the scalar
// field code itself, so comparing it with the scalar operators would
// test that code against itself; the reference here shares none of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <vector>

#include "asic/simulator.hpp"
#include "common/modint.hpp"
#include "common/rng.hpp"
#include "curve/point.hpp"
#include "curve/scalar.hpp"
#include "engine/batch.hpp"
#include "engine/lanes.hpp"
#include "field/fp2.hpp"
#include "field/fp_lanes.hpp"

namespace fourq {
namespace {

namespace lk = field::lanes;
using field::Fp;
using field::Fp2;

u128 p_minus(uint64_t k) { return Fp::P() - k; }

// Deterministic operand stream: random canonical values with the boundary
// operands (0, 1, p-1, 2^64 +/- 1, ...) planted pairwise at the front.
std::vector<u128> operand_stream(size_t n, uint64_t seed, size_t phase) {
  const u128 bnd[] = {0,
                      1,
                      2,
                      p_minus(1),
                      p_minus(2),
                      (u128(1) << 64) - 1,
                      (u128(1) << 64),
                      (u128(1) << 64) + 1,
                      (u128(1) << 126) - 1,
                      (u128(1) << 126)};
  constexpr size_t kB = sizeof(bnd) / sizeof(bnd[0]);
  Rng rng(seed);
  std::vector<u128> v(n);
  for (size_t i = 0; i < n; ++i) {
    U256 r = rng.next_u256();
    u128 x = (u128(r.w[1]) << 64) | r.w[0];
    x &= (u128(1) << 127) - 1;
    if (x >= Fp::P()) x -= Fp::P();
    v[i] = x;
  }
  // Pairwise boundary coverage: stream "phase" strides the second index so
  // (a, b) streams built with phases 0/1 cover every boundary pair.
  for (size_t i = 0; i < kB * kB && i < n; ++i)
    v[i] = bnd[phase == 0 ? i % kB : i / kB];
  return v;
}

std::vector<const lk::Kernels*> compiled_tables() {
  std::vector<const lk::Kernels*> t{&lk::generic_kernels()};
  if (lk::avx2_supported()) t.push_back(&lk::avx2_kernels());
  if (lk::avx512_supported()) t.push_back(&lk::avx512_kernels());
  return t;
}

// Independent reference: the generic Montgomery arithmetic mod p
// (common/modint.hpp) for reduced results, the generic 4x4-limb U256
// product for the unreduced ones.
class MontyP {
 public:
  U256 in(u128 v) const {
    return mt_.to_monty(U256(static_cast<uint64_t>(v), static_cast<uint64_t>(v >> 64), 0, 0));
  }
  u128 out(const U256& m) const {
    const U256 v = mt_.from_monty(m);
    return (u128(v.w[1]) << 64) | v.w[0];
  }
  const Monty& mt() const { return mt_; }

 private:
  Monty mt_{U256(~0ull, 0x7fffffffffffffffull, 0, 0)};
};

TEST(LaneKernelsTest, Fp2KernelsMatchMontyReference) {
  constexpr size_t N = 10007;
  std::vector<u128> are = operand_stream(N, 31, 0);
  std::vector<u128> aim = operand_stream(N, 32, 1);
  std::vector<u128> bre = operand_stream(N, 33, 1);
  std::vector<u128> bim = operand_stream(N, 34, 0);
  // Reference results per element: (x0 + x1 i)(y0 + y1 i) =
  // (x0 y0 - x1 y1) + (x0 y1 + x1 y0) i, x + y and x - y.
  const MontyP ref;
  const Monty& mt = ref.mt();
  std::vector<u128> mul_re(N), mul_im(N), add_re(N), add_im(N), sub_re(N), sub_im(N);
  for (size_t i = 0; i < N; ++i) {
    const U256 x0 = ref.in(are[i]), x1 = ref.in(aim[i]);
    const U256 y0 = ref.in(bre[i]), y1 = ref.in(bim[i]);
    mul_re[i] = ref.out(mt.sub(mt.mul(x0, y0), mt.mul(x1, y1)));
    mul_im[i] = ref.out(mt.add(mt.mul(x0, y1), mt.mul(x1, y0)));
    add_re[i] = ref.out(mt.add(x0, y0));
    add_im[i] = ref.out(mt.add(x1, y1));
    sub_re[i] = ref.out(mt.sub(x0, y0));
    sub_im[i] = ref.out(mt.sub(x1, y1));
  }
  std::vector<u128> r1(N), r2(N);
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    k->fp2_mul(are.data(), aim.data(), bre.data(), bim.data(), r1.data(), r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      ASSERT_EQ(r1[i], mul_re[i]) << "fp2_mul re lane " << i;
      ASSERT_EQ(r2[i], mul_im[i]) << "fp2_mul im lane " << i;
    }
    k->fp2_add(are.data(), aim.data(), bre.data(), bim.data(), r1.data(), r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      ASSERT_EQ(r1[i], add_re[i]) << "fp2_add re lane " << i;
      ASSERT_EQ(r2[i], add_im[i]) << "fp2_add im lane " << i;
    }
    k->fp2_sub(are.data(), aim.data(), bre.data(), bim.data(), r1.data(), r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      ASSERT_EQ(r1[i], sub_re[i]) << "fp2_sub re lane " << i;
      ASSERT_EQ(r2[i], sub_im[i]) << "fp2_sub im lane " << i;
    }
  }
}

TEST(LaneKernelsTest, RaggedAndAliasedCalls) {
  // Every n in [1, 17] (straddling both vector widths), results written
  // over the inputs — the elementwise-aliasing case the contract allows.
  std::vector<u128> are = operand_stream(17, 41, 0);
  std::vector<u128> aim = operand_stream(17, 42, 1);
  std::vector<u128> bre = operand_stream(17, 43, 0);
  std::vector<u128> bim = operand_stream(17, 44, 1);
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    for (size_t n = 1; n <= 17; ++n) {
      std::vector<u128> xre(are.begin(), are.begin() + n);
      std::vector<u128> xim(aim.begin(), aim.begin() + n);
      k->fp2_mul(xre.data(), xim.data(), bre.data(), bim.data(), xre.data(),
                 xim.data(), n);
      for (size_t i = 0; i < n; ++i) {
        const Fp2 want = lk::join(are[i], aim[i]) * lk::join(bre[i], bim[i]);
        ASSERT_EQ(xre[i], want.re().raw()) << "n=" << n << " lane " << i;
        ASSERT_EQ(xim[i], want.im().raw()) << "n=" << n << " lane " << i;
      }
    }
  }
}

TEST(LaneKernelsTest, DispatchHonorsEnvOverride) {
  // active() resolves once per process, so spawn nothing: just check the
  // compiled-in tables expose distinct names and the active one is among
  // them (the generic-only CI leg sees exactly {"generic"}).
  std::vector<const lk::Kernels*> tables = compiled_tables();
  bool found = false;
  for (const lk::Kernels* k : tables)
    if (std::string(k->name) == lk::active().name) found = true;
  EXPECT_TRUE(found) << "active table " << lk::active().name
                     << " not in the compiled-in set";
}

// --- slot programs through each table's runner ------------------------------

// A slot program with its wave inputs, checked against the same ops on
// scalar Fp2 values lane by lane.
struct SlotCase {
  size_t slots = 0;
  std::vector<lk::SlotOp> ops;
  std::vector<uint16_t> inputs, outputs;
  std::vector<u128> in_re, in_im;  // [input * kWaveLanes + lane]
  std::vector<uint16_t> gather;    // [row * kWaveLanes + lane] -> slot
};

constexpr size_t kWL = lk::kWaveLanes;

std::vector<Fp2> scalar_outputs(const SlotCase& c, size_t lane) {
  std::vector<Fp2> st(c.slots);
  for (size_t i = 0; i < c.inputs.size(); ++i)
    st[c.inputs[i]] = lk::join(c.in_re[i * kWL + lane], c.in_im[i * kWL + lane]);
  auto operand = [&](uint16_t src, bool gathered) {
    return st[gathered ? c.gather[src * kWL + lane] : src];
  };
  for (const lk::SlotOp& op : c.ops) {
    const Fp2 a = operand(op.a, op.gather & lk::SlotOp::kGatherA);
    const Fp2 b = op.kind == lk::SlotOp::kConj || op.kind == lk::SlotOp::kCopy
                      ? Fp2()
                      : operand(op.b, op.gather & lk::SlotOp::kGatherB);
    switch (op.kind) {
      case lk::SlotOp::kMul: st[op.dst] = a * b; break;
      case lk::SlotOp::kAdd: st[op.dst] = a + b; break;
      case lk::SlotOp::kSub: st[op.dst] = a - b; break;
      case lk::SlotOp::kConj: st[op.dst] = a.conj(); break;
      default: st[op.dst] = a; break;
    }
  }
  std::vector<Fp2> out;
  for (uint16_t o : c.outputs) out.push_back(st[o]);
  return out;
}

void check_slot_case(const SlotCase& c) {
  lk::SlotProgram prog;
  prog.ops = c.ops.data();
  prog.n_ops = c.ops.size();
  prog.inputs = c.inputs.data();
  prog.n_inputs = c.inputs.size();
  prog.outputs = c.outputs.data();
  prog.n_outputs = c.outputs.size();
  std::vector<std::vector<Fp2>> want(kWL);
  for (size_t l = 0; l < kWL; ++l) want[l] = scalar_outputs(c, l);
  std::vector<uint64_t> state(c.slots * lk::kSlotStateBytes / sizeof(uint64_t) + 8);
  std::vector<u128> out_re(c.outputs.size() * kWL), out_im(out_re.size());
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    for (size_t lanes = 1; lanes <= kWL; ++lanes) {
      lk::SlotWave wave;
      wave.lanes = lanes;
      wave.in_re = c.in_re.data();
      wave.in_im = c.in_im.data();
      wave.gather = c.gather.data();
      wave.out_re = out_re.data();
      wave.out_im = out_im.data();
      wave.state = reinterpret_cast<void*>(
          (reinterpret_cast<uintptr_t>(state.data()) + 63) & ~uintptr_t{63});
      k->run_slots(prog, wave);
      for (size_t l = 0; l < lanes; ++l)
        for (size_t o = 0; o < c.outputs.size(); ++o)
          ASSERT_TRUE(lk::join(out_re[o * kWL + l], out_im[o * kWL + l]) == want[l][o])
              << "lanes=" << lanes << " lane " << l << " output " << o;
    }
  }
}

lk::SlotOp slot_op(uint8_t kind, uint16_t dst, uint16_t a, uint16_t b = 0, uint8_t gather = 0) {
  lk::SlotOp op;
  op.kind = kind;
  op.dst = dst;
  op.a = a;
  op.b = b;
  op.gather = gather;
  return op;
}

TEST(LaneSlotProgramTest, EveryOpOnBoundaryOperands) {
  // Inputs 0, 1, p-1 and random values in both components, a different mix
  // in every lane; every op kind on every input pair, each into a fresh
  // output slot, and gathers whose slot differs per lane.
  const u128 bnd[] = {0, 1, p_minus(1), p_minus(2), (u128(1) << 126) + 5};
  constexpr size_t kB = sizeof(bnd) / sizeof(bnd[0]);
  constexpr uint16_t kIn = 8;
  SlotCase c;
  Rng rng(91);
  for (uint16_t i = 0; i < kIn; ++i) {
    c.inputs.push_back(i);
    for (size_t l = 0; l < kWL; ++l) {
      const bool random = (i + l) % 4 == 3;
      c.in_re.push_back(random ? Fp::from_u256(rng.next_u256()).raw() : bnd[(i + l) % kB]);
      c.in_im.push_back(bnd[(3 * i + 2 * l) % kB]);
    }
  }
  constexpr uint16_t kRows = 4;
  for (uint16_t r = 0; r < kRows; ++r)
    for (size_t l = 0; l < kWL; ++l) c.gather.push_back(static_cast<uint16_t>(rng.next_below(kIn)));
  uint16_t next = kIn;
  auto emit = [&](uint8_t kind, uint16_t a, uint16_t b, uint8_t gather) {
    c.ops.push_back(slot_op(kind, next, a, b, gather));
    c.outputs.push_back(next++);
  };
  for (uint8_t kind : {lk::SlotOp::kMul, lk::SlotOp::kAdd, lk::SlotOp::kSub})
    for (uint16_t a = 0; a < kIn; ++a)
      for (uint16_t b = 0; b < kIn; ++b) emit(kind, a, b, 0);
  for (uint16_t a = 0; a < kIn; ++a) {
    emit(lk::SlotOp::kConj, a, 0, 0);
    emit(lk::SlotOp::kCopy, a, 0, 0);
  }
  for (uint16_t r = 0; r < kRows; ++r) {
    for (uint8_t kind : {lk::SlotOp::kMul, lk::SlotOp::kAdd, lk::SlotOp::kSub}) {
      emit(kind, r, static_cast<uint16_t>(r + 1), lk::SlotOp::kGatherA);
      emit(kind, static_cast<uint16_t>(r + 1), r, lk::SlotOp::kGatherB);
      emit(kind, r, static_cast<uint16_t>((r + 1) % kRows),
           lk::SlotOp::kGatherA | lk::SlotOp::kGatherB);
    }
    emit(lk::SlotOp::kConj, r, 0, lk::SlotOp::kGatherA);
    emit(lk::SlotOp::kCopy, r, 0, lk::SlotOp::kGatherA);
  }
  c.slots = next;
  check_slot_case(c);
}

TEST(LaneSlotProgramTest, LongRandomProgramsMatchScalarOps) {
  // Deep chains over a small state (dst may equal an operand), so values
  // cycle through every op many times before the readout.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    constexpr uint16_t kSlots = 16, kRows = 6;
    SlotCase c;
    c.slots = kSlots;
    for (uint16_t i = 0; i < kSlots; ++i) {
      c.inputs.push_back(i);
      c.outputs.push_back(i);
    }
    const std::vector<u128> re = operand_stream(kSlots * kWL, 100 + seed, 0);
    const std::vector<u128> im = operand_stream(kSlots * kWL, 200 + seed, 1);
    c.in_re.assign(re.begin(), re.end());
    c.in_im.assign(im.begin(), im.end());
    for (size_t i = 0; i < kRows * kWL; ++i)
      c.gather.push_back(static_cast<uint16_t>(rng.next_below(kSlots)));
    for (int i = 0; i < 3000; ++i) {
      const auto kind = static_cast<uint8_t>(rng.next_below(5));
      const auto gather = static_cast<uint8_t>(rng.next_below(8) == 0 ? 1 + rng.next_below(3) : 0);
      const auto a = static_cast<uint16_t>(
          rng.next_below(gather & lk::SlotOp::kGatherA ? kRows : kSlots));
      const auto b = static_cast<uint16_t>(
          rng.next_below(gather & lk::SlotOp::kGatherB ? kRows : kSlots));
      c.ops.push_back(slot_op(kind, static_cast<uint16_t>(rng.next_below(kSlots)), a, b, gather));
    }
    check_slot_case(c);
  }
}

// --- lane executor vs the reference simulator ------------------------------

engine::CompileKey functional_key() {
  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace.endo = trace::EndoVariant::kFunctional;
  return key;
}

// One wave's kMaxLanes staged jobs, each with its own base point and
// scalar; lane l runs job l.
struct StagedJobs {
  std::vector<trace::InputBindings> bindings;
  std::vector<curve::Decomposition> decs;
  std::vector<curve::RecodedScalar> recs;
  std::vector<trace::EvalContext> ctxs;
};

void stage_jobs(const engine::CompiledProgram& prog, uint64_t seed, StagedJobs& j) {
  constexpr size_t kW = engine::kMaxLanes;
  j.bindings.assign(kW, {});
  j.decs.assign(kW, {});
  j.recs.assign(kW, {});
  j.ctxs.assign(kW, {});
  Rng rng(seed);
  for (size_t i = 0; i < kW; ++i) {
    trace::bind_sm_inputs(prog, curve::deterministic_point(seed + i), j.bindings[i]);
    j.decs[i] = curve::decompose(rng.next_u256());
    j.recs[i] = curve::recode(j.decs[i].a);
    j.ctxs[i].recoded = &j.recs[i];
    j.ctxs[i].k_was_even = j.decs[i].k_was_even;
  }
}

// Runs waves of the given widths through one workspace, each wave on jobs
// of its own (fresh bases and scalars), and checks every output of every
// lane bitwise against asic::simulate on the same job. A wave that kept an
// earlier wave's outputs, inputs or gather rows fails the check.
void check_widths(const engine::CompileKey& key, uint64_t seed, std::initializer_list<int> widths) {
  auto prog = engine::CompileCache::process_cache().get_or_compile(key);
  const engine::DecodedRom rom = engine::decode(prog->sm);
  StagedJobs jobs;
  engine::LaneWorkspace ws;
  uint64_t wave_seed = seed;
  for (int lanes : widths) {
    stage_jobs(*prog, wave_seed, jobs);
    wave_seed += engine::kMaxLanes;  // no base point repeats across waves
    engine::run_lanes(rom, jobs.bindings.data(), jobs.ctxs.data(), lanes, ws);
    for (int l = 0; l < lanes; ++l) {
      const size_t i = static_cast<size_t>(l);
      const asic::SimResult ref = asic::simulate(prog->sm, jobs.bindings[i], jobs.ctxs[i]);
      for (const auto& [name, reg] : rom.outputs)
        ASSERT_TRUE(engine::lane_output(rom, ws, name, l) == ref.outputs.at(name))
            << "lanes=" << lanes << " lane " << l << " output " << name;
    }
  }
}

TEST(LaneExecutorTest, EveryWidthMatchesReferenceSimulator) {
  check_widths(functional_key(), 1000, {1, 2, 3, 4, 5, 6, 7, 8});
}

TEST(LaneExecutorTest, RaggedWidthsMatchReferenceSimulator) {
  check_widths(functional_key(), 2000, {3, 5, 7});
}

TEST(LaneExecutorTest, WorkspaceReuseAcrossWidths) {
  // One workspace serving wide then narrow waves (the engine's ragged-tail
  // pattern): the narrow run must not see stale wide-lane state.
  check_widths(functional_key(), 77, {8, 3, 8, 1});
}

TEST(LaneExecutorTest, SameCycleReadsSeeTheOldRegister) {
  // A hand-written ROM where cycle 3 writes r0 back and also issues an
  // add and a mul that read r0: the issues must see r0's old value, as in
  // asic::simulate (issues first, then writebacks, within a cycle).
  sched::CompiledSm sm;
  sm.rf_slots = 4;
  sm.preload = {{0, 0}, {1, 1}};
  sm.outputs = {{"prod", 0}, {"sum", 2}, {"sq", 3}};
  auto reg = [](int r) {
    sched::SrcSel s;
    s.kind = sched::SrcSel::Kind::kReg;
    s.reg = r;
    return s;
  };
  auto unit = [](trace::OpKind op, sched::SrcSel a, sched::SrcSel b) {
    sched::UnitCtrl u;
    u.op = op;
    u.a = a;
    u.b = b;
    return u;
  };
  sm.rom.resize(7);
  sm.rom[0].mul.push_back(unit(trace::OpKind::kMul, reg(0), reg(1)));
  sm.rom[3].mul.push_back(unit(trace::OpKind::kMul, reg(0), reg(0)));
  sm.rom[3].addsub.push_back(unit(trace::OpKind::kAdd, reg(0), reg(1)));
  sm.rom[3].writebacks.push_back({0, true, 0});
  sm.rom[4].writebacks.push_back({2, false, 0});
  sm.rom[6].writebacks.push_back({3, true, 0});
  const engine::DecodedRom rom = engine::decode(sm);

  constexpr int kLanes = 3;
  std::vector<trace::InputBindings> bindings(kLanes);
  std::vector<trace::EvalContext> ctxs(kLanes);
  Rng rng(5);
  for (auto& b : bindings) {
    b.emplace_back(0, Fp2(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256())));
    b.emplace_back(1, Fp2(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256())));
  }
  engine::LaneWorkspace ws;
  engine::run_lanes(rom, bindings.data(), ctxs.data(), kLanes, ws);
  for (int l = 0; l < kLanes; ++l) {
    const size_t i = static_cast<size_t>(l);
    const asic::SimResult ref = asic::simulate(sm, bindings[i], ctxs[i]);
    const Fp2& a = bindings[i][0].second;
    const Fp2& b = bindings[i][1].second;
    EXPECT_TRUE(ref.outputs.at("sum") == a + b);
    EXPECT_TRUE(ref.outputs.at("sq") == a * a);
    for (const char* name : {"prod", "sum", "sq"})
      EXPECT_TRUE(engine::lane_output(rom, ws, name, l) == ref.outputs.at(name))
          << "lane " << l << " output " << name;
  }
}

TEST(LaneExecutorTest, MachineConfigGridMatchesReferenceSimulator) {
  // Shapes the default ROM never exercises: more units, short and deep
  // multiplier pipelines (mul rings of 2 and 6 slots), an initiation
  // interval of 2, a 2-cycle adder, no forwarding. Every width 1..8, both
  // endomorphism variants.
  struct Shape {
    int muls, adds, mul_latency, mul_ii, addsub_latency;
    bool forwarding;
  };
  const Shape grid[] = {
      {1, 1, 1, 1, 1, true}, {2, 2, 5, 1, 1, true}, {2, 1, 3, 2, 1, true},
      {1, 2, 3, 1, 2, true}, {1, 1, 3, 1, 1, false},
  };
  for (trace::EndoVariant endo : {trace::EndoVariant::kFunctional, trace::EndoVariant::kPaperCost}) {
    for (const Shape& g : grid) {
      engine::CompileKey key = functional_key();
      key.trace.endo = endo;
      sched::MachineConfig& cfg = key.compile.cfg;
      cfg.num_multipliers = g.muls;
      cfg.num_addsubs = g.adds;
      cfg.mul_latency = g.mul_latency;
      cfg.mul_ii = g.mul_ii;
      cfg.addsub_latency = g.addsub_latency;
      cfg.forwarding = g.forwarding;
      if (g.muls + g.adds > 2) cfg.rf_write_ports = 1 + std::max(g.muls, g.adds);
      SCOPED_TRACE("endo=" + std::to_string(static_cast<int>(endo)) +
                   " muls=" + std::to_string(g.muls) + " adds=" + std::to_string(g.adds) +
                   " mul_latency=" + std::to_string(g.mul_latency) +
                   " mul_ii=" + std::to_string(g.mul_ii) +
                   " addsub_latency=" + std::to_string(g.addsub_latency) +
                   " forwarding=" + std::to_string(g.forwarding));
      check_widths(key, 300, {1, 2, 3, 4, 5, 6, 7, 8});
    }
  }
}

// --- strip-parallel batch inversion ----------------------------------------

TEST(LaneBatchInvertTest, MatchesPerElementInversionIncludingZeros) {
  for (size_t n : {1u, 7u, 31u, 32u, 33u, 64u, 257u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(500 + n);
    std::vector<Fp2> xs(n), want(n);
    for (size_t i = 0; i < n; ++i) {
      U256 r = rng.next_u256();
      xs[i] = Fp2::from_u64(r.w[0], r.w[1]);
      if (i % 5 == 3) xs[i] = Fp2();  // zeros pass through untouched
      want[i] = xs[i].is_zero() ? Fp2() : xs[i].inv();
    }
    field::batch_invert(xs.data(), n);
    for (size_t i = 0; i < n; ++i)
      ASSERT_TRUE(xs[i] == want[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace fourq

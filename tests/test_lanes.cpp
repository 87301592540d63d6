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
    const Fp2 b = op.kind == lk::SlotOp::kConj || op.kind == lk::SlotOp::kSqr
                      ? Fp2()
                      : operand(op.b, op.gather & lk::SlotOp::kGatherB);
    switch (op.kind) {
      case lk::SlotOp::kMul: st[op.dst] = a * b; break;
      case lk::SlotOp::kAdd: st[op.dst] = a + b; break;
      case lk::SlotOp::kSub: st[op.dst] = a - b; break;
      case lk::SlotOp::kConj: st[op.dst] = a.conj(); break;
      default: st[op.dst] = a.sqr(); break;
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
    emit(lk::SlotOp::kSqr, a, 0, 0);
  }
  for (uint16_t r = 0; r < kRows; ++r) {
    for (uint8_t kind : {lk::SlotOp::kMul, lk::SlotOp::kAdd, lk::SlotOp::kSub}) {
      emit(kind, r, static_cast<uint16_t>(r + 1), lk::SlotOp::kGatherA);
      emit(kind, static_cast<uint16_t>(r + 1), r, lk::SlotOp::kGatherB);
      emit(kind, r, static_cast<uint16_t>((r + 1) % kRows),
           lk::SlotOp::kGatherA | lk::SlotOp::kGatherB);
    }
    emit(lk::SlotOp::kConj, r, 0, lk::SlotOp::kGatherA);
    emit(lk::SlotOp::kSqr, r, 0, lk::SlotOp::kGatherA);
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

TEST(LaneSlotProgramTest, SquareMatchesFp2SqrAndProduct) {
  // kSqr on 0, 1, p-1 and random inputs, on the semi-reduced values the
  // avx512 state carries between ops ((p-1)+(p-1), (p-1)+1 = p, 0-(p-1), a
  // square of a square, a square of a product) and on a gathered operand.
  // The runners must match Fp2::sqr (the reference check_slot_case uses)
  // and the product a * a.
  const u128 bnd[] = {0, 1, p_minus(1), p_minus(2), (u128(1) << 126) + 5};
  constexpr size_t kB = sizeof(bnd) / sizeof(bnd[0]);
  SlotCase c;
  Rng rng(92);
  constexpr uint16_t kIn = 4;  // 0 = p-1, 1 = 1, 2 = 0, 3 = mixed per lane
  for (uint16_t i = 0; i < kIn; ++i) {
    c.inputs.push_back(i);
    for (size_t l = 0; l < kWL; ++l) {
      const u128 fixed[] = {p_minus(1), 1, 0};
      const u128 mixed = l % 3 == 2 ? Fp::from_u256(rng.next_u256()).raw() : bnd[l % kB];
      c.in_re.push_back(i < 3 ? fixed[i] : mixed);
      c.in_im.push_back(i < 3 ? fixed[(i + l) % 3] : bnd[(3 * l + 1) % kB]);
    }
  }
  for (size_t l = 0; l < kWL; ++l) c.gather.push_back(static_cast<uint16_t>(l % kIn));
  uint16_t next = kIn;
  auto op = [&](uint8_t kind, uint16_t a, uint16_t b = 0, uint8_t gather = 0) {
    c.ops.push_back(slot_op(kind, next, a, b, gather));
    return next++;
  };
  std::vector<uint16_t> squares;
  for (uint16_t i = 0; i < kIn; ++i) squares.push_back(op(lk::SlotOp::kSqr, i));
  squares.push_back(op(lk::SlotOp::kSqr, op(lk::SlotOp::kAdd, 0, 0)));  // (p-1)+(p-1)
  squares.push_back(op(lk::SlotOp::kSqr, op(lk::SlotOp::kAdd, 0, 1)));  // (p-1)+1
  squares.push_back(op(lk::SlotOp::kSqr, op(lk::SlotOp::kSub, 2, 0)));  // 0-(p-1)
  squares.push_back(op(lk::SlotOp::kSqr, op(lk::SlotOp::kSqr, 3)));    // (a^2)^2
  squares.push_back(op(lk::SlotOp::kSqr, op(lk::SlotOp::kMul, 3, 0)));  // (a(p-1))^2
  squares.push_back(op(lk::SlotOp::kSqr, 0, 0, lk::SlotOp::kGatherA));  // gathered input
  c.outputs = squares;
  c.slots = next;
  check_slot_case(c);
  // The reference's squares are the products a * a.
  for (size_t l = 0; l < kWL; ++l) {
    std::vector<Fp2> st(c.slots);
    for (size_t i = 0; i < kIn; ++i) st[i] = lk::join(c.in_re[i * kWL + l], c.in_im[i * kWL + l]);
    for (const lk::SlotOp& o : c.ops) {
      const Fp2 a = st[o.gather ? c.gather[o.a * kWL + l] : o.a];
      switch (o.kind) {
        case lk::SlotOp::kSqr: st[o.dst] = a * a; break;
        case lk::SlotOp::kMul: st[o.dst] = a * st[o.b]; break;
        case lk::SlotOp::kAdd: st[o.dst] = a + st[o.b]; break;
        default: st[o.dst] = a - st[o.b]; break;
      }
    }
    const std::vector<Fp2> want = scalar_outputs(c, l);
    for (size_t o = 0; o < c.outputs.size(); ++o)
      EXPECT_TRUE(st[c.outputs[o]] == want[o]) << "lane " << l << " output " << o;
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

// --- hand-written ROMs -------------------------------------------------------

sched::SrcSel reg(int r) {
  sched::SrcSel s;
  s.kind = sched::SrcSel::Kind::kReg;
  s.reg = r;
  return s;
}

sched::SrcSel bus(sched::SrcSel::Kind kind) {
  sched::SrcSel s;
  s.kind = kind;
  return s;
}

// A correction select: lanes whose k_was_even is set read the map's second
// candidate, the others its first.
sched::SrcSel select(int map) {
  sched::SrcSel s;
  s.kind = sched::SrcSel::Kind::kIndexed;
  s.map = map;
  s.iter = 0;
  return s;
}

sched::UnitCtrl unit(trace::OpKind op, sched::SrcSel a, sched::SrcSel b) {
  sched::UnitCtrl u;
  u.op = op;
  u.a = a;
  u.b = b;
  return u;
}

// Lane l binds random values to input ops 0..inputs-1 and has k_was_even
// set on odd lanes. Returns each lane's inputs.
std::vector<std::vector<Fp2>> run_hand_rom(const sched::CompiledSm& sm, int inputs, int lanes,
                                           const engine::DecodedRom& rom,
                                           engine::LaneWorkspace& ws) {
  std::vector<trace::InputBindings> bindings(static_cast<size_t>(lanes));
  std::vector<trace::EvalContext> ctxs(static_cast<size_t>(lanes));
  std::vector<std::vector<Fp2>> in(static_cast<size_t>(lanes));
  Rng rng(5);
  for (size_t l = 0; l < bindings.size(); ++l) {
    for (int op = 0; op < inputs; ++op) {
      in[l].push_back(Fp2(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256())));
      bindings[l].emplace_back(op, in[l].back());
    }
    ctxs[l].k_was_even = l % 2 == 1;
  }
  engine::run_lanes(rom, bindings.data(), ctxs.data(), lanes, ws);
  for (size_t l = 0; l < bindings.size(); ++l) {
    const asic::SimResult ref = asic::simulate(sm, bindings[l], ctxs[l]);
    for (const auto& [name, r] : sm.outputs)
      EXPECT_TRUE(engine::lane_output(rom, ws, name, static_cast<int>(l)) == ref.outputs.at(name))
          << "lane " << l << " output " << name;
  }
  return in;
}

TEST(LaneExecutorTest, SameCycleReadsSeeTheOldRegister) {
  // A hand-written ROM where cycle 3 writes r0 back and also issues an
  // add and a mul that read r0: the issues must see r0's old value, as in
  // asic::simulate (issues first, then writebacks, within a cycle).
  sched::CompiledSm sm;
  sm.rf_slots = 4;
  sm.preload = {{0, 0}, {1, 1}};
  sm.outputs = {{"prod", 0}, {"sum", 2}, {"sq", 3}};
  sm.rom.resize(7);
  sm.rom[0].mul.push_back(unit(trace::OpKind::kMul, reg(0), reg(1)));
  sm.rom[3].mul.push_back(unit(trace::OpKind::kMul, reg(0), reg(0)));
  sm.rom[3].addsub.push_back(unit(trace::OpKind::kAdd, reg(0), reg(1)));
  sm.rom[3].writebacks.push_back({0, true, 0});
  sm.rom[4].writebacks.push_back({2, false, 0});
  sm.rom[6].writebacks.push_back({3, true, 0});
  const engine::DecodedRom rom = engine::decode(sm);
  engine::LaneWorkspace ws;
  const auto in = run_hand_rom(sm, 2, 3, rom, ws);
  for (int l = 0; l < 3; ++l) {
    const Fp2& a = in[static_cast<size_t>(l)][0];
    const Fp2& b = in[static_cast<size_t>(l)][1];
    EXPECT_TRUE(engine::lane_output(rom, ws, "sum", l) == a + b);
    EXPECT_TRUE(engine::lane_output(rom, ws, "sq", l) == a * a);
  }
}

TEST(LaneExecutorTest, RegisterReadBetweenIssueAndWritebackSeesTheOldValue) {
  // r0 * r1 issues at cycle 0 and lands at 3, where it is read from the
  // multiplier bus and written back over r2; r2's old value is still read
  // (and squared) before that writeback, and the product is read from r2
  // afterwards. With writebacks lowered to renamings, the old r2 and the
  // product live in separate slots over the same cycles.
  sched::CompiledSm sm;
  sm.rf_slots = 6;
  sm.preload = {{0, 0}, {1, 1}, {2, 2}};
  sm.outputs = {{"old", 3}, {"old_sq", 4}, {"bus", 5}, {"reg", 0}};
  sm.rom.resize(8);
  sm.rom[0].mul.push_back(unit(trace::OpKind::kMul, reg(0), reg(1)));
  sm.rom[1].mul.push_back(unit(trace::OpKind::kMul, reg(2), reg(2)));
  sm.rom[1].addsub.push_back(unit(trace::OpKind::kAdd, reg(2), reg(0)));
  sm.rom[2].writebacks.push_back({3, false, 0});
  sm.rom[3].addsub.push_back(
      unit(trace::OpKind::kSub, bus(sched::SrcSel::Kind::kMulBus), reg(2)));
  sm.rom[3].writebacks.push_back({2, true, 0});
  sm.rom[4].addsub.push_back(unit(trace::OpKind::kAdd, reg(2), reg(0)));
  sm.rom[4].writebacks.push_back({4, true, 0});
  sm.rom[4].writebacks.push_back({5, false, 0});
  sm.rom[5].writebacks.push_back({0, false, 0});
  const engine::DecodedRom rom = engine::decode(sm);
  EXPECT_EQ(rom.lanes.ops.size(), 5u);  // one op per issue, no writeback copies
  engine::LaneWorkspace ws;
  const auto in = run_hand_rom(sm, 3, 5, rom, ws);
  for (int l = 0; l < 5; ++l) {
    const std::vector<Fp2>& x = in[static_cast<size_t>(l)];
    const Fp2 prod = x[0] * x[1];
    EXPECT_TRUE(engine::lane_output(rom, ws, "old", l) == x[2] + x[0]);
    EXPECT_TRUE(engine::lane_output(rom, ws, "old_sq", l) == x[2] * x[2]);
    EXPECT_TRUE(engine::lane_output(rom, ws, "bus", l) == prod - x[2]);
    EXPECT_TRUE(engine::lane_output(rom, ws, "reg", l) == prod + x[0]);
  }
}

TEST(LaneExecutorTest, RewrittenSelectCandidateGetsItsOwnRow) {
  // Two gathers of the same (map, digit) through candidates {r0, r1}, with
  // r0 rewritten in between: the second gather must read the new r0, so
  // the two gathers are two rows naming different slots for it.
  sched::CompiledSm sm;
  sm.rf_slots = 5;
  sm.preload = {{0, 0}, {1, 1}, {2, 2}};
  sm.select_maps.push_back({trace::SelKind::kCorrection, {{0, 1}}});
  sm.outputs = {{"first", 3}, {"second", 4}};
  sm.rom.resize(6);
  sm.rom[0].addsub.push_back(unit(trace::OpKind::kAdd, select(0), reg(2)));
  sm.rom[1].addsub.push_back(unit(trace::OpKind::kAdd, reg(0), reg(2)));
  sm.rom[1].writebacks.push_back({3, false, 0});
  sm.rom[2].writebacks.push_back({0, false, 0});
  sm.rom[3].addsub.push_back(unit(trace::OpKind::kSub, select(0), reg(2)));
  sm.rom[4].writebacks.push_back({4, false, 0});
  const engine::DecodedRom rom = engine::decode(sm);
  const engine::LaneProgram& lp = rom.lanes;
  ASSERT_EQ(lp.gathers.size(), 2u);
  const auto& m0 = lp.select_maps[static_cast<size_t>(lp.gathers[0].first)].reg[0];
  const auto& m1 = lp.select_maps[static_cast<size_t>(lp.gathers[1].first)].reg[0];
  EXPECT_NE(m0[0], m1[0]);  // r0 before and after its rewrite
  EXPECT_EQ(m0[1], m1[1]);  // r1 unchanged
  engine::LaneWorkspace ws;
  const auto in = run_hand_rom(sm, 3, 4, rom, ws);
  for (int l = 0; l < 4; ++l) {
    const std::vector<Fp2>& x = in[static_cast<size_t>(l)];
    const Fp2 picked = l % 2 == 1 ? x[1] : x[0];
    const Fp2 picked_again = l % 2 == 1 ? x[1] : x[0] + x[2];
    EXPECT_TRUE(engine::lane_output(rom, ws, "first", l) == picked + x[2]);
    EXPECT_TRUE(engine::lane_output(rom, ws, "second", l) == picked_again - x[2]);
  }
}

TEST(LaneExecutorTest, GatherTimesACandidateIsAProductNotASquare) {
  // sel * r0 with sel picking r0 or r1 per lane: lanes picking r0 square
  // it, the others multiply two values, so the op stays a kMul. A mul of
  // one register by itself is a kSqr.
  sched::CompiledSm sm;
  sm.rf_slots = 4;
  sm.preload = {{0, 0}, {1, 1}};
  sm.select_maps.push_back({trace::SelKind::kCorrection, {{0, 1}}});
  sm.outputs = {{"prod", 2}, {"sq", 3}};
  sm.rom.resize(5);
  sm.rom[0].mul.push_back(unit(trace::OpKind::kMul, select(0), reg(0)));
  sm.rom[1].mul.push_back(unit(trace::OpKind::kMul, reg(1), reg(1)));
  sm.rom[3].writebacks.push_back({2, true, 0});
  sm.rom[4].writebacks.push_back({3, true, 0});
  const engine::DecodedRom rom = engine::decode(sm);
  ASSERT_EQ(rom.lanes.ops.size(), 2u);
  EXPECT_EQ(rom.lanes.ops[0].kind, lk::SlotOp::kMul);
  EXPECT_EQ(rom.lanes.ops[1].kind, lk::SlotOp::kSqr);
  engine::LaneWorkspace ws;
  const auto in = run_hand_rom(sm, 2, 4, rom, ws);
  for (int l = 0; l < 4; ++l) {
    const std::vector<Fp2>& x = in[static_cast<size_t>(l)];
    EXPECT_TRUE(engine::lane_output(rom, ws, "prod", l) == (l % 2 == 1 ? x[1] : x[0]) * x[0]);
    EXPECT_TRUE(engine::lane_output(rom, ws, "sq", l) == x[1] * x[1]);
  }
}

TEST(LaneExecutorTest, ReadsOfUnwrittenRegistersFailToLower) {
  // A register, bus or select candidate that nothing wrote is an error at
  // decode time, never a read of whatever a slot holds.
  auto base = [] {
    sched::CompiledSm sm;
    sm.rf_slots = 3;
    sm.preload = {{0, 0}};
    sm.outputs = {{"out", 0}};
    sm.select_maps.push_back({trace::SelKind::kCorrection, {{0, 2}}});
    sm.rom.resize(3);
    return sm;
  };
  sched::CompiledSm reg_read = base();
  reg_read.rom[0].addsub.push_back(unit(trace::OpKind::kAdd, reg(0), reg(1)));
  EXPECT_THROW(engine::decode(reg_read), std::logic_error);
  sched::CompiledSm bus_read = base();
  bus_read.rom[0].addsub.push_back(
      unit(trace::OpKind::kAdd, reg(0), bus(sched::SrcSel::Kind::kMulBus)));
  EXPECT_THROW(engine::decode(bus_read), std::logic_error);
  sched::CompiledSm select_read = base();
  select_read.rom[0].addsub.push_back(unit(trace::OpKind::kAdd, select(0), reg(0)));
  EXPECT_THROW(engine::decode(select_read), std::logic_error);
  sched::CompiledSm output = base();
  output.outputs = {{"out", 1}};
  EXPECT_THROW(engine::decode(output), std::logic_error);
  sched::CompiledSm empty_writeback = base();
  empty_writeback.rom[1].writebacks.push_back({1, true, 0});
  EXPECT_THROW(engine::decode(empty_writeback), std::logic_error);
}

// --- the lowering on the compiled programs -----------------------------------

TEST(LaneLoweringTest, InvariantsOnTheFunctionalAndPaperCostRoms) {
  // One op per mul and add/sub issue; no op reads a slot before a preload
  // or an earlier op wrote it (gathers: every candidate slot of the row's
  // map); no destination is a slot its own op reads; squares never gather;
  // and the lowering needs no more slots than the register-per-slot one
  // did (59 on both programs).
  for (auto endo : {trace::EndoVariant::kFunctional, trace::EndoVariant::kPaperCost}) {
    SCOPED_TRACE("endo=" + std::to_string(static_cast<int>(endo)));
    engine::CompileKey key = functional_key();
    key.trace.endo = endo;
    const engine::DecodedRom rom =
        engine::decode(engine::CompileCache::process_cache().get_or_compile(key)->sm);
    const engine::LaneProgram& lp = rom.lanes;
    EXPECT_EQ(lp.ops.size(), static_cast<size_t>(rom.stats.mul_issues + rom.stats.addsub_issues));
    EXPECT_LE(lp.slots, 59);
    std::vector<bool> written(static_cast<size_t>(lp.slots));
    for (uint16_t s : lp.inputs) written[s] = true;
    size_t squares = 0;
    for (size_t i = 0; i < lp.ops.size(); ++i) {
      const lk::SlotOp& op = lp.ops[i];
      std::vector<uint16_t> reads;
      auto operand = [&](uint16_t src, bool gathered) {
        if (!gathered) return reads.push_back(src);
        const auto [map, iter] = lp.gathers[src];
        for (const std::vector<int>& variant : lp.select_maps[static_cast<size_t>(map)].reg)
          for (int s : variant) reads.push_back(static_cast<uint16_t>(s));
      };
      operand(op.a, op.gather & lk::SlotOp::kGatherA);
      if (op.kind != lk::SlotOp::kConj && op.kind != lk::SlotOp::kSqr)
        operand(op.b, op.gather & lk::SlotOp::kGatherB);
      for (uint16_t s : reads) {
        ASSERT_LT(s, lp.slots) << "op " << i;
        ASSERT_TRUE(written[s]) << "op " << i << " reads unwritten slot " << s;
        ASSERT_NE(s, op.dst) << "op " << i << " writes over its own operand";
      }
      if (op.kind == lk::SlotOp::kSqr) {
        ++squares;
        EXPECT_EQ(op.gather, 0) << "op " << i;
      }
      written[op.dst] = true;
    }
    for (uint16_t s : lp.outputs) EXPECT_TRUE(written[s]);
    if (endo == trace::EndoVariant::kFunctional) {
      EXPECT_EQ(lp.ops.size(), 4563u);
      EXPECT_EQ(squares, 1150u);
    }
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

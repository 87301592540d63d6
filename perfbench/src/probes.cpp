#include "probes.hpp"

#include "asic/simulator.hpp"
#include "curve/fixed_base.hpp"
#include "curve/multiscalar.hpp"
#include "curve/params.hpp"
#include "curve/scalarmul.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/cache.hpp"
#include "engine/decoded.hpp"
#include "engine/lanes.hpp"
#include "field/fp_lanes.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fourq;

namespace {

// Counting field type: every operation the formula templates perform on it
// is tallied, nothing is computed.
OpTally g_tally;

struct CountFp2 {
  friend CountFp2 operator*(CountFp2, CountFp2) { return ++g_tally.mul, CountFp2{}; }
  friend CountFp2 operator+(CountFp2, CountFp2) { return ++g_tally.add, CountFp2{}; }
  friend CountFp2 operator-(CountFp2, CountFp2) { return ++g_tally.add, CountFp2{}; }
};
// Found by argument-dependent lookup from the templates' sqr() hook.
[[maybe_unused]] CountFp2 sqr(CountFp2) { return ++g_tally.sqr, CountFp2{}; }

template <class Fn>
OpTally tally(Fn&& fn) {
  g_tally = {};
  fn();
  return g_tally;
}

double price(const OpTally& t, const Metrics& m) {
  return t.mul * m.find("field.fp2_mul_ns")->value + t.sqr * m.find("field.fp2_sqr_ns")->value +
         t.add * m.find("field.fp2_add_ns")->value;
}

void ledger(Metrics& m, const std::string& name, double measured, double floor,
            const std::string& unit) {
  m.set(name, measured, unit);
  m.set(name + ".floor", floor, unit);
  m.set(name + ".efficiency", floor / measured, "ratio");
}

field::Fp random_fp(Rng& rng) {
  field::Fp v = field::Fp::from_words(rng.next_u64(), rng.next_u64());
  return v.is_zero() ? field::Fp::from_u64(1) : v;
}

field::Fp2 random_fp2(Rng& rng) { return field::Fp2(random_fp(rng), random_fp(rng)); }

// ns per call of fn(i), over i in [0, n) (independent operands, so this is
// throughput, the cost a formula pays when its operations overlap).
template <class Fn>
double per_elem_ns(size_t n, Fn&& fn) {
  return ns_per_op([&] { for (size_t i = 0; i < n; ++i) keep(fn(i)); }, static_cast<double>(n));
}

// --- field: scalar F_p / F_{p^2} operations over 256 operands.
void probe_field(Rng& rng, Metrics& m) {
  constexpr size_t kN = 256, kInv = 16;
  std::vector<field::Fp> a(kN), b(kN);
  std::vector<field::Fp2> x(kN), y(kN);
  for (size_t i = 0; i < kN; ++i) {
    a[i] = random_fp(rng), b[i] = random_fp(rng);
    x[i] = random_fp2(rng), y[i] = random_fp2(rng);
  }
  m.set("field.fp_mul_ns", per_elem_ns(kN, [&](size_t i) { return a[i] * b[i]; }), "ns");
  m.set("field.fp_sqr_ns", per_elem_ns(kN, [&](size_t i) { return a[i].sqr(); }), "ns");
  m.set("field.fp_inv_ns", per_elem_ns(kInv, [&](size_t i) { return a[i].inv(); }), "ns");
  m.set("field.fp2_mul_ns", per_elem_ns(kN, [&](size_t i) { return x[i] * y[i]; }), "ns");
  m.set("field.fp2_sqr_ns", per_elem_ns(kN, [&](size_t i) { return x[i].sqr(); }), "ns");
  m.set("field.fp2_add_ns", per_elem_ns(kN, [&](size_t i) { return x[i] + y[i]; }), "ns");
  m.set("field.fp2_inv_ns", per_elem_ns(kInv, [&](size_t i) { return x[i].inv(); }), "ns");
}

// --- field::lanes: the dispatched kernels at the engine's wave width, and
// batch inversion at the MSM chunk size.
void probe_lanes(Rng& rng, Metrics& m) {
  constexpr size_t kN = 256, kWave = engine::kMaxLanes, kChunk = 16384;
  const field::lanes::Kernels& k = field::lanes::active();
  std::vector<u128> are(kN), aim(kN), bre(kN), bim(kN), rre(kN), rim(kN);
  for (size_t i = 0; i < kN; ++i)
    are[i] = random_fp(rng).raw(), aim[i] = random_fp(rng).raw(), bre[i] = random_fp(rng).raw(),
    bim[i] = random_fp(rng).raw();
  auto waves = [&](auto kernel) {
    return ns_per_op(
        [&] {
          for (size_t g = 0; g < kN; g += kWave)
            kernel(&are[g], &aim[g], &bre[g], &bim[g], &rre[g], &rim[g], kWave);
          keep(rre[0]);
        },
        static_cast<double>(kN));
  };
  m.set("field.lanes.fp2_mul_ns_per_lane", waves(k.fp2_mul), "ns");
  m.set("field.lanes.fp2_add_ns_per_lane", waves(k.fp2_add), "ns");
  std::vector<field::Fp2> xs(kChunk);
  for (field::Fp2& v : xs) v = random_fp2(rng);
  // Inverting in place twice restores the input, so every pass sees
  // non-zero operands.
  m.set("field.batch_invert_ns_per_elem",
        ns_per_op([&] { field::batch_invert(xs.data(), xs.size()); keep(xs[0]); },
                  static_cast<double>(kChunk), 11),
        "ns");
}

// --- curve: point formulas and scalar multiplication, with ledger floors.
void probe_curve(Rng& rng, Metrics& m) {
  constexpr size_t kN = 64, kSm = 16;
  std::vector<curve::Affine> aff(kN);
  for (curve::Affine& v : aff) v = curve::deterministic_point(rng.next_u64());
  std::vector<curve::PointR1> p(kN), q1(kN);
  std::vector<curve::PointR2> q(kN);
  for (size_t i = 0; i < kN; ++i) {
    p[i] = curve::dbl(curve::to_r1(aff[i]));  // Z != 1, as mid-computation
    q1[i] = curve::dbl(curve::dbl(curve::to_r1(aff[(i + 1) % kN])));
    q[i] = curve::to_r2(q1[i]);
  }
  const std::vector<curve::PointR2Aff> qa = curve::batch_to_r2aff(q1);
  std::vector<U256> ks(kSm);
  for (U256& k : ks) k = rng.next_u256();

  const double dbl_ns = per_elem_ns(kN, [&](size_t i) { return curve::dbl(p[i]); });
  const double add_ns = per_elem_ns(kN, [&](size_t i) { return curve::add(p[i], q[i]); });
  const double mixed_ns = per_elem_ns(kN, [&](size_t i) { return curve::add_mixed(p[i], qa[i]); });
  ledger(m, "curve.dbl_ns", dbl_ns, price(dbl_tally(), m), "ns");
  ledger(m, "curve.add_ns", add_ns, price(add_tally(), m), "ns");
  ledger(m, "curve.add_mixed_ns", mixed_ns, price(add_mixed_tally(), m), "ns");

  const curve::MulOpCounts sm = curve::scalar_mul_op_counts();
  ledger(m, "curve.scalar_mul_us",
         per_elem_ns(kSm, [&](size_t i) { return curve::scalar_mul(ks[i], aff[i]); }) / 1e3,
         (sm.doublings * dbl_ns + sm.additions * add_ns) / 1e3, "us");
  const curve::FixedBaseMul fb(aff[0]);
  const curve::MulOpCounts fbc = curve::FixedBaseMul::per_scalar_op_counts();
  ledger(m, "curve.fixed_base_mul_us",
         per_elem_ns(kSm, [&](size_t i) { return fb.mul(ks[i]); }) / 1e3,
         (fbc.doublings * dbl_ns + fbc.additions * mixed_ns) / 1e3, "us");
}

// --- curve MSM at the size one its-verify chunk builds (32 signatures:
// 32 half-length weight terms on R_i and 32 full terms on Q_i), and dsa.
void probe_dsa(Rng& rng, Metrics& m, std::vector<std::string>& problems) {
  constexpr size_t kN = 32;
  const dsa::SchnorrQ scheme;
  std::vector<dsa::SchnorrQ::BatchItem> items;
  std::vector<dsa::SchnorrQ::EncodedSignature> wire;
  std::vector<curve::ScalarPoint> terms;
  for (size_t i = 0; i < kN; ++i) {
    const dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg(96, '\0');
    for (char& c : msg) c = static_cast<char>(rng.next_u64() & 0xff);
    const dsa::SchnorrQ::Signature sig = scheme.sign(kp, msg);
    items.push_back({kp.pub, msg, sig});
    wire.push_back(scheme.encode_signature(sig));
    terms.push_back({U256(rng.next_u64(), rng.next_u64(), 0, 0), sig.r, 128});
    terms.push_back({rng.next_u256(), kp.pub, 256});
  }
  m.set("curve.msm.chunk_us_per_term",
        ns_per_op([&] { keep(curve::multi_scalar_mul(terms)); },
                  static_cast<double>(terms.size())) / 1e3,
        "us");

  m.set("dsa.decode_signature_us",
        per_elem_ns(kN, [&](size_t i) { return scheme.decode_signature(wire[i]); }) / 1e3, "us");
  m.set("dsa.challenge_us", per_elem_ns(kN, [&](size_t i) {
          return scheme.challenge(items[i].sig.r, items[i].pub, items[i].msg);
        }) / 1e3, "us");
  bool single_ok = true, batch_ok = true;
  m.set("dsa.verify_us", per_elem_ns(8, [&](size_t i) {
          return single_ok &= scheme.verify(items[i].pub, items[i].msg, items[i].sig);
        }) / 1e3, "us");
  Rng weights(rng.next_u64());
  m.set("dsa.verify_batch_us_per_sig",
        ns_per_op([&] { batch_ok &= scheme.verify_batch(items, weights); }, kN) / 1e3, "us");
  if (!single_ok || !batch_ok) problems.push_back("dsa probe: an honest signature was rejected");
}

// --- compile flow, engine executors and the asic reference simulator, on
// the functional single-SM program the engine-farm runs.
void probe_engine(Rng& rng, Metrics& m, std::vector<std::string>& problems) {
  const engine::CompileKey key;  // the program BatchEngine::run compiles
  std::vector<double> build_ms, compile_ms, decode_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = now_ns();
    const trace::SmTrace tr = trace::build_sm_trace(key.trace);
    const int64_t t1 = now_ns();
    const sched::CompileResult cr = sched::compile_program(tr.program, key.compile);
    const int64_t t2 = now_ns();
    keep(engine::decode(cr.sm));
    const int64_t t3 = now_ns();
    build_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    compile_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    decode_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
  }
  m.set("trace.build_ms", median(build_ms), "ms");
  m.set("sched.compile_ms", median(compile_ms), "ms");
  m.set("engine.decode_ms", median(decode_ms), "ms");

  engine::CompileCache cache;
  const std::shared_ptr<const engine::CompiledProgram> prog = cache.get_or_compile(key);
  const engine::DecodedRom rom = engine::decode(prog->sm);
  constexpr int W = engine::kMaxLanes;
  std::vector<curve::Decomposition> decs(W);
  std::vector<curve::RecodedScalar> recs(W);
  std::vector<trace::InputBindings> binds(W);
  std::vector<trace::EvalContext> ctxs(W);
  std::vector<curve::Affine> expect(W);
  for (size_t l = 0; l < W; ++l) {
    const U256 k = rng.next_u256();
    const curve::Affine base = curve::deterministic_point(rng.next_u64());
    stage_job(*prog, k, base, decs[l], recs[l], binds[l], ctxs[l]);
    expect[l] = curve::to_affine(curve::scalar_mul(k, base));
  }

  engine::LaneWorkspace lws;
  const double wave_us =
      ns_per_op([&] { engine::run_lanes(rom, binds.data(), ctxs.data(), W, lws); }, 1, 11) / 1e3;
  for (int l = 0; l < W; ++l)
    if (!same({engine::lane_output(rom, lws, "x", l), engine::lane_output(rom, lws, "y", l)},
              expect[static_cast<size_t>(l)]))
      problems.push_back("engine probe: run_lanes lane " + std::to_string(l) +
                         " differs from [k]P");
  engine::SimWorkspace ws;
  const double job_us = ns_per_op([&] { engine::run(rom, binds[0], ctxs[0], ws); }, 1, 11) / 1e3;
  if (!same({engine::output_value(rom, ws, "x"), engine::output_value(rom, ws, "y")}, expect[0]))
    problems.push_back("engine probe: decoded::run differs from [k]P");

  const asic::SimStats& st = rom.stats;
  const double wave_floor = W *
                            (st.mul_issues * m.find("field.lanes.fp2_mul_ns_per_lane")->value +
                             st.addsub_issues * m.find("field.lanes.fp2_add_ns_per_lane")->value) /
                            1e3;
  ledger(m, "engine.lanes.wave_us", wave_us, wave_floor, "us");
  m.set("engine.decoded.job_us", job_us, "us");
  m.set("engine.ns_per_sim_cycle.laned", wave_us * 1e3 / (W * st.cycles), "ns");
  m.set("engine.ns_per_sim_cycle.scalar", job_us * 1e3 / st.cycles, "ns");

  // asic: the reference simulator's statistics for one SM; they must equal
  // the decoded ROM's static statistics and its outputs must equal [k]P.
  const asic::SimResult sim = asic::simulate(prog->sm, binds[0], ctxs[0]);
  if (!(sim.stats == st)) problems.push_back("asic probe: simulate() stats differ from DecodedRom");
  if (!same({sim.outputs.at("x"), sim.outputs.at("y")}, expect[0]))
    problems.push_back("asic probe: simulate() differs from [k]P");
  m.set("sim_cycles_per_sm", sim.stats.cycles, "cycles");
  m.set("asic.mul_issues", sim.stats.mul_issues, "count");
  m.set("asic.addsub_issues", sim.stats.addsub_issues, "count");
  m.set("asic.stall_cycles", sim.stats.stall_cycles, "cycles");
  m.set("asic.forwarded_operands", sim.stats.forwarded_operands, "count");
  m.set("asic.mul_utilisation", sim.stats.mul_utilisation(), "ratio");
}

}  // namespace

OpTally dbl_tally() {
  return tally([] { curve::dbl(curve::R1T<CountFp2>{}); });
}
OpTally add_tally() {
  return tally([] { curve::add(curve::R1T<CountFp2>{}, curve::R2T<CountFp2>{}); });
}
OpTally add_mixed_tally() {
  return tally([] { curve::add_mixed(curve::R1T<CountFp2>{}, curve::R2AffT<CountFp2>{}); });
}

void run_probes(uint64_t seed, Metrics& m, std::vector<std::string>& problems) {
  Rng rng(seed ^ 0x9b0be5ull);
  probe_field(rng, m);
  probe_lanes(rng, m);
  probe_curve(rng, m);
  probe_dsa(rng, m, problems);
  probe_engine(rng, m, problems);
}

}  // namespace perfbench

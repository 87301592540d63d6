// Hardware-offloaded signature verification: the host keeps the protocol
// logic (hashing, challenge derivation, the final point arithmetic and the
// cofactored check) and dispatches both scalar multiplications of the
// Schnorr verification equation [392]([s]G - R - [e]Q) == O to the modelled
// cryptoprocessor — the deployment the paper's chip targets (§I: a
// message-verification accelerator for roadside units). Exits 1 on a wrong
// verdict.
#include <cstdio>

#include "asic/simulator.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "dsa/schnorrq.hpp"
#include "power/sotb65.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace {

using namespace fourq;

// An "accelerator handle": the compiled functional SM program plus the
// silicon model. One [k]P per call, any base point.
class Accelerator {
 public:
  Accelerator()
      : sm_(trace::build_sm_trace({})),
        compiled_(sched::compile_program(sm_.program, {})),
        chip_(compiled_.sm.cycles()) {}

  curve::Affine scalar_mul(const U256& k, const curve::Affine& p, int* cycles) {
    trace::InputBindings b;
    b.emplace_back(sm_.in_zero, curve::Fp2());
    b.emplace_back(sm_.in_one, curve::Fp2::from_u64(1));
    b.emplace_back(sm_.in_two_d, curve::curve_2d());
    b.emplace_back(sm_.in_px, p.x);
    b.emplace_back(sm_.in_py, p.y);
    curve::Decomposition dec = curve::decompose(k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    asic::SimResult res =
        asic::simulate(compiled_.sm, b, trace::EvalContext{&rec, dec.k_was_even});
    if (cycles != nullptr) *cycles = res.stats.cycles;
    return curve::Affine{res.outputs.at("x"), res.outputs.at("y")};
  }

  double latency_us(double vdd) const { return chip_.latency_us(vdd); }
  double energy_uj(double vdd) const { return chip_.energy_uj(vdd); }

 private:
  trace::SmTrace sm_;
  sched::CompileResult compiled_;
  power::Sotb65Model chip_;
};

// The host side of SchnorrQ's predicate, given the chip's [s]G and [e]Q:
// [392]([s]G - (R + [e]Q)) == O.
bool cofactored_ok(const curve::Affine& sg, const curve::Affine& r, const curve::Affine& eq) {
  curve::PointR1 rhs = curve::add(curve::to_r1(r), curve::to_r2(curve::to_r1(eq)));
  curve::PointR1 d = curve::add(curve::to_r1(sg), curve::neg_r2(curve::to_r2(rhs)));
  return curve::is_identity(curve::mul_small(curve::kCofactor, d));
}

}  // namespace

int main() {
  std::printf("Hardware-offloaded Schnorr verification\n");
  std::printf("=======================================\n\n");

  dsa::SchnorrQ scheme;
  Rng rng(77);
  auto kp = scheme.keygen(rng);
  const std::string msg = "CAM{vehicle=42,seq=7,pos=(35.71,139.76)}";
  auto sig = scheme.sign(kp, msg);
  std::printf("message   : \"%s\"\n", msg.c_str());
  std::printf("software  : %s\n\n",
              scheme.verify(kp.pub, msg, sig) ? "signature valid" : "INVALID (bug!)");

  Accelerator chip;
  // Host side: recompute the challenge, then offload the two SMs.
  U256 e = scheme.challenge(sig.r, kp.pub, msg);
  int cycles_sg = 0, cycles_eq = 0;
  curve::Affine sG = chip.scalar_mul(sig.s, scheme.generator(), &cycles_sg);
  curve::Affine eQ = chip.scalar_mul(e, kp.pub, &cycles_eq);
  // Host side: the cofactored check.
  bool ok = cofactored_ok(sG, sig.r, eQ);

  std::printf("offloaded : [s]G on chip (%d cycles), [e]Q on chip (%d cycles)\n", cycles_sg,
              cycles_eq);
  std::printf("hardware  : %s\n\n", ok ? "signature valid" : "INVALID (bug!)");

  for (double v : {1.20, 0.32}) {
    double t = 2 * chip.latency_us(v);
    double en = 2 * chip.energy_uj(v);
    std::printf("projected @ %.2f V: %.1f us and %.2f uJ per verification (%.0f verifies/s)\n",
                v, t, en, 1e6 / t);
  }

  // Better: a verification is EXACTLY two scalar multiplications, so the
  // dual-stream program computes [s]G and [e]Q together on one datapath,
  // letting the scheduler fill each stream's multiplier stalls with the
  // other stream's work.
  {
    trace::DualSmTrace dual = trace::build_dual_sm_trace({});
    sched::CompileOptions copt;
    copt.cfg.rf_size = 128;
    sched::CompileResult rc = sched::compile_program(dual.program, copt);

    trace::InputBindings b;
    b.emplace_back(dual.in_zero, curve::Fp2());
    b.emplace_back(dual.in_one, curve::Fp2::from_u64(1));
    b.emplace_back(dual.in_two_d, curve::curve_2d());
    b.emplace_back(dual.in_px[0], scheme.generator().x);
    b.emplace_back(dual.in_py[0], scheme.generator().y);
    b.emplace_back(dual.in_px[1], kp.pub.x);
    b.emplace_back(dual.in_py[1], kp.pub.y);

    curve::Decomposition ds = curve::decompose(sig.s);
    curve::Decomposition de = curve::decompose(e);
    curve::RecodedScalar rs = curve::recode(ds.a);
    curve::RecodedScalar re = curve::recode(de.a);
    trace::EvalContext ctx;
    ctx.recoded = &rs;
    ctx.k_was_even = ds.k_was_even;
    ctx.recoded2 = &re;
    ctx.k2_was_even = de.k_was_even;

    asic::SimResult res = asic::simulate(rc.sm, b, ctx);
    curve::Affine sg{res.outputs.at("x0"), res.outputs.at("y0")};
    curve::Affine eq{res.outputs.at("x1"), res.outputs.at("y1")};
    bool dual_ok = cofactored_ok(sg, sig.r, eq);
    int seq_cycles = 2 * cycles_sg;
    std::printf("\ndual-stream: both SMs co-scheduled in %d cycles (vs %d sequential, %.0f%%\n"
                "             faster per verification): %s\n",
                res.stats.cycles, seq_cycles,
                100.0 * (seq_cycles - res.stats.cycles) / seq_cycles,
                dual_ok ? "signature valid" : "INVALID (bug!)");
    ok = ok && dual_ok;
  }

  // Negative check: a tampered message must fail on the hardware path too.
  U256 e_bad = scheme.challenge(sig.r, kp.pub, msg + "!");
  curve::Affine eQ_bad = chip.scalar_mul(e_bad, kp.pub, nullptr);
  bool bad_ok = cofactored_ok(sG, sig.r, eQ_bad);
  std::printf("\ntampered  : %s\n", bad_ok ? "ACCEPTED (bug!)" : "rejected");
  return (ok && !bad_ok) ? 0 : 1;
}

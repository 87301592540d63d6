// The three benchmark workloads. Each is a closed loop with one caller (and,
// where an engine runs, one BatchEngine worker): the next call is issued
// only after the previous one returns, so the figures measure capacity,
// not queueing.
//
// Every input is generated here from the workload seed; the library sees
// only the generated values, through its public entry points. Each
// workload replays a fixed cycle of distinct calls. Reference outputs for
// the whole cycle are computed at generation time, and every call's
// outputs are compared with them after the call's clock has stopped.
// `attempted`/`failed` count the cycle's distinct ops, so failure counts
// repeat exactly from run to run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "curve/encoding.hpp"
#include "curve/multiscalar.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/batch.hpp"
#include "util.hpp"

namespace perfbench {

struct CallResult {
  size_t ops = 0;
  int64_t ns = 0;  // host time of the call into the library
  // Host slowdowns sampled inside a long call (calibration.hpp), whose
  // sampling time is excluded from ns.
  double slowdown_sum = 0;
  int slowdown_samples = 0;
};

// Failure bookkeeping over the distinct ops of one cycle.
struct FailureLog {
  std::vector<uint8_t> failed;  // per distinct op of the cycle
  size_t known = 0;             // failures of the documented known defect
  bool unexpected = false;      // any other wrong output: correct = false
  std::vector<std::string> notes;

  void reset(size_t ops) { failed.assign(ops, 0); known = 0; unexpected = false; notes.clear(); }
  size_t count() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Elasticity of this workload's calls to the host's speed
  // (calibration.hpp).
  virtual double elasticity() const { return kComputeElasticity; }
  // Builds every input and reference output from `seed`. `mini` builds the
  // short cycle replayed inside another workload's traced run.
  virtual void generate(uint64_t seed, bool mini) = 0;
  // Stable digest of the generated inputs (same seed, same digest).
  virtual uint64_t input_digest() const = 0;
  // Drops the state a set-up built (untimed), then one set-up: everything
  // a user does between workload start and the first call.
  virtual void teardown() = 0;
  virtual void setup() = 0;
  // Distinct calls in the cycle and distinct ops across them.
  virtual size_t cycle() const = 0;
  virtual size_t cycle_ops() const = 0;
  // Runs call i % cycle() and checks its outputs after the clock stops.
  virtual CallResult call(size_t i, Tracer* tr) = 0;
  // Per-layer metrics of this workload's layers, from the traced calls.
  // `m` already holds the probe metrics, which some of these are priced at.
  virtual void layer_metrics(const Tracer& tr, Metrics& m) = 0;
  // Human-readable facts of the run (one line each).
  virtual std::vector<std::string> report() const = 0;

  const FailureLog& failures() const { return fail_; }

 protected:
  FailureLog fail_;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

// Bitwise equality of affine points (canonical coordinates).
inline bool same(const fourq::curve::Affine& a, const fourq::curve::Affine& b) {
  return a.x == b.x && a.y == b.y;
}

// --- Generators shared with the self-tests -------------------------------

// An order-2 point T = [196]([N]P) != O for the first deterministic point P
// at or after `seed` whose multiple is not the identity.
fourq::curve::Affine torsion_point(uint64_t seed);

// msm-stream reference: sum_i [k_i](P + [j_i]S) = [sum k_i]P +
// [sum k_i j_i]S, with both sums reduced mod #E = 392 N. Never runs an MSM.
struct MsmRefAccumulator {
  std::array<uint64_t, 8> sum_k{}, sum_kj{};  // 512-bit little-endian sums
  void add(const fourq::U256& k, uint64_t j);
  fourq::curve::Affine result(const fourq::curve::Affine& p,
                              const fourq::curve::Affine& s) const;
};

// Pool point j of msm-stream: P + [j]S, for j in [0, n).
std::vector<fourq::curve::Affine> msm_pool(const fourq::curve::Affine& p,
                                           const fourq::curve::Affine& s, size_t n);

// The staging BatchEngine does per job, through public functions only:
// scalar decomposition and recoding, then the input bindings and select
// context for one [k]P on a compiled single-SM program. ctx points at rec.
void stage_job(const fourq::engine::CompiledProgram& prog, const fourq::U256& k,
               const fourq::curve::Affine& base, fourq::curve::Decomposition& dec,
               fourq::curve::RecodedScalar& rec, fourq::trace::InputBindings& bindings,
               fourq::trace::EvalContext& ctx);

// Registry reads. Under FOURQ_OBS=OFF nothing increments the registry, so
// callers print metrics built on these as unavailable.
uint64_t registry_counter(const std::string& name);

}  // namespace perfbench

// Batch execution engine: a fixed worker pool draining a bounded MPMC job
// queue, amortising one compiled+decoded program across every simulation it
// runs — the software double of the paper's deployment model, where one
// offline scheduling flow serves every scalar multiplication the chip ever
// performs (docs/ENGINE.md).
//
// Two workloads share the pool:
//  * run()    — hardware-model scalar multiplications: each SmJob is one
//               [k]P executed on the pre-decoded ROM by the lane-parallel
//               SoA executor (engine/lanes.hpp), kMaxLanes jobs per wave,
//               with per-worker reusable workspaces; the steady-state path
//               allocates nothing per job.
//  * verify() — SchnorrQ per-item verification: each chunk is one
//               SchnorrQ::verify_each call (one residual MSM; two more name
//               a lone bad item, else it bisects), so every verdict equals
//               SchnorrQ::verify() on that item.
//
// Threading model: N persistent workers created in the constructor, joined
// in the destructor. run()/verify() enqueue index-range tasks over caller
// arrays (no per-task ownership transfer), block until a remaining-counter
// hits zero, and may be called repeatedly; concurrent calls from several
// threads are safe (the queue is MPMC) but batches then interleave on the
// pool. An exception thrown by any task (a FOURQ_CHECK
// firing on a worker, say) is caught there; the first one is rethrown to
// the caller once every task of the batch has finished.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "curve/multiscalar.hpp"
#include "curve/point.hpp"
#include "curve/scalar.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/cache.hpp"
#include "engine/decoded.hpp"
#include "engine/lanes.hpp"

namespace fourq::engine {

struct SmJob {
  U256 k;
  curve::Affine base;
};

struct SmResult {
  curve::Affine out;      // affine [k]P from the simulated datapath
  asic::SimStats stats;   // identical for every job of one program (static)
};

struct EngineOptions {
  int workers = 1;            // pool size (>= 1)
  size_t queue_capacity = 64; // bounded job-queue length (back-pressure)
  size_t chunk = 0;           // jobs per task; 0 = wave-aligned chunks sized
                              // so each worker receives ~2 tasks for run()
                              // (one queue op per wave, not per job),
                              // ceil(n / workers) for verify() (one
                              // residual MSM per worker: more terms to
                              // amortise over, more repeated keys merged)
  CompileKey key;             // program compiled/decoded for run()
  CompileCache* cache = nullptr;  // nullptr = CompileCache::process_cache()
  curve::MsmOptions msm;      // MSM backend policy for verify() (parallel
                              // hook is filled in by the engine itself)
};

class BatchEngine {
 public:
  explicit BatchEngine(const EngineOptions& opt = {});
  ~BatchEngine();
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // Simulates every job on the pool; results[i] corresponds to jobs[i].
  // First call compiles (or cache-hits) and decodes the program. Every job
  // runs in a run_lanes() wave; a task's last, partial wave runs with only
  // its live lanes. Throws std::invalid_argument, before any job runs, if a
  // base point is not on the curve.
  std::vector<SmResult> run(const std::vector<SmJob>& jobs);

  // Per-item verdicts: verdicts[i] = 1 iff SchnorrQ::verify() accepts
  // items[i], for any worker count and chunk size, up to the false-accept
  // bound of SchnorrQ::verify_each. The weights come from a 256-bit key
  // drawn from std::random_device on the first verify() (docs/ENGINE.md).
  std::vector<uint8_t> verify(const std::vector<dsa::SchnorrQ::BatchItem>& items);

  // Runs fn(i) for every i in [0, n) across the worker pool, returning when
  // all calls are done. Safe to call from worker threads (nested fan-out):
  // the calling thread claims work from the same atomic cursor as the
  // helpers, so progress never depends on an idle worker being available —
  // in the worst case the caller executes everything itself. If fn throws,
  // every other index still runs once, and the first exception is
  // rethrown after all of them finished. This is the engine's
  // curve::MsmParallelFor implementation (see msm_parallel()).
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

  // The pool as an MSM parallel hook, e.g. for one large verify_batch:
  //   scheme.verify_batch(items, rng, {.parallel = eng.msm_parallel()}).
  curve::MsmParallelFor msm_parallel();

  // The compiled program run() executes (compiling it on first use).
  const CompiledProgram& program();
  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  struct Task;
  struct BatchCtl;
  struct FanCtl;
  class Queue;

  // Worker-local arenas for the scalar-mul path: the SoA lane workspace
  // (sized on the first wave) and per-lane binding/context staging, both
  // reused — zero steady-state allocation.
  struct SmArena {
    LaneWorkspace lane_ws;
    std::array<trace::InputBindings, kMaxLanes> bindings;
    std::array<trace::EvalContext, kMaxLanes> ctxs;
    std::array<curve::RecodedScalar, kMaxLanes> recs;  // ctxs point here
    std::array<curve::Decomposition, kMaxLanes> decs;
  };

  void worker_main(int worker_id);
  void ensure_program();
  void exec_sm(const Task& t, SmArena& arena);
  void exec_verify(const Task& t);
  void dispatch(std::vector<Task>& tasks);

  EngineOptions opt_;
  std::unique_ptr<Queue> queue_;
  std::vector<std::thread> threads_;

  std::mutex program_mu_;
  std::shared_ptr<const CompiledProgram> program_;
  std::unique_ptr<DecodedRom> decoded_;

  std::mutex scheme_mu_;
  std::unique_ptr<dsa::SchnorrQ> scheme_;  // lazily built (verify() only)
  std::array<uint64_t, 4> verify_key_{};  // verify() weight key
  uint64_t verify_calls_ = 0;             // verify() calls so far
};

}  // namespace fourq::engine

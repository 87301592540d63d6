#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace fourq::engine {

// ---------------------------------------------------------------------------
// Pool plumbing.

// Completion state of one run()/verify() batch, owned by the caller's
// frame. done_one() works entirely under mu: the caller may return (and
// destroy this object) as soon as it reads remaining == 0, so no worker
// may touch it after unlocking.
struct BatchEngine::BatchCtl {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;      // tasks not yet finished (guarded by mu)
  std::exception_ptr error;  // first task exception (guarded by mu)

  void done_one(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e && !error) error = std::move(e);
    if (--remaining == 0) cv.notify_all();
  }
  // Blocks until every task has finished, then rethrows the first failure.
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
    if (error) std::rethrow_exception(error);
  }
};

// Shared state of one parallel_for fan-out. Heap-allocated and reference-
// counted from every queued help task: a help task that is drained after
// the fan-out already finished (all indices claimed by other participants)
// must still find valid memory, see next >= n, and fall through.
struct BatchEngine::FanCtl {
  std::function<void(size_t)> body;
  size_t n = 0;
  std::atomic<size_t> next{0};  // work-claim cursor, shared by all threads
  std::atomic<size_t> done{0};
  std::exception_ptr error;     // first body exception (guarded by mu)
  std::mutex mu;
  std::condition_variable cv;

  // Claim-and-run loop; every participant (helpers and the caller) runs it.
  // A throwing index still counts as done, so the caller's wait for all n
  // indices also covers helpers still running body on its captures.
  void drain() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

struct BatchEngine::Task {
  enum class Kind : uint8_t { kSm, kVerify, kHelp };
  Kind kind = Kind::kSm;
  size_t begin = 0, end = 0;  // index range into the batch arrays
  const SmJob* jobs = nullptr;
  SmResult* results = nullptr;
  const dsa::SchnorrQ::BatchItem* items = nullptr;
  uint8_t* verdicts = nullptr;
  BatchCtl* ctl = nullptr;              // batch completion (kSm / kVerify)
  std::shared_ptr<FanCtl> fan;          // fan-out state (kHelp)
  uint64_t enqueue_us = 0;              // lifecycle stamp (set by the queue)
};

namespace {

[[maybe_unused]] constexpr const char* kTaskKindLabel[3] = {"sm", "verify", "help"};
[[maybe_unused]] constexpr const char* kTaskFlightName[3] = {
    "engine.task.sm", "engine.task.verify", "engine.task.help"};

#if FOURQ_OBS_ENABLED
// Refreshes the derived attribution gauges for one task kind from the
// cumulative perf.* counters the workers maintain: cycles per completed job
// and achieved IPC. Cheap (a few registry lookups), called once per batch.
void update_perf_gauges(const char* kind, const char* jobs_counter) {
  if (!obs::perf_enabled()) return;
  obs::Registry& reg = obs::global().metrics;
  const obs::Labels kl{{"kind", kind}};
  const uint64_t cycles = reg.counter("perf.cycles", kl).value();
  const uint64_t instr = reg.counter("perf.instructions", kl).value();
  const uint64_t jobs = reg.counter(jobs_counter).value();
  if (jobs)
    reg.gauge("perf.cycles_per_job", kl)
        .set(static_cast<double>(cycles) / static_cast<double>(jobs));
  if (cycles)
    reg.gauge("perf.ipc", kl).set(static_cast<double>(instr) /
                                  static_cast<double>(cycles));
}
#endif

}  // namespace

// Bounded MPMC ring. push() applies back-pressure when the ring is full;
// pop() blocks until a task or close() arrives.
class BatchEngine::Queue {
 public:
  explicit Queue(size_t capacity) : buf_(std::max<size_t>(1, capacity)) {}

  void push(const Task& t) {
    std::unique_lock<std::mutex> lock(mu_);
#if FOURQ_OBS_ENABLED
    if (count_ >= buf_.size() && !closed_) {
      // The ring is full: the producer is about to stall on back-pressure.
      uint64_t t0 = obs::mono_us();
      not_full_.wait(lock, [&] { return count_ < buf_.size() || closed_; });
      obs_.bp_stalls.inc();
      obs_.bp_wait_us.inc(obs::mono_us() - t0);
    }
#endif
    not_full_.wait(lock, [&] { return count_ < buf_.size() || closed_; });
    FOURQ_CHECK_MSG(!closed_, "push on closed engine queue");
    store_locked(t);
    not_empty_.notify_one();
  }

  // Non-blocking push for fan-out help tasks: a full (or closed) queue just
  // means fewer helpers — the fan-out caller executes the work itself, so
  // dropping the task is always safe and never deadlocks.
  bool try_push(const Task& t) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || count_ >= buf_.size()) return false;
    store_locked(t);
    not_empty_.notify_one();
    return true;
  }

  bool pop(Task& t) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    if (count_ == 0) return false;  // closed and drained
    t = buf_[head_];
    head_ = (head_ + 1) % buf_.size();
    --count_;
#if FOURQ_OBS_ENABLED
    obs_.depth.set(static_cast<double>(count_));
#endif
    not_full_.notify_one();
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }

 private:
  void store_locked(const Task& t) {
    Task& slot = buf_[(head_ + count_) % buf_.size()];
    slot = t;
    ++count_;
    max_depth_ = std::max(max_depth_, count_);
#if FOURQ_OBS_ENABLED
    slot.enqueue_us = obs::mono_us();
    obs_.depth.set(static_cast<double>(count_));
#endif
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::vector<Task> buf_;
  size_t head_ = 0, count_ = 0, max_depth_ = 0;
  bool closed_ = false;
#if FOURQ_OBS_ENABLED
  // Handles resolved once per queue; the registry never invalidates them.
  struct Obs {
    obs::Gauge& depth = obs::global().metrics.gauge("engine.queue.depth");
    obs::Counter& bp_stalls =
        obs::global().metrics.counter("engine.queue.backpressure.stalls");
    obs::Counter& bp_wait_us =
        obs::global().metrics.counter("engine.queue.backpressure.wait_us");
  } obs_;
#endif
};

// ---------------------------------------------------------------------------
// Engine.

BatchEngine::BatchEngine(const EngineOptions& opt) : opt_(opt) {
  FOURQ_CHECK_MSG(opt_.workers >= 1, "engine needs at least one worker");
  queue_ = std::make_unique<Queue>(opt_.queue_capacity);
  threads_.reserve(static_cast<size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i)
    threads_.emplace_back([this, i] { worker_main(i); });
  FOURQ_GAUGE_SET("engine.workers", opt_.workers);
}

BatchEngine::~BatchEngine() {
  queue_->close();
  for (std::thread& t : threads_) t.join();
}

void BatchEngine::worker_main(int worker_id) {
  // Worker-local arena: workspaces and per-lane staging are sized on the
  // first wave and only overwritten afterwards — zero steady-state
  // allocation on the scalar-mul path.
  SmArena arena;
#if !FOURQ_OBS_ENABLED
  (void)worker_id;
#else
  // Handles resolved once per worker thread (dynamic labels can't use the
  // static-caching macros). Queue-wait and service-time series are labeled
  // by task kind, throughput/utilisation by worker.
  obs::Registry& reg = obs::global().metrics;
  const obs::Labels wl{{"worker", std::to_string(worker_id)}};
  obs::Counter& c_tasks = reg.counter("engine.worker.tasks", wl);
  obs::Counter& c_busy = reg.counter("engine.worker.busy_us", wl);
  obs::Gauge& g_util = reg.gauge("engine.worker.utilisation", wl);
  obs::Histogram* wait_h[3];
  obs::Histogram* svc_h[3];
  // Hardware-counter attribution (obs/perfctr): per-kind totals feed the
  // perf.cycles_per_job / perf.ipc gauges set after each batch, the
  // per-worker cycle counter shows pool imbalance.
  obs::Counter* perf_cycles[3];
  obs::Counter* perf_instr[3];
  obs::Counter* perf_cache_refs[3];
  obs::Counter* perf_cache_misses[3];
  obs::Counter* perf_branch_misses[3];
  obs::Counter* perf_task_clock[3];
  for (int k = 0; k < 3; ++k) {
    obs::Labels kl{{"kind", kTaskKindLabel[k]}};
    wait_h[k] = &reg.latency_histogram("engine.queue.wait_us", kl);
    svc_h[k] = &reg.latency_histogram("engine.job.service_us", kl);
    perf_cycles[k] = &reg.counter("perf.cycles", kl);
    perf_instr[k] = &reg.counter("perf.instructions", kl);
    perf_cache_refs[k] = &reg.counter("perf.cache_refs", kl);
    perf_cache_misses[k] = &reg.counter("perf.cache_misses", kl);
    perf_branch_misses[k] = &reg.counter("perf.branch_misses", kl);
    perf_task_clock[k] = &reg.counter("perf.task_clock_ns", kl);
  }
  obs::Counter& c_worker_cycles = reg.counter("perf.worker.cycles", wl);
  const uint64_t epoch_us = obs::mono_us();
  uint64_t total_busy_us = 0;
#endif
  Task t;
  while (queue_->pop(t)) {
#if FOURQ_OBS_ENABLED
    const uint64_t deq_us = obs::mono_us();
    const int kind_i = static_cast<int>(t.kind);
    wait_h[kind_i]->observe(static_cast<double>(deq_us - t.enqueue_us));
    obs::PerfSample perf_begin;
    if (obs::perf_enabled()) perf_begin = obs::perf_read_thread();
#endif
    // A throwing task still counts as done; its exception travels to the
    // batch's caller instead of terminating the process.
    std::exception_ptr error;
    try {
      switch (t.kind) {
        case Task::Kind::kSm:
          exec_sm(t, arena);
          break;
        case Task::Kind::kVerify: {
          // Re-seeded per task so verdicts don't depend on which worker or
          // in which order tasks are drained.
          Rng rng(opt_.verify_seed ^ (0x9e3779b97f4a7c15ull * (t.begin + 1)));
          exec_verify(t, rng);
          break;
        }
        case Task::Kind::kHelp:
          t.fan->drain();  // catches per index itself
          break;
      }
    } catch (...) {
      error = std::current_exception();
    }
#if FOURQ_OBS_ENABLED
    if (perf_begin.source != obs::PerfSource::kUnavailable) {
      obs::PerfDelta d = obs::perf_delta(perf_begin, obs::perf_read_thread());
      if (d.source != obs::PerfSource::kUnavailable) {
        perf_cycles[kind_i]->inc(d.cycles);
        perf_instr[kind_i]->inc(d.instructions);
        perf_cache_refs[kind_i]->inc(d.cache_refs);
        perf_cache_misses[kind_i]->inc(d.cache_misses);
        perf_branch_misses[kind_i]->inc(d.branch_misses);
        perf_task_clock[kind_i]->inc(d.task_clock_ns);
        c_worker_cycles.inc(d.cycles);
      }
    }
    const uint64_t done_us = obs::mono_us();
    const uint64_t service_us = done_us - deq_us;
    svc_h[kind_i]->observe(static_cast<double>(service_us));
    c_tasks.inc();
    c_busy.inc(service_us);
    total_busy_us += service_us;
    if (done_us > epoch_us)
      g_util.set(static_cast<double>(total_busy_us) /
                 static_cast<double>(done_us - epoch_us));
    obs::global().flight.record(obs::FlightKind::kTask, kTaskFlightName[kind_i], done_us,
                                service_us, worker_id);
#endif
    if (t.ctl) t.ctl->done_one(std::move(error));
    t.fan.reset();  // release fan-out state before blocking in pop()
  }
}

void BatchEngine::parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  auto fan = std::make_shared<FanCtl>();
  fan->body = fn;
  fan->n = n;
  // Recruit helpers without ever blocking: a full queue (or helpers that are
  // never scheduled because every worker is busy) only shifts work onto the
  // calling thread. A single index or a one-worker pool runs on the caller.
  const size_t helpers = threads_.size() <= 1 ? 0 : std::min(threads_.size(), n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Task t;
    t.kind = Task::Kind::kHelp;
    t.fan = fan;
    if (!queue_->try_push(t)) break;
  }
  fan->drain();  // the caller always participates
  std::unique_lock<std::mutex> lock(fan->mu);
  fan->cv.wait(lock, [&] { return fan->done.load(std::memory_order_acquire) == n; });
  if (fan->error) std::rethrow_exception(fan->error);
}

curve::MsmParallelFor BatchEngine::msm_parallel() {
  return [this](size_t n, const std::function<void(size_t)>& fn) { parallel_for(n, fn); };
}

void BatchEngine::ensure_program() {
  std::lock_guard<std::mutex> lock(program_mu_);
  if (decoded_) return;
  FOURQ_CHECK_MSG(opt_.key.trace.include_inversion,
                  "run() needs affine outputs (include_inversion)");
  CompileCache& cache = opt_.cache ? *opt_.cache : CompileCache::process_cache();
  program_ = cache.get_or_compile(opt_.key);
  decoded_ = std::make_unique<DecodedRom>(decode(program_->sm));
}

const CompiledProgram& BatchEngine::program() {
  ensure_program();
  return *program_;
}

namespace {

// Per-job preflight: scalar decomposition + recoding and the input
// bindings for one lane.
void stage_job(const CompiledProgram& p, const SmJob& job, curve::Decomposition& dec,
               curve::RecodedScalar& rec, trace::InputBindings& bindings,
               trace::EvalContext& ctx) {
  dec = curve::decompose(job.k);
  rec = curve::recode(dec.a);
  trace::bind_sm_inputs(p, job.base, bindings);  // no allocation after the first job
  ctx = trace::EvalContext{};
  ctx.recoded = &rec;
  ctx.k_was_even = dec.k_was_even;
}

}  // namespace

void BatchEngine::exec_sm(const Task& t, SmArena& ar) {
  const CompiledProgram& p = *program_;
  const DecodedRom& rom = *decoded_;
  constexpr size_t kW = static_cast<size_t>(kMaxLanes);
  // Every job runs in a kW-wide SoA wave: one run_slots call for all of
  // them. The task's last wave may hold fewer live jobs; it runs with that
  // many lanes, and the kernel table decides what its dead lanes compute.
  size_t waves = 0, ragged = 0;
  for (size_t i = t.begin; i < t.end; i += kW) {
    const size_t live = std::min(kW, t.end - i);
    for (size_t l = 0; l < live; ++l)
      stage_job(p, t.jobs[i + l], ar.decs[l], ar.recs[l], ar.bindings[l], ar.ctxs[l]);
    run_lanes(rom, ar.bindings.data(), ar.ctxs.data(), static_cast<int>(live), ar.lane_ws);
    for (size_t l = 0; l < live; ++l) {
      const int lane = static_cast<int>(l);
      t.results[i + l].out = curve::Affine{lane_output(rom, ar.lane_ws, "x", lane),
                                           lane_output(rom, ar.lane_ws, "y", lane)};
      t.results[i + l].stats = rom.stats;
    }
    ++waves;
    if (live < kW) ragged += live;
  }
  FOURQ_COUNTER_ADD("engine.lanes.waves", waves);
  FOURQ_COUNTER_ADD("engine.lanes.ragged_jobs", ragged);
  FOURQ_COUNTER_ADD("engine.jobs.sm", t.end - t.begin);
}

void BatchEngine::exec_verify(const Task& t, Rng& rng) {
  // The MSM inside each chunk fans back out over the same pool. Nested
  // fan-outs cannot deadlock: parallel_for's caller self-drains, so a fully
  // busy pool just degrades to the sequential path.
  curve::MsmOptions msm = opt_.msm;
  if (threads_.size() > 1 && !msm.parallel) msm.parallel = msm_parallel();
  const size_t n = t.end - t.begin;
  scheme_->verify_each({t.items + t.begin, n}, {t.verdicts + t.begin, n}, rng, msm);
  FOURQ_COUNTER_ADD("engine.jobs.verify", n);
}

void BatchEngine::dispatch(std::vector<Task>& tasks) {
  FOURQ_CHECK(!tasks.empty());
  BatchCtl* ctl = tasks.front().ctl;
  ctl->remaining = tasks.size();  // published to workers by the queue's mutex
  for (const Task& t : tasks) queue_->push(t);
  ctl->wait();  // rethrows the first task exception
}

std::vector<SmResult> BatchEngine::run(const std::vector<SmJob>& jobs) {
  FOURQ_SPAN("engine.run");
  // Inputs are checked here, before anything is queued: the datapath would
  // turn an off-curve base into a silent wrong point.
  for (size_t i = 0; i < jobs.size(); ++i)
    if (!curve::on_curve(jobs[i].base))
      throw std::invalid_argument("BatchEngine::run: job " + std::to_string(i) +
                                  " has a base point that is not on the curve");
  std::vector<SmResult> results(jobs.size());
  if (jobs.empty()) return results;  // no work: don't even compile
  ensure_program();

  // Chunked-wave submission: ~2 tasks per worker, each wave-aligned. The
  // previous n/(workers*8) sizing pushed 64 tiny tasks through the queue for
  // a 256-job batch — on few-core hosts the mutex/condvar traffic made 8
  // workers *slower* than 1 (BENCH_engine.json: queue-wait p50 36.7 ms vs
  // 1.7 ms service). One queue op now covers a whole run of waves, and
  // wave-alignment confines the partial wave to the final task.
  const size_t wv = static_cast<size_t>(kMaxLanes);
  size_t chunk = opt_.chunk;
  if (chunk == 0) {
    chunk = std::max<size_t>(
        1, (jobs.size() + threads_.size() * 2 - 1) / (threads_.size() * 2));
    if (chunk % wv != 0) chunk += wv - chunk % wv;
  }  // an explicit opt_.chunk is honored exactly, unaligned or not

  auto start = std::chrono::steady_clock::now();
  BatchCtl ctl;
  std::vector<Task> tasks;
  for (size_t b = 0; b < jobs.size(); b += chunk) {
    Task t;
    t.kind = Task::Kind::kSm;
    t.begin = b;
    t.end = std::min(jobs.size(), b + chunk);
    t.jobs = jobs.data();
    t.results = results.data();
    t.ctl = &ctl;
    tasks.push_back(t);
  }
  dispatch(tasks);
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  FOURQ_COUNTER_ADD("engine.batches", 1);
  if (secs > 0) FOURQ_GAUGE_SET("engine.jobs_per_s", static_cast<double>(jobs.size()) / secs);
  FOURQ_GAUGE_SET("engine.queue.depth.max", queue_->max_depth());
  // Packing efficiency of this batch: live jobs over the kMaxLanes slots of
  // every wave, counting each task's partial wave as a whole one.
  size_t wave_slots = 0;
  for (const Task& t : tasks) wave_slots += ((t.end - t.begin + wv - 1) / wv) * wv;
  FOURQ_GAUGE_SET("engine.lanes.occupancy",
                  static_cast<double>(jobs.size()) / static_cast<double>(wave_slots));
#if FOURQ_OBS_ENABLED
  update_perf_gauges("sm", "engine.jobs.sm");
#endif
  return results;
}

std::vector<uint8_t> BatchEngine::verify(const std::vector<dsa::SchnorrQ::BatchItem>& items) {
  FOURQ_SPAN("engine.verify");
  std::vector<uint8_t> verdicts(items.size(), 0);
  if (items.empty()) return verdicts;
  {
    std::lock_guard<std::mutex> lock(scheme_mu_);
    if (!scheme_) scheme_ = std::make_unique<dsa::SchnorrQ>();
  }

  // One chunk per worker: each chunk is one residual MSM, and a bigger one
  // both amortises the bucket method over more terms and merges more
  // repeated keys (the MSM itself re-parallelises over the pool via
  // exec_verify's fan-out hook).
  size_t chunk = opt_.chunk;
  if (chunk == 0) chunk = (items.size() + threads_.size() - 1) / threads_.size();

  BatchCtl ctl;
  std::vector<Task> tasks;
  for (size_t b = 0; b < items.size(); b += chunk) {
    Task t;
    t.kind = Task::Kind::kVerify;
    t.begin = b;
    t.end = std::min(items.size(), b + chunk);
    t.items = items.data();
    t.verdicts = verdicts.data();
    t.ctl = &ctl;
    tasks.push_back(t);
  }
  dispatch(tasks);
  FOURQ_GAUGE_SET("engine.queue.depth.max", queue_->max_depth());
#if FOURQ_OBS_ENABLED
  update_perf_gauges("verify", "engine.jobs.verify");
#endif
  return verdicts;
}

}  // namespace fourq::engine

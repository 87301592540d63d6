// Scoped span tracer — nested wall-clock timing for the software pipeline
// (decompose/precompute/loop/normalize, scheduler stages, simulation).
// A span's path (the ;-joined names open on its thread) is resolved at
// begin(); end() folds the span into that path's PerfSpanStat. Memory grows
// with distinct paths, not spans, and a span allocates nothing once its path
// and thread are known. Raw spans live only in the attached flight ring.
//
// Thread safety: begin()/end() maintain a per-thread open-span stack, so
// nesting is tracked correctly when the batch engine's worker pool traces
// concurrently with the main thread. Threads are identified by a per-thread
// monotonic token (not std::thread::id, which the OS reuses after join —
// a recycled id would silently inherit a dead worker's open stack). A
// thread-exit hook releases the thread's bookkeeping in every live tracer,
// so pools that shrink and regrow (BatchEngine re-creation) neither leak
// entries nor leave orphaned open spans. All state is guarded by one mutex.
// Flight records carry a small stable `tid` (assigned in first-begin order)
// rather than the raw thread identity.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf_profile.hpp"
#include "obs/perfctr.hpp"

namespace fourq::obs {

class FlightRecorder;

class SpanTracer {
 public:
  SpanTracer();
  ~SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // `name` is not copied per span: it must stay valid until the matching
  // end() (FOURQ_SPAN passes a string literal).
  void begin(std::string_view name);
  void end();

  // Every completed span, aggregated per path and sorted by path.
  PerfProfile profile() const;
  // Open-span nesting depth of the *calling* thread.
  int open_depth() const;
  // Completed spans named `name` (the summed counts of the paths whose
  // leaf is `name`, any thread).
  size_t count(std::string_view name) const;

  // Live threads this tracer currently tracks (drops to the surviving
  // traced threads as workers exit — regression surface for the
  // thread-reuse bug).
  size_t tracked_threads() const;
  // Threads with a non-empty open-span stack right now.
  size_t open_stacks() const;
  // Spans dropped because their thread exited while they were still open.
  uint64_t abandoned_spans() const;

  // Mirrors every completed span into `f`, stamped with mono_us();
  // nullptr detaches.
  void set_flight(FlightRecorder* f);

  // One line per path, indented by depth: span count, total and mean time.
  std::string to_table() const;

  // Drops all aggregates. Spans still open are abandoned.
  void reset();

 private:
  friend struct SpanThreadToken;

  // One node per distinct span path; nodes_[0] is the root, whose children
  // are the top-level names.
  struct Node {
    PerfSpanStat stat;
    std::map<std::string, size_t, std::less<>> children;  // leaf name -> node
  };
  struct Open {
    size_t node = 0;
    std::string_view name;  // the caller's, valid until end()
    uint64_t start_us = 0;  // mono_us()
    PerfSample perf_begin;  // source == kUnavailable when sampling was off
  };
  struct Thread {
    int tid = 0;             // stable small number for flight records
    std::vector<Open> stack; // kept allocated until the thread exits
  };

  size_t child_locked(size_t parent, std::string_view name);
  // Called by the thread-exit hook: abandon the exiting thread's open
  // spans and drop its bookkeeping.
  void on_thread_exit(uint64_t token);

  mutable std::mutex mu_;
  std::map<uint64_t, Thread> threads_;  // live thread token -> its state
  int next_tid_ = 0;
  uint64_t abandoned_ = 0;
  FlightRecorder* flight_ = nullptr;
  std::vector<Node> nodes_;
  PerfSource best_ = PerfSource::kUnavailable;  // best counter source seen
};

// RAII guard: FOURQ_SPAN expands to one of these.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& t, const char* name) : t_(&t) { t_->begin(name); }
  ~ScopedSpan() { t_->end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* t_;
};

}  // namespace fourq::obs

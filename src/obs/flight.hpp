// Flight recorder — a bounded ring buffer of recent telemetry events
// (completed spans and engine task completions). It is the only store of
// raw spans (the span tracer keeps per-path aggregates): the recorder holds
// the *last* `capacity` events in a fixed block of memory, so million-job
// runs can keep tracing on: when something goes wrong at job 900k, the tail
// of the flight is still there. chrome_trace_json() renders the ring as the
// Chrome trace that `fourqc profile` and the snapshot exporter write.
//
// Every entry is stamped with mono_us(), so spans and tasks recorded from
// any thread line up on one timeline.
//
// Event names are interned into a small bounded table (the vocabulary of
// span/task names is tiny); if an unreasonable number of distinct names
// shows up, the excess collapses into "(other)" rather than growing the
// table — memory_bytes() is a hard cap, not an estimate.
//
// Thread safety: one mutex around the ring; record() is O(1) and far off
// any per-cycle path (it is fed per span / per engine task).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fourq::obs {

// Microseconds on the monotonic clock: the one time base of every flight
// record, and of the engine's enqueue/dequeue/complete lifecycle stamps.
uint64_t mono_us();

enum class FlightKind : uint8_t { kSpan = 0, kTask = 1 };

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 8192);  // ring entries, 24 bytes each

  // Records one event ending at `t_us` (a mono_us() stamp), evicting the
  // oldest entry once the ring is full. `arg` is the span's tracer thread
  // number or the task's worker id.
  void record(FlightKind kind, std::string_view name, uint64_t t_us, uint64_t dur_us,
              int32_t arg = -1);

  uint64_t recorded() const;
  // Events that evicted an older entry (ring was full).
  uint64_t evicted() const;
  size_t size() const;
  size_t capacity() const;
  // Upper bound on heap owned by the recorder: ring storage plus the
  // (bounded) interned-name table.
  size_t memory_bytes() const;

  struct Event {
    std::string name;
    FlightKind kind;
    uint64_t t_us;
    uint64_t dur_us;
    int32_t arg;
  };
  // Oldest-to-newest copy of the ring.
  std::vector<Event> snapshot() const;

  // {"traceEvents":[...],"otherData":{...}} — one Chrome "X" (complete)
  // event per ring entry, oldest first. Spans sit on pid 1 with tid = the
  // tracer's thread number + 1; engine tasks on pid 2 with tid = worker id.
  // `ts` counts from the earliest start in the ring; otherData carries the
  // ring's capacity, recorded and evicted counts. Loadable in
  // chrome://tracing or https://ui.perfetto.dev.
  std::string chrome_trace_json() const;

  // Drops events and resets the counters; keeps the capacity.
  void reset();

 private:
  struct Entry {
    uint64_t t_us;
    uint32_t dur_us;
    int32_t arg;
    uint16_t name;  // index into names_
    uint8_t kind;
  };
  uint16_t intern_locked(std::string_view name);

  mutable std::mutex mu_;
  std::vector<Entry> ring_;   // allocated to capacity once
  size_t head_ = 0;           // next write position
  size_t size_ = 0;
  uint64_t recorded_ = 0;
  uint64_t evicted_ = 0;
  std::vector<std::string> names_{"(other)"};
  std::map<std::string, uint16_t, std::less<>> name_ids_;
  size_t names_bytes_ = names_[0].size();
};

}  // namespace fourq::obs

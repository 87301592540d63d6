// Flight recorder — a bounded ring buffer of recent telemetry events
// (completed spans, engine task completions, cycle events, free-form marks)
// with optional 1-in-N sampling. It is the only store of raw spans (the
// span tracer keeps per-path aggregates): the recorder holds the *last*
// `capacity` sampled events in a fixed block of memory, so million-job runs
// can keep tracing on: when something goes wrong at job 900k, the tail of
// the flight is still there. chrome_trace_json() renders its span events
// as the Chrome trace `fourqc profile` writes.
//
// Event names are interned into a small bounded table (the vocabulary of
// span/task names is tiny); if an unreasonable number of distinct names
// shows up, the excess collapses into "(other)" rather than growing the
// table — memory_bytes() is a hard cap, not an estimate.
//
// Thread safety: one mutex around the ring; record() is O(1) and far off
// any per-cycle path (it is fed per span / per engine task).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fourq::obs {

enum class FlightKind : uint8_t { kSpan = 0, kTask = 1, kCycle = 2, kMark = 3 };

const char* flight_kind_name(FlightKind k);

struct FlightConfig {
  size_t capacity = 8192;     // ring entries (each entry is 24 bytes)
  uint32_t sample_every = 1;  // keep 1 of every N events offered
  // Reads FOURQ_OBS_FLIGHT_CAP (entries) and FOURQ_OBS_FLIGHT_SAMPLE.
  static FlightConfig from_env();
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightConfig cfg = FlightConfig::from_env());

  // Replaces the configuration and drops all recorded events.
  void configure(const FlightConfig& cfg);

  // Offers one event; it is kept only when the sampling counter selects it,
  // evicting the oldest entry once the ring is full.
  void record(FlightKind kind, std::string_view name, uint64_t t_us, uint64_t dur_us,
              int32_t arg = -1);

  uint64_t seen() const { return seen_.load(std::memory_order_relaxed); }
  uint64_t recorded() const;
  // Sampled-in events that evicted an older entry (ring was full).
  uint64_t evicted() const;
  size_t size() const;
  size_t capacity() const;
  uint32_t sample_every() const;
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

  // {"schema":"fourq.flight.v1",...,"events":[...]}.
  std::string to_json() const;
  // {"traceEvents":[...]} — one Chrome "X" (complete) event per span event
  // in the ring, oldest first; tid is the tracer's thread number + 1.
  // Loadable in chrome://tracing or https://ui.perfetto.dev.
  std::string chrome_trace_json() const;

  // Drops events and resets the sampling/seen counters; keeps config.
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
  FlightConfig cfg_;
  // Mirror of cfg_.sample_every readable without the mutex: the sampling
  // decision happens before any locking so skipped events cost two atomics.
  std::atomic<uint32_t> sample_every_{1};
  std::vector<Entry> ring_;   // allocated to cfg_.capacity once
  size_t head_ = 0;           // next write position
  size_t size_ = 0;
  uint64_t recorded_ = 0;
  uint64_t evicted_ = 0;
  std::vector<std::string> names_;           // names_[0] == "(other)"
  std::map<std::string, uint16_t, std::less<>> name_ids_;
  size_t names_bytes_ = 0;
  std::atomic<uint64_t> seen_{0};
};

}  // namespace fourq::obs

#include "obs/flight.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "obs/span.hpp"  // json_escape

namespace fourq::obs {

namespace {

// The name table is bounded: span/task vocabularies are a few dozen names;
// anything past this cap collapses into the shared "(other)" slot so a
// pathological caller cannot grow the recorder past memory_bytes().
constexpr size_t kMaxNames = 512;

size_t env_size(const char* var, size_t fallback) {
  const char* s = std::getenv(var);
  if (!s || !*s) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || v == 0) return fallback;
  return static_cast<size_t>(v);
}

}  // namespace

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kSpan: return "span";
    case FlightKind::kTask: return "task";
    case FlightKind::kCycle: return "cycle";
    case FlightKind::kMark: return "mark";
  }
  return "?";
}

FlightConfig FlightConfig::from_env() {
  FlightConfig cfg;
  cfg.capacity = env_size("FOURQ_OBS_FLIGHT_CAP", cfg.capacity);
  cfg.sample_every =
      static_cast<uint32_t>(env_size("FOURQ_OBS_FLIGHT_SAMPLE", cfg.sample_every));
  return cfg;
}

FlightRecorder::FlightRecorder(FlightConfig cfg) { configure(cfg); }

void FlightRecorder::configure(const FlightConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_ = cfg;
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
  sample_every_.store(cfg_.sample_every, std::memory_order_relaxed);
  ring_.assign(cfg_.capacity, Entry{});
  ring_.shrink_to_fit();
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  evicted_ = 0;
  names_.clear();
  names_.push_back("(other)");
  name_ids_.clear();
  names_bytes_ = names_[0].size();
  seen_.store(0, std::memory_order_relaxed);
}

uint16_t FlightRecorder::intern_locked(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  if (names_.size() >= kMaxNames) return 0;  // "(other)"
  uint16_t id = static_cast<uint16_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(name, id);
  names_bytes_ += 2 * name.size();  // stored in names_ and the id map
  return id;
}

void FlightRecorder::record(FlightKind kind, std::string_view name, uint64_t t_us,
                            uint64_t dur_us, int32_t arg) {
  uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed);
  uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every > 1 && n % every != 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.t_us = t_us;
  e.dur_us = dur_us > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(dur_us);
  e.arg = arg;
  e.name = intern_locked(name);
  e.kind = static_cast<uint8_t>(kind);
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  else ++evicted_;
  ++recorded_;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t FlightRecorder::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint32_t FlightRecorder::sample_every() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_.sample_every;
}

size_t FlightRecorder::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.capacity() * sizeof(Entry) + names_bytes_ +
         names_.capacity() * sizeof(std::string) +
         name_ids_.size() * (sizeof(void*) * 4 + sizeof(std::string));
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(size_);
  size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (size_t i = 0; i < size_; ++i) {
    const Entry& e = ring_[(start + i) % ring_.size()];
    Event ev;
    ev.name = names_[e.name];
    ev.kind = static_cast<FlightKind>(e.kind);
    ev.t_us = e.t_us;
    ev.dur_us = e.dur_us;
    ev.arg = e.arg;
    out.push_back(std::move(ev));
  }
  return out;
}

std::string FlightRecorder::to_json() const {
  std::vector<Event> events = snapshot();
  std::string out = "{\"schema\":\"fourq.flight.v1\"";
  {
    std::lock_guard<std::mutex> lock(mu_);
    out += ",\"capacity\":" + std::to_string(ring_.size()) +
           ",\"sample_every\":" + std::to_string(cfg_.sample_every) +
           ",\"seen\":" + std::to_string(seen_.load(std::memory_order_relaxed)) +
           ",\"recorded\":" + std::to_string(recorded_) +
           ",\"evicted\":" + std::to_string(evicted_) +
           ",\"memory_bytes\":" + std::to_string(ring_.capacity() * sizeof(Entry));
  }
  out += ",\"events\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(e.name) + "\",\"kind\":\"" +
           flight_kind_name(e.kind) + "\",\"t_us\":" + std::to_string(e.t_us) +
           ",\"dur_us\":" + std::to_string(e.dur_us) +
           ",\"arg\":" + std::to_string(e.arg) + "}";
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : snapshot()) {
    if (e.kind != FlightKind::kSpan) continue;
    if (!first) out += ",";
    first = false;
    uint64_t start_us = e.t_us > e.dur_us ? e.t_us - e.dur_us : 0;  // t_us is the end
    out += "{\"name\":\"" + json_escape(e.name) +
           "\",\"cat\":\"fourq\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(e.arg + 1) + ",\"ts\":" + std::to_string(start_us) +
           ",\"dur\":" + std::to_string(e.dur_us) + "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  evicted_ = 0;
  seen_.store(0, std::memory_order_relaxed);
}

}  // namespace fourq::obs

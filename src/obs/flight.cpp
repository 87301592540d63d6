#include "obs/flight.hpp"

#include <algorithm>
#include <chrono>

#include "obs/json.hpp"

namespace fourq::obs {

namespace {

// The name table is bounded: span/task vocabularies are a few dozen names;
// anything past this cap collapses into the shared "(other)" slot so a
// pathological caller cannot grow the recorder past memory_bytes().
constexpr size_t kMaxNames = 512;

}  // namespace

uint64_t mono_us() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

FlightRecorder::FlightRecorder(size_t capacity) : ring_(std::max<size_t>(capacity, 1)) {}

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

std::string FlightRecorder::chrome_trace_json() const {
  const std::vector<Event> events = snapshot();
  // t_us is an event's end; ts counts from the earliest start.
  auto start_us = [](const Event& e) { return e.t_us - std::min(e.t_us, e.dur_us); };
  uint64_t origin = UINT64_MAX;
  for (const Event& e : events) origin = std::min(origin, start_us(e));
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const bool span = e.kind == FlightKind::kSpan;
    if (i) out += ",";
    out += "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"fourq\",\"ph\":\"X\",\"pid\":" +
           (span ? "1" : "2") + ",\"tid\":" + std::to_string(span ? e.arg + 1 : e.arg) +
           ",\"ts\":" + std::to_string(start_us(e) - origin) +
           ",\"dur\":" + std::to_string(e.dur_us) + "}";
  }
  std::lock_guard<std::mutex> lock(mu_);
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"capacity\":" +
         std::to_string(ring_.size()) + ",\"recorded\":" + std::to_string(recorded_) +
         ",\"evicted\":" + std::to_string(evicted_) + "}}";
  return out;
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  evicted_ = 0;
}

}  // namespace fourq::obs

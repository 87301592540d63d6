#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/check.hpp"
#include "obs/flight.hpp"

namespace fourq::obs {

namespace {

// Registry of live tracers so the thread-exit hook can notify each one.
// Deliberately leaked (never destroyed): thread_local destructors of late-
// exiting threads may run during static destruction, and must still find a
// valid registry to walk.
std::mutex& tracers_mu() {
  static std::mutex m;
  return m;
}

std::vector<SpanTracer*>& tracers() {
  static auto* v = new std::vector<SpanTracer*>();
  return *v;
}

}  // namespace

// One per thread that ever traced: carries a process-unique token (never
// reused, unlike std::thread::id) and, on thread exit, tells every live
// tracer to release that thread's bookkeeping. tracers_mu() is held across
// the walk so a tracer cannot be destroyed mid-notification.
struct SpanThreadToken {
  uint64_t value;
  SpanThreadToken() {
    static std::atomic<uint64_t> next{1};
    value = next.fetch_add(1, std::memory_order_relaxed);
  }
  ~SpanThreadToken() {
    std::lock_guard<std::mutex> lock(tracers_mu());
    for (SpanTracer* t : tracers()) t->on_thread_exit(value);
  }
  static uint64_t current() {
    thread_local SpanThreadToken tok;
    return tok.value;
  }
};

SpanTracer::SpanTracer() : nodes_(1) {
  std::lock_guard<std::mutex> lock(tracers_mu());
  tracers().push_back(this);
}

SpanTracer::~SpanTracer() {
  std::lock_guard<std::mutex> lock(tracers_mu());
  auto& v = tracers();
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

size_t SpanTracer::child_locked(size_t parent, std::string_view name) {
  auto& kids = nodes_[parent].children;
  if (auto it = kids.find(name); it != kids.end()) return it->second;
  size_t id = nodes_.size();
  kids.emplace(name, id);
  Node n;
  n.stat.name = name;
  if (parent == 0) {
    n.stat.path = name;
  } else {
    n.stat.path = nodes_[parent].stat.path + ';' + n.stat.name;
    n.stat.depth = nodes_[parent].stat.depth + 1;
  }
  nodes_.push_back(std::move(n));
  return id;
}

void SpanTracer::on_thread_exit(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = threads_.find(token);
  if (it == threads_.end()) return;
  abandoned_ += it->second.stack.size();
  threads_.erase(it);
}

void SpanTracer::begin(std::string_view name) {
  uint64_t token = SpanThreadToken::current();
  // Counter reads touch only the calling thread's group — outside the lock.
  PerfSample perf;
  if (perf_enabled()) perf = perf_read_thread();
  uint64_t t = mono_us();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = threads_.find(token);
  if (it == threads_.end()) it = threads_.emplace(token, Thread{next_tid_++, {}}).first;
  std::vector<Open>& stack = it->second.stack;
  size_t node = child_locked(stack.empty() ? 0 : stack.back().node, name);
  stack.push_back({node, name, t, perf});
}

void SpanTracer::end() {
  uint64_t token = SpanThreadToken::current();
  PerfSample perf_end;
  if (perf_enabled()) perf_end = perf_read_thread();
  uint64_t t = mono_us();
  FlightRecorder* flight = nullptr;
  std::string_view name;
  uint64_t dur_us = 0;
  int tid = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = threads_.find(token);
    FOURQ_CHECK_MSG(it != threads_.end() && !it->second.stack.empty(),
                    "span end() without matching begin() on this thread");
    const Open o = it->second.stack.back();
    it->second.stack.pop_back();
    // kUnavailable unless counters were live at both ends of the span.
    PerfDelta d = perf_delta(o.perf_begin, perf_end);
    dur_us = t - o.start_us;
    nodes_[o.node].stat.add(static_cast<double>(dur_us), d);
    if (d.source > best_) best_ = d.source;
    // The caller's name, not the node's: reset() may free nodes once the
    // lock is released.
    name = o.name;
    tid = it->second.tid;
    flight = flight_;
  }
  if (flight) flight->record(FlightKind::kSpan, name, t, dur_us, tid);
}

PerfProfile SpanTracer::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  PerfProfile p;
  p.counters = perf_source_name(best_);
  for (size_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].stat.wall_us.n) p.spans.push_back(nodes_[i].stat);
  std::sort(p.spans.begin(), p.spans.end(),
            [](const PerfSpanStat& a, const PerfSpanStat& b) { return a.path < b.path; });
  return p;
}

int SpanTracer::open_depth() const {
  uint64_t token = SpanThreadToken::current();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = threads_.find(token);
  return it == threads_.end() ? 0 : static_cast<int>(it->second.stack.size());
}

size_t SpanTracer::count(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Node& node : nodes_)
    if (node.stat.name == name) n += node.stat.wall_us.n;
  return n;
}

size_t SpanTracer::tracked_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

size_t SpanTracer::open_stacks() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [token, th] : threads_)
    if (!th.stack.empty()) ++n;
  return n;
}

uint64_t SpanTracer::abandoned_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return abandoned_;
}

void SpanTracer::set_flight(FlightRecorder* f) {
  std::lock_guard<std::mutex> lock(mu_);
  flight_ = f;
}

void SpanTracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
  nodes_.assign(1, Node{});
  next_tid_ = 0;
  abandoned_ = 0;
  best_ = PerfSource::kUnavailable;
}

std::string SpanTracer::to_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[192];
  std::snprintf(line, sizeof line, "%-44s %8s %12s %12s\n", "span path", "n", "total ms",
                "mean ms");
  out += line;
  // Depth-first, siblings by name, so children sit under their parent.
  auto walk = [&](auto& self, size_t id) -> void {
    for (const auto& [name, kid] : nodes_[id].children) {
      const PerfSpanStat& s = nodes_[kid].stat;
      if (s.wall_us.n) {
        std::string label(static_cast<size_t>(2 * s.depth), ' ');
        label += s.name;
        std::snprintf(line, sizeof line, "%-44s %8llu %12.3f %12.3f\n", label.c_str(),
                      static_cast<unsigned long long>(s.wall_us.n), s.wall_us.sum / 1000.0,
                      s.wall_us.mean() / 1000.0);
        out += line;
      }
      self(self, kid);
    }
  };
  walk(walk, 0);
  return out;
}

}  // namespace fourq::obs

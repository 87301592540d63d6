// Unified telemetry entry point. Include this (only this) from
// instrumented code and use the FOURQ_* macros; they compile to nothing
// when the library is built with FOURQ_OBS_ENABLED=0 (CMake option
// FOURQ_OBS=OFF), so disabled instrumentation has zero overhead — no
// clock reads, no map lookups, no branches.
//
//   FOURQ_SPAN("curve.scalar_mul");            // RAII scope timing
//   FOURQ_COUNTER_ADD("sched.dag.nodes", n);   // monotonic counter
//   FOURQ_COUNTER_INC("curve.scalar_mul.calls");
//   FOURQ_GAUGE_SET("sched.makespan", s.makespan);
//
// The registry/tracer behind the macros is process-global and thread-safe
// (atomic counters/gauges, mutexed histograms and per-thread span stacks),
// so instrumented code may run on the batch engine's worker pool; exporters
// drain it via obs::global(). Libraries may also instantiate private
// Registry/SpanTracer objects — the macros are a convenience, not the only
// door.
#pragma once

#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

#ifndef FOURQ_OBS_ENABLED
#define FOURQ_OBS_ENABLED 1
#endif

namespace fourq::obs {

struct Telemetry {
  Registry metrics;
  FlightRecorder flight;
  SpanTracer spans;

  // Completed spans mirror into the flight recorder's bounded ring, the
  // only raw-span store (the tracer keeps per-path aggregates); the ring's
  // spans and engine tasks are what a Chrome trace shows.
  Telemetry() { spans.set_flight(&flight); }

  void reset() {
    metrics.reset();
    spans.reset();
    flight.reset();
  }
};

// The process-global telemetry context.
Telemetry& global();

// True when instrumentation macros are compiled in (exposed so tools can
// report why a bundle is empty).
constexpr bool compiled_in() { return FOURQ_OBS_ENABLED != 0; }

}  // namespace fourq::obs

#if FOURQ_OBS_ENABLED

#define FOURQ_OBS_CONCAT2(a, b) a##b
#define FOURQ_OBS_CONCAT(a, b) FOURQ_OBS_CONCAT2(a, b)

#define FOURQ_SPAN(name)                                        \
  ::fourq::obs::ScopedSpan FOURQ_OBS_CONCAT(fourq_obs_span_, __LINE__)( \
      ::fourq::obs::global().spans, name)

// The handle is resolved once per call site (Registry never invalidates
// handles), so the steady-state cost is one pointer increment.
#define FOURQ_COUNTER_ADD(name, n)                                          \
  do {                                                                      \
    static ::fourq::obs::Counter& fourq_obs_c =                             \
        ::fourq::obs::global().metrics.counter(name);                       \
    fourq_obs_c.inc(static_cast<uint64_t>(n));                              \
  } while (0)

#define FOURQ_COUNTER_INC(name) FOURQ_COUNTER_ADD(name, 1)

#define FOURQ_GAUGE_SET(name, v)                                            \
  do {                                                                      \
    static ::fourq::obs::Gauge& fourq_obs_g =                               \
        ::fourq::obs::global().metrics.gauge(name);                         \
    fourq_obs_g.set(static_cast<double>(v));                                \
  } while (0)

// Labeled variants for call sites whose label value is a literal (one
// static handle per site). Dynamic labels (e.g. worker ids) should resolve
// Registry handles once per thread instead of going through a macro.
#define FOURQ_COUNTER_ADD_L(name, lkey, lval, n)                            \
  do {                                                                      \
    static ::fourq::obs::Counter& fourq_obs_c =                             \
        ::fourq::obs::global().metrics.counter(name, {{lkey, lval}});       \
    fourq_obs_c.inc(static_cast<uint64_t>(n));                              \
  } while (0)

#define FOURQ_COUNTER_INC_L(name, lkey, lval) FOURQ_COUNTER_ADD_L(name, lkey, lval, 1)

// Observation into the shared log-2 microsecond latency histogram.
#define FOURQ_LATENCY_OBSERVE(name, us)                                     \
  do {                                                                      \
    static ::fourq::obs::Histogram& fourq_obs_h =                           \
        ::fourq::obs::global().metrics.latency_histogram(name);             \
    fourq_obs_h.observe(static_cast<double>(us));                           \
  } while (0)

#else  // !FOURQ_OBS_ENABLED

#define FOURQ_SPAN(name) ((void)0)
#define FOURQ_COUNTER_ADD(name, n) ((void)0)
#define FOURQ_COUNTER_INC(name) ((void)0)
#define FOURQ_GAUGE_SET(name, v) ((void)0)
#define FOURQ_COUNTER_ADD_L(name, lkey, lval, n) ((void)0)
#define FOURQ_COUNTER_INC_L(name, lkey, lval) ((void)0)
#define FOURQ_LATENCY_OBSERVE(name, us) ((void)0)

#endif  // FOURQ_OBS_ENABLED

// Lightweight runtime contract checking used across the library.
//
// FOURQ_CHECK is always on (also in release builds): this library models
// hardware whose structural invariants (port limits, pipeline occupancy,
// range bounds on lazily-reduced values) must never be violated silently.
// The failure branch is marked [[unlikely]] and calls a cold, out-of-line
// [[noreturn]] function, so a check inside inline arithmetic costs one
// predicted compare-and-branch and keeps its throw path out of hot code.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace fourq {

[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(const char* expr,
                                                                const char* file, int line,
                                                                const std::string& msg) {
  std::string what = std::string("FOURQ_CHECK failed: ") + expr + " at " + file + ":" +
                     std::to_string(line);
  if (!msg.empty()) what += " — " + msg;
  throw std::logic_error(what);
}

[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(const char* expr,
                                                                const char* file, int line) {
  check_failed(expr, file, line, std::string());
}

}  // namespace fourq

#define FOURQ_CHECK(expr)                                                     \
  do {                                                                        \
    if (!(expr)) [[unlikely]] ::fourq::check_failed(#expr, __FILE__, __LINE__); \
  } while (0)

#define FOURQ_CHECK_MSG(expr, msg)                                                   \
  do {                                                                               \
    if (!(expr)) [[unlikely]] ::fourq::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (0)

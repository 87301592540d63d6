#include "calibration.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util.hpp"

namespace perfbench {

namespace {

// Nominal kernel time: host_kernel_ns() on the reference host
// (calibration.hpp) when it is quiet, 18-20 us. It only sets the scale, and
// cancels in any comparison.
constexpr double kNominalNs = 19500.0;

// Host-speed sampling (host_kernel_ns).
constexpr int64_t kResampleNs = 50'000'000, kSettleNs = 2'000'000;

double kernel_ns() {
  using u128 = unsigned __int128;
  constexpr int kLanes = 256, kReps = 16;
  constexpr u128 p = (u128{1} << 127) - 1;
  static u128 a[kLanes], b[kLanes];
  for (int i = 0; i < kLanes; ++i) {
    a[i] = (u128{0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1)} << 60) |
           static_cast<uint64_t>(i + 7);
    b[i] = a[i] ^ 0x1234567u;
  }
  const int64_t t0 = now_ns();
  for (int r = 0; r < kReps; ++r)
    for (int i = 0; i < kLanes; ++i) {
      const uint64_t a0 = static_cast<uint64_t>(a[i]), a1 = static_cast<uint64_t>(a[i] >> 64);
      const uint64_t b0 = static_cast<uint64_t>(b[i]), b1 = static_cast<uint64_t>(b[i] >> 64);
      const u128 p00 = u128{a0} * b0, p01 = u128{a0} * b1, p10 = u128{a1} * b0,
                 p11 = u128{a1} * b1;
      const u128 mid = (p00 >> 64) + static_cast<uint64_t>(p01) + static_cast<uint64_t>(p10);
      const u128 lo = static_cast<uint64_t>(p00) | (mid << 64);
      const u128 hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
      const u128 v = (lo & p) + ((lo >> 127) | (hi << 1));
      a[i] = (v & p) + (v >> 127);
    }
  const int64_t t1 = now_ns();
  keep(a[0]);
  return static_cast<double>(t1 - t0);
}

}  // namespace

double host_kernel_ns() {
  static int64_t last = 0;
  static double kernel = 0;
  const int64_t t = now_ns();
  if (kernel == 0 || t - last > kResampleNs) {
    while (now_ns() - t < kSettleNs) {
    }
    double k[3];
    for (double& v : k) v = kernel_ns();
    std::sort(k, k + 3);
    kernel = k[1];
    last = now_ns();
  }
  return kernel;
}

double slowdown(double kernel_ns, double elasticity) {
  return std::pow(kernel_ns / kNominalNs, elasticity);
}

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace perfbench

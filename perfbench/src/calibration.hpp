// Host-speed calibration.
//
// On the reference host, a 4-vCPU AVX-512 IFMA Xeon VM, each vCPU shares a
// core with other tenants' hyperthreads. For seconds at a time that slows
// the library's code by up to 2x, so raw host times of the same code spread
// far wider than any change worth measuring. The benchmark pins itself to
// one CPU (so the kernel below runs where the work runs) and samples, before
// the timed calls, a fixed kernel owned by the benchmark and independent of
// the library: Mersenne-127 multiplications over independent lanes, the
// instruction mix of the library's field code. Each call's time is reported
// at the reference speed: host time divided by the slowdown the kernel
// implies.
#pragma once

namespace perfbench {

// Elasticity of the library's throughput to the kernel's slowdown: least
// squares of log run throughput on log mean kernel time over repeated runs
// of one seed on the reference host. The library's code is less sensitive
// than the pure throughput kernel, so dividing by the raw kernel ratio
// would over-correct.
//   Compute-bound code: 0.76-0.79 (its-verify), 0.76-0.85 (engine-farm);
//   also used for set-ups and probes, which run the same scalar field code.
inline constexpr double kComputeElasticity = 0.8;
//   msm-stream, whose 24 MB working set leaves the caches and is less
//   sensitive to a sibling hyperthread's load: 0.62 (r^2 0.95 over twenty
//   runs, kernel 22-44 us).
inline constexpr double kMsmElasticity = 0.62;

// Kernel time on the host now, in ns: the median of three runs, measured
// afresh when the last measurement is older than 50 ms, after 2 ms spent
// spinning on scalar code. Vector code (the AVX-512 lane kernels) can leave
// the core slower for a while after it stops, as with a lower frequency
// licence; a kernel run right after each call overstated the AVX-512 lane
// kernels' gain over AVX2 by 12% on engine-farm (README.md). The spin lets
// such a slowdown, which the library causes, lapse instead of being taken
// for host load and divided out.
double host_kernel_ns();

// Slowdown of code with the given elasticity implied by one kernel time,
// relative to the nominal uncontended host (1.0 = nominal).
double slowdown(double kernel_ns, double elasticity = kComputeElasticity);

// Confines the process, and the threads it starts later, to the CPU it is
// running on.
void pin_to_current_cpu();

}  // namespace perfbench

// Deterministic pseudo-random generator (xoshiro256**) for tests, workload
// generation and the simulated-annealing scheduler. Deterministic seeding
// keeps every experiment in this repository reproducible run-to-run.
//
// NOT cryptographically secure: the DSA layer takes nonces from callers, and
// examples state clearly that this RNG stands in for a real TRNG.
#pragma once

#include <cstdint>

#include "common/u256.hpp"

namespace fourq {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);
  // The xoshiro256** state itself, e.g. a 256-bit key; not all zero.
  Rng(uint64_t s0, uint64_t s1, uint64_t s2, uint64_t s3);

  uint64_t next_u64();
  // Uniform in [0, bound) for bound > 0.
  uint64_t next_below(uint64_t bound);
  // Uniform double in [0, 1).
  double next_double();
  // Uniformly random 256-bit value.
  U256 next_u256();
  // Uniformly random value in [1, m-1] (rejection sampling).
  U256 next_mod_nonzero(const U256& m);

 private:
  uint64_t s_[4];
};

}  // namespace fourq

// Per-layer probes: time the lower modules' public functions on inputs
// drawn from the workload seed, and price each layer's op counts at the
// measured cost of the layer below (the ledger: measured, .floor,
// .efficiency = floor / measured).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

// Per-op counts of one formula: F_{p^2} multiplications, squarings and
// additions/subtractions.
struct OpTally {
  int mul = 0, sqr = 0, add = 0;
};

// Op counts of curve::dbl, curve::add and curve::add_mixed, taken by
// instantiating the formula templates on a counting field type.
OpTally dbl_tally();
OpTally add_tally();
OpTally add_mixed_tally();

// Runs every probe and adds its metrics to m. A probe whose outputs differ
// from the software reference appends a line to `problems`.
void run_probes(uint64_t seed, Metrics& m, std::vector<std::string>& problems);

}  // namespace perfbench

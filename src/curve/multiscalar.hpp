// Multi-scalar multiplication sum_i [k_i] P_i — the hot loop of batch
// signature verification (one n-term MSM replaces n+1 separate scalar
// multiplications) and the workload zk-style proof systems run at n in the
// millions.
//
// Two backends live behind one multi_scalar_mul(terms, MsmOptions) API:
//
//  * Straus      — interleaved width-w NAF: one shared doubling chain,
//                  per-point odd-multiple tables (normalised to affine via
//                  one batched inversion, so the main loop runs on 7M mixed
//                  additions). Best for small n.
//  * Pippenger   — signed-window bucket method, implemented as a streaming
//                  pipeline: terms are consumed in bounded-memory chunks
//                  (normalise + digit-decompose per chunk) while the
//                  buckets persist across chunks, so peak memory is
//                  O(buckets + chunk), not O(n). Insertion runs over cells
//                  of at least 64 buckets (a bucket segment of one window,
//                  or several narrow windows) as 16-lane kernel waves; the
//                  fold runs one S/T chain per (window, segment), all
//                  chains of a group advancing together through the lane
//                  kernels on a vector table. Cells and chain groups are
//                  the parallel axis (MsmOptions::parallel), and a
//                  deterministic MSB-first combine keeps the result bitwise
//                  independent of chunking and thread count.
//
// kAuto picks by a crossover calibrated with bench/bench_msm.cpp: Pippenger
// from 12 terms where the lane fold runs (a vector kernel table, lanes on),
// from 40 on the scalar fold. Both backends return the same group element;
// after to_affine() the coordinates are bit-identical across backends,
// chunk sizes and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "curve/point.hpp"

namespace fourq::curve {

struct ScalarPoint {
  U256 k;
  Affine p;
  // Declared upper bound on k's bit length. Digit lengths are always
  // derived from k itself — short scalars (batch verification's 128-bit
  // random weights) are never padded to a common width, so they get fewer
  // wNAF digits / bucket windows automatically. The bound is validated
  // (a scalar exceeding it trips a check), documenting the caller's
  // contract rather than steering the schedule.
  int bits = 256;
};

enum class MsmBackend : uint8_t { kAuto, kStraus, kPippenger };

// Parallel-for hook: run(n, fn) must invoke fn(i) exactly once for every
// i in [0, n), on any mix of threads, and return only when all calls have
// finished. An empty function means sequential execution. The engine's
// worker pool provides one (engine::BatchEngine::msm_parallel()).
using MsmParallelFor =
    std::function<void(size_t n, const std::function<void(size_t)>& fn)>;

// Per-call observability snapshot, filled when MsmOptions::stats is set.
// Not thread-safe across concurrent multi_scalar_mul calls sharing one
// MsmStats — give each call its own (the curve.msm.* obs counters are the
// aggregate view).
struct MsmStats {
  MsmBackend backend = MsmBackend::kAuto;  // resolved backend
  int window = 0;           // Pippenger window width c
  int windows = 0;          // digit windows (nwin)
  int segments = 0;         // bucket segments per window (parallel grain)
  size_t terms = 0;         // live (non-zero-scalar) input terms
  size_t sub_terms = 0;     // Pippenger bucket-insertion terms (== terms)
  size_t chunks = 0;        // streamed chunks consumed
  size_t bucket_waves = 0;  // 16-lane lane-kernel mixed-add waves
  size_t peak_bytes = 0;    // peak bytes of MSM-owned working memory
  // Wall-time phase split of the streaming pipeline (milliseconds): chunk
  // staging (normalise + digit routing), bucket insertion, final fold.
  double stage_ms = 0.0;
  double insert_ms = 0.0;
  double fold_ms = 0.0;
};

struct MsmOptions {
  MsmBackend backend = MsmBackend::kAuto;
  // Pippenger bucket window width c in bits (buckets per window: 2^(c-1)).
  // 0 = choose by minimising the predicted add count for the term set.
  int window = 0;
  // Optional parallel executor for the Pippenger insertion cells and fold
  // chain groups. Results are bitwise independent of whether/how this runs
  // (each cell owns a disjoint bucket range and scans terms in a fixed
  // order, each fold chain is computed the same way in any group, and the
  // combine runs in a fixed MSB-first order).
  MsmParallelFor parallel;
  // Streaming chunk: how many input terms are staged (normalised +
  // digit-decomposed) at once. Buckets persist across chunks, so peak
  // memory is O(buckets + chunk) while the result stays bitwise invariant
  // to the chunk size. 0 = default (16384).
  size_t chunk = 0;
  // Lane-kernel bucket insertion (16-lane SoA mixed-add waves) and, on a
  // vector kernel table, the lane-parallel fold. false forces the scalar
  // one-add-at-a-time insertion and fold: the bitwise reference the lane
  // paths are tested against and bench_msm_large's truly-serial
  // configuration.
  bool lanes = true;
  // Optional per-call stats sink (see MsmStats).
  MsmStats* stats = nullptr;
};

// Resolves kAuto against the calibrated crossover for n terms.
MsmBackend msm_choose_backend(size_t n_terms, const MsmOptions& opts = {});
const char* msm_backend_name(MsmBackend b);

PointR1 multi_scalar_mul(const std::vector<ScalarPoint>& terms,
                         const MsmOptions& opts);
// Convenience overload: kAuto, sequential.
PointR1 multi_scalar_mul(const std::vector<ScalarPoint>& terms);

// Pull-based term source for streaming MSM: fill out[0..max) with the next
// terms and return how many were written; 0 means exhausted. Called
// repeatedly until exhaustion, from the calling thread only.
using MsmTermSource = std::function<size_t(ScalarPoint* out, size_t max)>;

// Streaming entry point: runs the chunked Pippenger pipeline directly off a
// term source, never materialising the full term vector — the only O(n)
// state the caller keeps is its own. n_hint sizes the window cost model
// (0 = assume large); opts.backend must be kAuto or kPippenger.
// Equal to multi_scalar_mul on the same terms, bitwise after to_affine().
PointR1 multi_scalar_mul_stream(const MsmTermSource& src, size_t n_hint,
                                const MsmOptions& opts);

// Width-w non-adjacent form of k: digits in {0, ±1, ±3, ..., ±(2^w - 1)},
// at most one non-zero digit in any w consecutive positions. Exposed for
// tests. digits[i] weights 2^i; result length <= 257.
std::vector<int8_t> wnaf(const U256& k, int width);

}  // namespace fourq::curve

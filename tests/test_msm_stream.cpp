// Streaming-Pippenger property tests: chunk-size bitwise invariance,
// bucket-grid thread-count invariance, the scalar-insertion reference, and
// the bounded-memory contract. Complements test_multiscalar.cpp (which pins
// the backend-agreement and recoding behaviour shared with the
// non-streaming entry points).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "curve/multiscalar.hpp"
#include "curve/scalarmul.hpp"

namespace fourq::curve {
namespace {

Affine identity_affine() { return Affine{Fp2(), Fp2::from_u64(1)}; }

// n distinct points without n square-root searches: an additive walk
// P, P+Q, P+2Q, ... normalised in one batched inversion — the same
// construction the large-n benches use to build their pools.
std::vector<Affine> chain_points(size_t n, uint64_t seed) {
  PointR2 step = to_r2(to_r1(deterministic_point(seed + 1)));
  std::vector<PointR1> chain;
  chain.reserve(n);
  PointR1 cur = to_r1(deterministic_point(seed));
  for (size_t i = 0; i < n; ++i) {
    chain.push_back(cur);
    cur = add(cur, step);
  }
  return batch_to_affine(chain);
}

std::vector<ScalarPoint> chain_terms(size_t n, uint64_t seed, int bits = 256) {
  std::vector<Affine> pts = chain_points(n, seed);
  Rng rng(seed);
  std::vector<ScalarPoint> terms;
  terms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    U256 k = rng.next_u256();
    if (bits < 256) {
      for (int j = bits; j < 256; ++j)
        k.w[static_cast<size_t>(j) / 64] &=
            ~(uint64_t{1} << (static_cast<size_t>(j) % 64));
    }
    terms.push_back({k, pts[i], bits});
  }
  return terms;
}

PointR1 naive_msm(const std::vector<ScalarPoint>& terms) {
  PointR1 acc = identity();
  for (const ScalarPoint& t : terms) {
    if (t.k.is_zero()) continue;
    acc = add(acc, to_r2(scalar_mul(t.k, t.p)));
  }
  return acc;
}

void expect_bitwise(const PointR1& a, const PointR1& b, const char* what) {
  EXPECT_EQ(a.X, b.X) << what;
  EXPECT_EQ(a.Y, b.Y) << what;
  EXPECT_EQ(a.Z, b.Z) << what;
  EXPECT_EQ(a.Ta, b.Ta) << what;
  EXPECT_EQ(a.Tb, b.Tb) << what;
}

void expect_same_point(const PointR1& a, const PointR1& b, const char* what) {
  Affine aa = to_affine(a), bb = to_affine(b);
  EXPECT_TRUE(aa.x == bb.x && aa.y == bb.y) << what;
}

MsmParallelFor thread_pool_hook(unsigned nthreads, std::atomic<size_t>* calls) {
  return [nthreads, calls](size_t n, const std::function<void(size_t)>& fn) {
    if (calls) calls->fetch_add(1);
    std::vector<std::thread> pool;
    std::atomic<size_t> next{0};
    for (unsigned t = 0; t < nthreads; ++t)
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
      });
    for (auto& th : pool) th.join();
  };
}

// Mixed term set with degenerate entries threaded through: zero scalars,
// identity points, and an identity point with a non-zero scalar.
std::vector<ScalarPoint> mixed_terms(size_t n, uint64_t seed) {
  std::vector<ScalarPoint> terms = chain_terms(n, seed);
  Rng rng(seed ^ 0x5eed);
  for (size_t i = 3; i < n; i += 17) terms[i].k = U256();
  for (size_t i = 5; i < n; i += 23) terms[i].p = identity_affine();
  if (n > 7) terms[7] = {rng.next_u256(), identity_affine(), 256};
  return terms;
}

TEST(MsmStream, ChunkSizeIsBitwiseInvariant) {
  const size_t n = 600;
  std::vector<ScalarPoint> terms = mixed_terms(n, 0xc0ffee);
  MsmOptions ref;
  ref.backend = MsmBackend::kPippenger;
  ref.chunk = n;  // one chunk: the non-streaming shape
  PointR1 want = multi_scalar_mul(terms, ref);
  expect_same_point(want, naive_msm(terms), "pippenger vs naive");

  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    MsmOptions opts = ref;
    opts.chunk = chunk;
    MsmStats st;
    opts.stats = &st;
    PointR1 got = multi_scalar_mul(terms, opts);
    expect_bitwise(got, want, "chunked vs single-chunk");
    EXPECT_EQ(st.chunks, (n + chunk - 1) / chunk) << "chunk=" << chunk;
  }
}

TEST(MsmStream, StreamEntryMatchesVectorEntry) {
  const size_t n = 500;
  std::vector<ScalarPoint> terms = mixed_terms(n, 0xbeef);
  MsmOptions opts;
  opts.backend = MsmBackend::kPippenger;
  opts.window = 8;  // pin: the stream entry sizes its model from the hint
  PointR1 want = multi_scalar_mul(terms, opts);

  // A source that delivers ragged slices (never a full chunk) — the result
  // must not care how the pulls were sized.
  size_t pos = 0, pulls = 0;
  MsmTermSource src = [&](ScalarPoint* out, size_t max) -> size_t {
    size_t want_n = 1 + (pulls * 13) % 97;
    ++pulls;
    size_t give = std::min(std::min(want_n, max), terms.size() - pos);
    for (size_t i = 0; i < give; ++i) out[i] = terms[pos + i];
    pos += give;
    return give;
  };
  MsmStats st;
  opts.stats = &st;
  PointR1 got = multi_scalar_mul_stream(src, n, opts);
  expect_bitwise(got, want, "stream source vs vector");
  EXPECT_GT(st.chunks, 1u);
  size_t live = 0;
  for (const ScalarPoint& t : terms) live += t.k.is_zero() ? 0 : 1;
  EXPECT_EQ(st.terms, live);
  EXPECT_EQ(st.sub_terms, st.terms);
}

TEST(MsmStream, BucketGridIsThreadCountInvariantAt2p16) {
  // 2^16 half-length terms: the scale the bucket-segment grid exists for.
  // The projective result — not just the point — must be identical across
  // serial execution and pools of different widths.
  const size_t n = size_t{1} << 16;
  std::vector<ScalarPoint> terms = chain_terms(n, 0x160, 128);
  MsmOptions serial;
  serial.backend = MsmBackend::kPippenger;
  MsmStats st;
  serial.stats = &st;
  PointR1 want = multi_scalar_mul(terms, serial);
  EXPECT_GT(st.segments, 1) << "grid should be segmented at this scale";
  EXPECT_GT(st.chunks, 1u) << "2^16 terms should stream in several chunks";

  for (unsigned nthreads : {2u, 7u}) {
    std::atomic<size_t> calls{0};
    MsmOptions par = serial;
    par.stats = nullptr;
    par.parallel = thread_pool_hook(nthreads, &calls);
    PointR1 got = multi_scalar_mul(terms, par);
    EXPECT_GT(calls.load(), 0u);
    expect_bitwise(got, want, "pool vs serial");
  }

  // The batch-verify shape (every other scalar 128-bit) at c <= 6: each
  // insertion cell spans several windows and the fold runs as more than
  // one lane group of chains.
  std::vector<ScalarPoint> verify = chain_terms(64, 0x64);
  for (size_t i = 0; i < verify.size(); i += 2) {
    verify[i].k.w[2] = verify[i].k.w[3] = 0;
    verify[i].bits = 128;
  }
  const PointR1 want_small = multi_scalar_mul(verify, serial);
  EXPECT_LE(st.window, 6);
  for (unsigned nthreads : {1u, 2u, 8u}) {
    std::atomic<size_t> calls{0};
    MsmOptions par = serial;
    par.stats = nullptr;
    par.parallel = thread_pool_hook(nthreads, &calls);
    expect_bitwise(multi_scalar_mul(verify, par), want_small, "verify shape: pool vs serial");
    EXPECT_GT(calls.load(), 0u) << nthreads << " workers";
  }
}

TEST(MsmStream, PlantedZeroAndIdentityTermsAtScale) {
  // 20000 terms, ~97% degenerate (zero scalar or identity point): the
  // bucket pipeline must skip them without perturbing the live sum, across
  // a non-trivial number of chunks.
  const size_t n = 20000;
  std::vector<ScalarPoint> terms = chain_terms(n, 0xdead, 256);
  std::vector<ScalarPoint> live;
  for (size_t i = 0; i < n; ++i) {
    if (i % 40 == 0) {
      live.push_back(terms[i]);
      continue;
    }
    if (i % 2)
      terms[i].k = U256();
    else
      terms[i].p = identity_affine();
  }
  MsmOptions opts;
  opts.chunk = 512;
  MsmStats st;
  opts.stats = &st;
  PointR1 got = multi_scalar_mul(terms, opts);
  EXPECT_EQ(st.backend, MsmBackend::kPippenger);
  EXPECT_EQ(st.chunks, (n + 511) / 512);
  // Odd indices were zeroed (not live); identity-point terms keep their
  // non-zero scalars and stay live.
  EXPECT_EQ(st.terms, n / 2);
  expect_same_point(got, naive_msm(live), "sparse sweep vs naive live sum");
}

TEST(MsmStream, PeakMemoryTracksChunkNotTermCount) {
  // Same window (so the bucket grid is fixed): the accounted peak must
  // grow with the chunk size, and must NOT grow with n at a fixed chunk.
  auto run = [](size_t n, size_t chunk) {
    std::vector<ScalarPoint> terms = chain_terms(n, 0x3e3, 128);
    MsmOptions opts;
    opts.backend = MsmBackend::kPippenger;
    opts.window = 10;
    opts.chunk = chunk;
    MsmStats st;
    opts.stats = &st;
    (void)multi_scalar_mul(terms, opts);
    return st;
  };
  MsmStats small_chunk = run(8192, 512);
  MsmStats big_chunk = run(8192, 8192);
  EXPECT_EQ(small_chunk.chunks, 16u);
  EXPECT_EQ(big_chunk.chunks, 1u);
  EXPECT_LT(small_chunk.peak_bytes, big_chunk.peak_bytes);

  MsmStats more_terms = run(16384, 512);
  EXPECT_EQ(more_terms.peak_bytes, small_chunk.peak_bytes)
      << "peak is O(buckets + chunk), independent of n";
}

TEST(MsmStream, SmallVectorMsmStagesOnlyItsTerms) {
  // With the default chunk, a vector MSM stages at most its own term
  // count: a 64-term (batch-verify sized) call must not allocate and clear
  // staging for a full 16384-term chunk, and capping the chunk never
  // changes the result bits.
  const std::vector<ScalarPoint> terms = chain_terms(64, 0x64);
  MsmOptions def;
  MsmStats st;
  def.stats = &st;
  const PointR1 got = multi_scalar_mul(terms, def);
  EXPECT_EQ(st.backend, MsmBackend::kPippenger);
  EXPECT_EQ(st.chunks, 1u);
  EXPECT_LT(st.peak_bytes, size_t{1} << 20);

  MsmOptions full = def;
  MsmStats st_full;
  full.stats = &st_full;
  full.chunk = 16384;
  expect_bitwise(got, multi_scalar_mul(terms, full), "capped chunk vs chunk = 16384");
  EXPECT_GT(st_full.peak_bytes, st.peak_bytes);
}

TEST(MsmStream, LaneWavesOffMatchesBitwise) {
  const size_t n = 500;
  std::vector<ScalarPoint> terms = chain_terms(n, 0x1a9e5);
  MsmOptions on;
  on.backend = MsmBackend::kPippenger;
  MsmStats st_on;
  on.stats = &st_on;
  PointR1 want = multi_scalar_mul(terms, on);
  EXPECT_GT(st_on.bucket_waves, 0u);

  MsmOptions off = on;
  MsmStats st_off;
  off.stats = &st_off;
  off.lanes = false;
  PointR1 got = multi_scalar_mul(terms, off);
  EXPECT_EQ(st_off.bucket_waves, 0u);
  expect_bitwise(got, want, "scalar adds vs lane waves");

  // Lanes on (wave insertion, plus the lane fold on a vector kernel table)
  // against the scalar reference at every window the cost model can pick:
  // 128-bit, 256-bit and half-zero scalar sets, from one term (all but a
  // few chains empty) to 500 (dense windows; below c = 7 each insertion
  // cell spans several windows).
  for (size_t count : {size_t{1}, size_t{17}, size_t{64}, size_t{500}}) {
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<ScalarPoint> set = chain_terms(count, 0x1a9e5 + count, kind == 0 ? 128 : 256);
      if (kind == 2)
        for (size_t i = 1; i < count; i += 2) set[i].k = U256();
      for (int window = 2; window <= 13; ++window) {
        SCOPED_TRACE("n=" + std::to_string(count) + " kind=" + std::to_string(kind) +
                     " window=" + std::to_string(window));
        MsmOptions lanes_on;
        lanes_on.backend = MsmBackend::kPippenger;
        lanes_on.window = window;
        MsmOptions lanes_off = lanes_on;
        lanes_off.lanes = false;
        expect_bitwise(multi_scalar_mul(set, lanes_on), multi_scalar_mul(set, lanes_off),
                       "lanes on vs lanes off");
      }
    }
  }
}

TEST(MsmStream, SegmentOverrideKeepsTheSum) {
  // The segment count follows the window width. Different segment counts
  // change the fold tree (so projective coordinates differ) but never the
  // point. nseg = 1 is the classic single S/T chain.
  const size_t n = 400;
  std::vector<ScalarPoint> terms = chain_terms(n, 0x5e9);
  MsmOptions base;
  base.backend = MsmBackend::kPippenger;
  base.window = 9;
  MsmStats st;
  base.stats = &st;
  PointR1 want = multi_scalar_mul(terms, base);
  EXPECT_EQ(st.segments, 4);
  const std::pair<int, int> window_segments[] = {{7, 1}, {8, 2}, {11, 16}};
  for (const auto& [window, nseg] : window_segments) {
    MsmOptions opts = base;
    opts.window = window;
    expect_same_point(multi_scalar_mul(terms, opts), want, "segment count");
    EXPECT_EQ(st.segments, nseg) << "window=" << window;
  }
}

}  // namespace
}  // namespace fourq::curve

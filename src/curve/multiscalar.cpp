#include "curve/multiscalar.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "curve/scalarmul.hpp"
#include "field/fp_lanes.hpp"
#include "obs/obs.hpp"

namespace fourq::curve {

namespace {

// Auto-selection crossovers, calibrated with bench/bench_msm.cpp's
// batch-verify-shape sweep (see docs/ARCHITECTURE.md §9 for the measured
// curve): Straus's per-term cost is flat while Pippenger's falls like
// 1/log n once the windows are dense enough to amortise bucket aggregation.
// On a vector kernel table (Kernels::group > 1) the lane fold cuts
// Pippenger's fixed fold cost, and the crossover drops from 40 to 12 terms.
constexpr size_t kPippengerMinTerms = 40;
constexpr size_t kPippengerMinTermsLaneFold = 12;

// Streaming chunk default: large enough that staging (normalise + digit
// decompose) amortises, small enough that the staged arrays stay a few MB —
// the whole point of streaming is peak memory O(buckets + chunk), not O(n).
constexpr size_t kMsmDefaultChunk = 16384;

// Most windows any digit expansion can need: c = 2 over 256-bit scalars.
constexpr int kMaxWindows = 256 / 2 + 2;

// Effective bit length of a term, derived from the scalar itself — terms
// are never padded to a common width. The caller's declared bound is only
// validated (a scalar exceeding its hint is a caller bug, not a scheduling
// decision).
int effective_bits(const ScalarPoint& t) {
  int top = t.k.top_bit();
  FOURQ_CHECK_MSG(top < t.bits, "scalar exceeds its declared bit-length hint");
  return std::max(top + 1, 1);
}

void run_tasks(const MsmParallelFor& par, size_t n,
               const std::function<void(size_t)>& fn) {
  if (par && n > 1) {
    par(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

// ---------------------------------------------------------------------------
// Straus: interleaved wNAF with one shared doubling chain. Per-point tables
// of odd multiples are built in R1, then normalised to affine R2 in one
// batched inversion so the main loop runs entirely on mixed additions.

int straus_width_for(size_t n_terms) {
  // Per-term cost model (in field mults): table 2^(w-2) full additions +
  // ~257/(w+1) mixed additions for the digit hits. w = 4 and 5 are within
  // noise of each other per term; wider tables only pay off once the digit
  // savings are multiplied across many terms.
  if (n_terms <= 4) return 4;
  return 5;
}

PointR1 msm_straus(const std::vector<ScalarPoint>& terms, int width) {
  FOURQ_CHECK(width >= 2 && width <= 7);
  const size_t tsize = size_t{1} << (width - 1);  // odd multiples 1,3,5,...

  struct Prepared {
    size_t table_off = 0;
    std::vector<int8_t> naf;
  };
  std::vector<Prepared> prep;
  std::vector<PointR1> tables_r1;  // all tables, flattened
  size_t max_len = 0;
  for (const ScalarPoint& t : terms) {
    if (t.k.is_zero()) continue;
    Prepared pr;
    pr.table_off = tables_r1.size();
    PointR1 p1 = to_r1(t.p);
    PointR2 two_p = to_r2(dbl(p1));
    tables_r1.push_back(p1);
    for (size_t j = 1; j < tsize; ++j)
      tables_r1.push_back(add(tables_r1.back(), two_p));
    pr.naf = wnaf(t.k, width);
    max_len = std::max(max_len, pr.naf.size());
    prep.push_back(std::move(pr));
  }
  if (prep.empty()) return identity();

  // One inversion for every entry of every table.
  std::vector<PointR2Aff> tables = batch_to_r2aff(tables_r1);

  PointR1 q = identity();
  for (size_t iu = max_len; iu-- > 0;) {
    q = dbl(q);
    for (const Prepared& pr : prep) {
      if (iu >= pr.naf.size()) continue;
      int d = pr.naf[iu];
      if (d == 0) continue;
      const PointR2Aff& entry =
          tables[pr.table_off + static_cast<size_t>(std::abs(d) / 2)];
      q = add_mixed(q, d > 0 ? entry : neg_r2aff(entry));
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// Pippenger: streaming signed-window bucket accumulation.
//
// Terms are consumed in chunks. Per chunk: normalise the points, decompose
// the scalars into signed base-2^c digits and route each non-zero digit to
// the pending list of its insertion cell (a bucket segment of one window,
// or several whole narrow windows); then every cell drains its own list
// into its disjoint bucket range. Buckets persist across chunks, so peak
// memory is O(buckets + chunk) while per-bucket insertion order — and
// therefore the result, bit for bit — depends only on the global term
// order, not on the chunk size or on which thread ran which cell (staging
// is single-threaded and lists are drained in list order).

// Bits [pos, pos + c) of k (zero beyond bit 255).
uint64_t window_bits(const U256& k, int pos, int c) {
  if (pos >= 256) return 0;
  const int limb = pos >> 6, off = pos & 63;
  uint64_t v = k.w[static_cast<size_t>(limb)] >> off;
  if (off + c > 64 && limb + 1 < 4) v |= k.w[static_cast<size_t>(limb) + 1] << (64 - off);
  return v & ((uint64_t{1} << c) - 1);
}

// Signed base-2^c digits of k, LSB first: d_j in [-2^(c-1), 2^(c-1)],
// sum_j d_j 2^(cj) == k. Writes exactly nwin digits; nwin must cover
// bits(k)/c plus one carry window.
void signed_window_digits(const U256& k, int c, int nwin, int16_t* out) {
  const int64_t half = int64_t{1} << (c - 1);
  int64_t carry = 0;
  for (int j = 0; j < nwin; ++j) {
    int64_t d = static_cast<int64_t>(window_bits(k, j * c, c)) + carry;
    carry = 0;
    if (d > half) {
      d -= int64_t{1} << c;
      carry = 1;
    }
    out[j] = static_cast<int16_t>(d);
  }
  FOURQ_CHECK_MSG(carry == 0, "window digit carry must be absorbed");
}

// Resolved Pippenger shape. Everything here is fixed before the first chunk
// and is a pure function of the options and the term-set summary — never of
// the chunking or the thread count (that is what makes the result bitwise
// invariant to both).
struct PipConfig {
  int c = 0;            // window width (bits)
  int nwin = 0;         // digit windows
  int nseg = 1;         // bucket segments per window (power of two)
  int seg_log = 0;      // log2(seg_len)
  int cell_log = 0;     // log2(cell_len), for the staging-time cell map
  size_t half = 0;      // buckets per window, 2^(c-1)
  size_t seg_len = 0;   // buckets per segment (fold chain), half / nseg
  size_t cell_len = 0;  // buckets per insertion cell, max(seg_len, 64)
  size_t chunk = 0;     // input terms staged per chunk
  bool lanes = true;    // lane-kernel insertion waves and fold
};

// Smallest insertion cell, in buckets. Windows narrower than this (c <= 6)
// share one cell between 64 / 2^(c-1) consecutive windows, so a cell's
// pending list spans enough distinct buckets to fill 16-lane waves.
constexpr size_t kMinCellBuckets = 64;

// Segment count: wide enough to feed a worker pool (the fold runs nwin *
// nseg chains), derived from the window width alone so the fold shape is
// thread-count-invariant. Power of two, so the segment-offset multiples in
// the fold reduce to doublings.
int segments_for(size_t half) {
  if (half <= 64) return 1;
  return static_cast<int>(std::min<size_t>(16, half / 64));
}

double pip_cost_model(size_t live, size_t total_bits, int max_bits, int c) {
  // Predicted cost in field mults: mixed-add bucket insertions (7M each),
  // bucket folding, and the inter-window doubling chain (7M per doubling).
  // The fold's S chain adds once per occupied bucket (capped by the live
  // term count), but its T chain walks every bucket level below the top
  // occupied one — with random scalars that is essentially all 2^(c-1)
  // levels, which is what stops the window from growing past the point
  // where empty-level walking dominates.
  double nwin = static_cast<double>((max_bits + c - 1) / c + 1);
  double insert = (static_cast<double>(total_bits) / c + static_cast<double>(live)) * 7.0;
  double buckets = static_cast<double>(size_t{1} << (c - 1));
  double fold = nwin * (std::min(static_cast<double>(live), buckets) + buckets) * 10.0;
  double dbls = nwin * c * 7.0;
  return insert + fold + dbls;
}

// Window width minimising the predicted cost for n_terms live terms
// carrying total_bits scalar bits, none longer than max_bits.
int choose_window(size_t n_terms, size_t total_bits, int max_bits) {
  if (n_terms == 0) return 2;
  int best_c = 2;
  double best = 1e300;
  for (int c = 2; c <= 13; ++c) {
    double cost = pip_cost_model(n_terms, total_bits, max_bits, c);
    if (cost < best) {
      best = cost;
      best_c = c;
    }
  }
  return best_c;
}

// Micro-laned bucket insertion: up to 16 add_mixed operations into
// *distinct* buckets execute as one wave through the fused lane kernel
// (field/fp_lanes.hpp pt_addmix), the 7M + 7A mixed-addition formula
// applied coordinate-wise across SoA arrays. Two vector groups per wave
// give the out-of-order core independent dependency chains to interleave
// and halve the per-wave scheduling cost. Per-bucket insertion order is
// preserved (an insertion whose bucket is already claimed by the current
// wave waits for the next one), so the bucket contents — and therefore the
// window sum — are bitwise identical to the sequential loop.
constexpr size_t kBucketLanes = 16;

struct BucketIns {
  uint32_t term;    // staged term index
  uint16_t bucket;  // cell-local bucket index (cell_len <= 2^10 at c <= 15)
  bool negate;
};

// Per-chunk staged state + persistent buckets for one streaming run.
struct StreamCtx {
  PipConfig cfg;
  MsmParallelFor par;

  // Persistent across chunks: the bucket grid.
  std::vector<PointR1> bkt_r1;
  std::vector<uint8_t> used;

  // Chunk staging, reused every chunk. Bucket insertions are routed to
  // their insertion cell while the digits are decomposed, so the insertion
  // phase touches exactly the work addressed to it — no cell ever rescans
  // another cell's digits.
  std::vector<ScalarPoint> raw;
  std::vector<Affine> pts;
  std::vector<PointR2Aff> base;
  std::vector<std::vector<BucketIns>> cell_pending;
  // SoA scratch for the lane-batched base-table build (see build_base):
  // sx/sy carry the split x/y coordinates, c2 the broadcast 2d constant.
  std::vector<u128> sx_re, sx_im, sy_re, sy_im, c2_re, c2_im;
  size_t pend_bytes = 0;  // cell_pending capacity currently metered

  MsmStats st;
  size_t mem_cur = 0, mem_peak = 0;
  std::atomic<uint64_t> waves{0};

  void mem_add(size_t b) {
    mem_cur += b;
    mem_peak = std::max(mem_peak, mem_cur);
  }
  void mem_sub(size_t b) { mem_cur -= b; }
};

void apply_bucket_wave(PointR1* buckets, const PointR2Aff* base,
                       const BucketIns* ins, size_t n) {
  namespace lk = field::lanes;
  constexpr size_t W = kBucketLanes;
  // SoA marshalling: p = bucket (R1, updated in place), q = table entry
  // (normalised R2). One split per coordinate; the fused kernel keeps the
  // whole formula in the limb domain between them.
  u128 P[10][W], Q[6][W];
  for (size_t l = 0; l < n; ++l) {
    const PointR1& p = buckets[ins[l].bucket];
    lk::split(p.X, P[0][l], P[1][l]);
    lk::split(p.Y, P[2][l], P[3][l]);
    lk::split(p.Z, P[4][l], P[5][l]);
    lk::split(p.Ta, P[6][l], P[7][l]);
    lk::split(p.Tb, P[8][l], P[9][l]);
    // Negation in place of the 96-byte neg_r2aff temp: -Q swaps the x+y /
    // y-x coordinates and negates 2dT.
    const PointR2Aff& q = base[ins[l].term];
    if (ins[l].negate) {
      lk::split(q.ymx, Q[0][l], Q[1][l]);
      lk::split(q.xpy, Q[2][l], Q[3][l]);
      lk::split(Fp2() - q.dt2, Q[4][l], Q[5][l]);
    } else {
      lk::split(q.xpy, Q[0][l], Q[1][l]);
      lk::split(q.ymx, Q[2][l], Q[3][l]);
      lk::split(q.dt2, Q[4][l], Q[5][l]);
    }
  }
  // Pad a tail wave to the kernel's vector group size with copies of lane
  // 0 (any valid lane data works) so no lane falls back to the per-lane
  // generic loop; the padded outputs are simply never joined back.
  size_t padded = n;
  if (const size_t g = static_cast<size_t>(lk::active().group); g > 1) {
    padded = (n + g - 1) / g * g;
    for (size_t l = n; l < padded; ++l) {
      for (int k = 0; k < 10; ++k) P[k][l] = P[k][0];
      for (int k = 0; k < 6; ++k) Q[k][l] = Q[k][0];
    }
  }
  u128* pp[10];
  const u128* qq[6];
  for (int k = 0; k < 10; ++k) pp[k] = P[k];
  for (int k = 0; k < 6; ++k) qq[k] = Q[k];
  lk::active().pt_addmix(pp, qq, padded);
  for (size_t l = 0; l < n; ++l) {
    PointR1& p = buckets[ins[l].bucket];
    p.X = lk::join_unchecked(P[0][l], P[1][l]);
    p.Y = lk::join_unchecked(P[2][l], P[3][l]);
    p.Z = lk::join_unchecked(P[4][l], P[5][l]);
    p.Ta = lk::join_unchecked(P[6][l], P[7][l]);
    p.Tb = lk::join_unchecked(P[8][l], P[9][l]);
  }
}

// Drain one cell's pending insertions into R1 buckets: waves of distinct
// buckets through the fused lane kernel, or plain mixed adds when disabled
// or too few to fill lanes.
//
// Wave formation is pass-compaction: sweep the list in order, packing
// entries into 8-wide waves; an entry whose bucket is claimed by the
// in-flight wave — or by an earlier entry already deferred this pass —
// moves to the next pass's list. The sticky per-pass defer bit is what
// keeps per-bucket FIFO order (a later same-bucket entry can never jump
// an earlier deferred one), and each entry is visited O(passes) times
// instead of the quadratic rescan a claim-from-the-front scheduler pays.
void drain_r1(StreamCtx& S, PointR1* buckets, std::vector<BucketIns>& pending) {
  const PointR2Aff* base = S.base.data();
  if (!S.cfg.lanes || pending.size() < kBucketLanes) {
    for (const BucketIns& ins : pending)
      buckets[ins.bucket] = add_mixed(
          buckets[ins.bucket],
          ins.negate ? neg_r2aff(base[ins.term]) : base[ins.term]);
    return;
  }
  std::vector<uint8_t> wave_claim(S.cfg.cell_len, 0), pass_defer(S.cfg.cell_len, 0);
  std::vector<BucketIns> defer_a, defer_b;
  uint64_t waves = 0;
  BucketIns wave[kBucketLanes];
  size_t lanes = 0;
  auto flush = [&] {
    apply_bucket_wave(buckets, base, wave, lanes);
    for (size_t l = 0; l < lanes; ++l) wave_claim[wave[l].bucket] = 0;
    lanes = 0;
    ++waves;
  };
  // The pending list streams sequentially (hardware prefetch covers it)
  // but each entry dereferences a random bucket (160 B) and base entry
  // (96 B) across a multi-MB grid — those misses dominate the wave path
  // at zk scale, so issue software prefetches about two waves ahead of
  // the sweep cursor (a lookahead inside the wave being formed lands too
  // late — the flush consumes it within a few hundred cycles).
  constexpr size_t kPrefetchAhead = 2 * kBucketLanes;
  const std::vector<BucketIns>* cur = &pending;
  std::vector<BucketIns>* next = &defer_a;
  while (!cur->empty()) {
    next->clear();
    const BucketIns* arr = cur->data();
    const size_t cn = cur->size();
    for (size_t i = 0; i < cn; ++i) {
      if (i + kPrefetchAhead < cn) {
        const BucketIns& pf = arr[i + kPrefetchAhead];
        const char* bp = reinterpret_cast<const char*>(&buckets[pf.bucket]);
        __builtin_prefetch(bp, 1);
        __builtin_prefetch(bp + 64, 1);
        __builtin_prefetch(bp + 128, 1);
        const char* qp = reinterpret_cast<const char*>(&base[pf.term]);
        __builtin_prefetch(qp, 0);
        __builtin_prefetch(qp + 64, 0);
      }
      const BucketIns& ins = arr[i];
      if (pass_defer[ins.bucket] || wave_claim[ins.bucket]) {
        pass_defer[ins.bucket] = 1;
        next->push_back(ins);
        continue;
      }
      wave_claim[ins.bucket] = 1;
      wave[lanes++] = ins;
      if (lanes == kBucketLanes) flush();
    }
    if (lanes) flush();
    for (const BucketIns& ins : *next) pass_defer[ins.bucket] = 0;
    cur = next;
    next = (next == &defer_a) ? &defer_b : &defer_a;
  }
  S.waves.fetch_add(waves, std::memory_order_relaxed);
}

// One insertion cell: the cell_len consecutive buckets of the grid from
// cell * cell_len on — one bucket segment of one window when c >= 7,
// 64 / 2^(c-1) whole windows below. Drains the pending list staging
// addressed to this cell, in global term order. Cells own disjoint bucket
// ranges, so any parallel schedule over cells computes identical bucket
// contents. First hits seed the bucket with the (possibly negated) affine
// input itself; the rest compact in place into the true addition list.
void insert_cell(StreamCtx& S, size_t cell) {
  std::vector<BucketIns>& list = S.cell_pending[cell];
  if (list.empty()) return;
  uint8_t* wu = &S.used[cell * S.cfg.cell_len];
  PointR1* wr1 = &S.bkt_r1[cell * S.cfg.cell_len];
  size_t w = 0;
  for (const BucketIns& ins : list) {
    if (!wu[ins.bucket]) {
      const Affine& p = S.pts[ins.term];
      wr1[ins.bucket] = to_r1(ins.negate ? neg(p) : p);
      wu[ins.bucket] = 1;
    } else {
      list[w++] = ins;
    }
  }
  list.resize(w);
  if (w) drain_r1(S, wr1, list);
  list.clear();  // keeps capacity for the next chunk
}

// Build the normalised-R2 base table for the staged points [0, m):
// per point xpy = x + y, ymx = y - x, dt2 = (x*y)*2d. The two F_{p^2}
// products run through the lane kernels over the whole chunk (the adds
// stay scalar — they are a fraction of a mul); bitwise-equal to per-term
// to_r2aff by the kernels' canonical-output contract.
void build_base(StreamCtx& S, size_t m) {
  namespace lk = field::lanes;
  if (!S.cfg.lanes || m < kBucketLanes) {
    for (size_t i = 0; i < m; ++i) S.base[i] = to_r2aff(S.pts[i]);
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    lk::split(S.pts[i].x, S.sx_re[i], S.sx_im[i]);
    lk::split(S.pts[i].y, S.sy_re[i], S.sy_im[i]);
  }
  const lk::Kernels& k = lk::active();
  k.fp2_mul(S.sx_re.data(), S.sx_im.data(), S.sy_re.data(), S.sy_im.data(),
            S.sx_re.data(), S.sx_im.data(), m);  // t = x*y (in place)
  k.fp2_mul(S.sx_re.data(), S.sx_im.data(), S.c2_re.data(), S.c2_im.data(),
            S.sx_re.data(), S.sx_im.data(), m);  // dt2 = t*2d
  for (size_t i = 0; i < m; ++i) {
    const Affine& p = S.pts[i];
    S.base[i] = PointR2Aff{p.x + p.y, p.y - p.x,
                           lk::join_unchecked(S.sx_re[i], S.sx_im[i])};
  }
}

// Stage one chunk: filter zero scalars, normalise the points, and route
// every non-zero digit to its insertion cell's pending list.
// Returns the staged term count. Staging is single-threaded and runs in
// term order, so each cell's list is in global term order and
// concatenating chunks reproduces it exactly — the invariant every
// bitwise-equality guarantee rests on. Short scalars stage only the
// windows they populate.
size_t stage_chunk(StreamCtx& S, size_t r_n) {
  const PipConfig& cfg = S.cfg;
  int16_t tmp[kMaxWindows];
  size_t m = 0;
  for (size_t i = 0; i < r_n; ++i) {
    const ScalarPoint& t = S.raw[i];
    if (t.k.is_zero()) continue;
    const int nw = (effective_bits(t) + cfg.c - 1) / cfg.c + 1;
    FOURQ_CHECK(nw <= cfg.nwin && nw <= kMaxWindows);
    ++S.st.terms;
    S.pts[m] = t.p;  // base[m] is built for the whole chunk by build_base
    signed_window_digits(t.k, cfg.c, nw, tmp);
    for (int j = 0; j < nw; ++j) {
      const int d = tmp[j];
      if (d == 0) continue;
      const size_t g = static_cast<size_t>(j) * cfg.half +
                       static_cast<size_t>(d < 0 ? -d : d) - 1;
      S.cell_pending[g >> cfg.cell_log].push_back(
          BucketIns{static_cast<uint32_t>(m),
                    static_cast<uint16_t>(g & (cfg.cell_len - 1)), d < 0});
    }
    ++m;
  }
  build_base(S, m);
  return m;
}

// Per-chain fold results. Chain j * nseg + s folds segment s of window j:
// buckets [chain * seg_len, (chain + 1) * seg_len) of the grid.
struct FoldOut {
  std::vector<PointR1> seg_t, seg_s;
  std::vector<uint8_t> t_any, s_any;
};

// Scalar fold of one chain: the classic descending S/T chains over its
// bucket range. The reference the lane fold must match bit for bit.
void fold_chain(const StreamCtx& S, size_t chain, FoldOut& out) {
  const size_t len = S.cfg.seg_len, lo = chain * len;
  PointR1 sp{}, tp{};
  bool sa = false, ta = false;
  for (size_t b = len; b-- > 0;) {
    const size_t g = lo + b;
    if (S.used[g]) {
      sp = sa ? add(sp, to_r2(S.bkt_r1[g])) : S.bkt_r1[g];
      sa = true;
    }
    if (!sa) continue;  // no buckets at or above this level yet
    tp = ta ? add(tp, to_r2(sp)) : sp;
    ta = true;
  }
  if (ta) out.seg_t[chain] = tp;
  if (sa) out.seg_s[chain] = sp;
  out.t_any[chain] = ta;
  out.s_any[chain] = sa;
}

// ---------------------------------------------------------------------------
// Lane-parallel fold. The chains of a fold group all advance one bucket
// level per step, and each step's S and T additions run as one SoA pass
// over the group through the active lane kernels. LaneCol is the field type
// that makes that pass point.hpp's own formulas: one F_{p^2} value per
// chain, held as split re/im columns of a FoldArena, whose +, - and * run
// fp2_add, fp2_sub and fp2_mul over the whole column (the way trace::Fp2Var
// runs the same templates to record a trace).

// Whether the lane fold runs: only on a vector kernel table, since on avx2
// and generic (group 1) the composed lane formulas do not beat the scalar
// adds. The Straus/Pippenger crossover follows the same test.
bool lane_fold(bool lanes) { return lanes && field::lanes::active().group > 1; }

// Chains per fold group: the parallel grain of the lane fold.
constexpr size_t kFoldGroup = 64;

// Arena columns: the 2d constant, the S, T and gathered-bucket points (5
// each), and the temporaries of one add(p, to_r2(q)) — 5 in to_r2, 14 in
// add.
constexpr size_t kFoldColumns = 1 + 3 * 5 + 5 + 14;

struct FoldArena;

struct LaneCol {
  FoldArena* arena;
  u128* re;
  u128* im;
};

// Bump allocator of n-lane columns, n a multiple of the kernel group so no
// call leaves the vector path. Formula temporaries come off the top and are
// released together by rewinding to a mark. Columns start zeroed and are
// only ever written by kernels or copies of canonical values, so every lane
// — padding and skipped chains included — holds a canonical element.
struct FoldArena {
  const field::lanes::Kernels& k;
  size_t n, cap, top = 0;
  std::vector<u128> buf;

  FoldArena(const field::lanes::Kernels& kern, size_t lanes, size_t columns)
      : k(kern), n(lanes), cap(columns), buf(2 * lanes * columns) {}
  LaneCol col() {
    FOURQ_CHECK_MSG(top < cap, "fold arena exhausted");
    u128* p = buf.data() + 2 * n * top++;
    return LaneCol{this, p, p + n};
  }
};

LaneCol lane_op(decltype(field::lanes::Kernels::fp2_mul) kernel, const LaneCol& a,
                const LaneCol& b) {
  const LaneCol r = a.arena->col();
  kernel(a.re, a.im, b.re, b.im, r.re, r.im, a.arena->n);
  return r;
}
LaneCol operator+(const LaneCol& a, const LaneCol& b) { return lane_op(a.arena->k.fp2_add, a, b); }
LaneCol operator-(const LaneCol& a, const LaneCol& b) { return lane_op(a.arena->k.fp2_sub, a, b); }
LaneCol operator*(const LaneCol& a, const LaneCol& b) { return lane_op(a.arena->k.fp2_mul, a, b); }

using LanePoint = R1T<LaneCol>;
constexpr LaneCol LanePoint::*kLaneCoords[] = {&LanePoint::X, &LanePoint::Y, &LanePoint::Z,
                                               &LanePoint::Ta, &LanePoint::Tb};
constexpr Fp2 PointR1::*kCoords[] = {&PointR1::X, &PointR1::Y, &PointR1::Z, &PointR1::Ta,
                                     &PointR1::Tb};

LanePoint lane_point(FoldArena& A) { return {A.col(), A.col(), A.col(), A.col(), A.col()}; }

void put_lane(const LanePoint& d, size_t i, const PointR1& v) {
  for (int c = 0; c < 5; ++c)
    field::lanes::split(v.*kCoords[c], (d.*kLaneCoords[c]).re[i], (d.*kLaneCoords[c]).im[i]);
}

PointR1 get_lane(const LanePoint& s, size_t i) {
  PointR1 v;
  for (int c = 0; c < 5; ++c)
    v.*kCoords[c] =
        field::lanes::join_unchecked((s.*kLaneCoords[c]).re[i], (s.*kLaneCoords[c]).im[i]);
  return v;
}

void copy_lane(const LanePoint& d, const LanePoint& s, size_t i) {
  for (int c = 0; c < 5; ++c) {
    (d.*kLaneCoords[c]).re[i] = (s.*kLaneCoords[c]).re[i];
    (d.*kLaneCoords[c]).im[i] = (s.*kLaneCoords[c]).im[i];
  }
}

size_t fold_lanes_for(size_t count) {
  const size_t g = static_cast<size_t>(field::lanes::active().group);
  return (count + g - 1) / g * g;
}

// Working memory of one fold group: its arena plus three flags per chain.
size_t fold_scratch_bytes(size_t count) {
  return 2 * fold_lanes_for(count) * kFoldColumns * sizeof(u128) + 3 * count;
}

// Folds chains [first, first + count) as one lane group; each chain's
// result is bitwise fold_chain's. Every lane computes every step's
// additions, and per-lane selects replay the scalar chain's control flow:
// an addition is kept only where fold_chain performs it, a chain's first
// occupied bucket is copied into S instead of added, and an unused bucket
// leaves S untouched.
void fold_lanes(const StreamCtx& S, size_t first, size_t count, FoldOut& out) {
  FoldArena A(field::lanes::active(), fold_lanes_for(count), kFoldColumns);
  const LaneCol two_d = A.col();
  for (size_t i = 0; i < A.n; ++i) field::lanes::split(curve_2d(), two_d.re[i], two_d.im[i]);
  const LanePoint sp = lane_point(A), tp = lane_point(A), bk = lane_point(A);
  const size_t mark = A.top;
  std::vector<uint8_t> hit(count), sa(count, 0), ta(count, 0);
  const size_t len = S.cfg.seg_len;
  for (size_t b = len; b-- > 0;) {
    bool s_add = false;
    for (size_t i = 0; i < count; ++i) {
      const size_t g = (first + i) * len + b;
      hit[i] = S.used[g];
      if (!hit[i]) continue;
      put_lane(bk, i, S.bkt_r1[g]);
      s_add |= sa[i] != 0;
    }
    if (s_add) {
      const LanePoint r = add(sp, to_r2(bk, two_d));
      for (size_t i = 0; i < count; ++i)
        if (hit[i] && sa[i]) copy_lane(sp, r, i);
      A.top = mark;
    }
    bool t_add = false;
    for (size_t i = 0; i < count; ++i) {
      if (hit[i] && !sa[i]) {  // first hit: S starts at this bucket
        copy_lane(sp, bk, i);
        sa[i] = 1;
      }
      t_add |= ta[i] != 0;
    }
    if (t_add) {
      const LanePoint r = add(tp, to_r2(sp, two_d));
      for (size_t i = 0; i < count; ++i)
        if (ta[i]) copy_lane(tp, r, i);
      A.top = mark;
    }
    for (size_t i = 0; i < count; ++i) {
      if (sa[i] && !ta[i]) {  // T starts at S's first non-empty level
        copy_lane(tp, sp, i);
        ta[i] = 1;
      }
    }
  }
  for (size_t i = 0; i < count; ++i) {
    const size_t chain = first + i;
    if (ta[i]) out.seg_t[chain] = get_lane(tp, i);
    if (sa[i]) out.seg_s[chain] = get_lane(sp, i);
    out.t_any[chain] = ta[i];
    out.s_any[chain] = sa[i];
  }
}

// The streaming core: pull chunks until the source is exhausted, then fold
// the persistent buckets. Fold order is fixed — per segment the classic
// descending S/T chains give T_s = sum_b (local multiplier)·B_b and
// S_s = sum_b B_b; per window the segments recombine as
//   W = sum_s T_s + seg_len · sum_s s·S_s
// (the second sum built from suffix chains, the seg_len multiple from
// doublings since seg_len is a power of two); windows combine MSB-first
// with c doublings between them. With nseg = 1 this reduces statement-for-
// statement to the single-chain fold, and nothing in it depends on which
// thread computed what.
PointR1 run_stream(StreamCtx& S, const MsmTermSource& src) {
  const PipConfig& cfg = S.cfg;
  const size_t nbkt = static_cast<size_t>(cfg.nwin) * cfg.half;

  S.bkt_r1.resize(nbkt);
  S.used.assign(nbkt, 0);
  S.mem_add(nbkt * (sizeof(PointR1) + 1));

  S.raw.resize(cfg.chunk);
  S.pts.resize(cfg.chunk);
  S.base.resize(cfg.chunk);
  size_t stage_soa = 0;
  if (cfg.lanes) {
    S.sx_re.resize(cfg.chunk);
    S.sx_im.resize(cfg.chunk);
    S.sy_re.resize(cfg.chunk);
    S.sy_im.resize(cfg.chunk);
    S.c2_re.assign(cfg.chunk, curve_2d().re().raw());
    S.c2_im.assign(cfg.chunk, curve_2d().im().raw());
    stage_soa = 6 * cfg.chunk * sizeof(u128);
  }
  const size_t ncell = (nbkt + cfg.cell_len - 1) / cfg.cell_len;
  S.cell_pending.resize(ncell);
  // Staged arrays plus one in-flight cell's scheduling scratch (defer
  // buffers + claim bitmaps); the pending lists themselves are metered as
  // their capacity grows below.
  S.mem_add(cfg.chunk * (sizeof(ScalarPoint) + sizeof(Affine) +
                         sizeof(PointR2Aff) + sizeof(BucketIns)) +
            stage_soa + 2 * cfg.cell_len);

  using clk = std::chrono::steady_clock;
  const auto ms_since = [](clk::time_point t0) {
    return std::chrono::duration<double, std::milli>(clk::now() - t0).count();
  };
  for (;;) {
    size_t r_n = src(S.raw.data(), cfg.chunk);
    if (r_n == 0) break;
    FOURQ_CHECK_MSG(r_n <= cfg.chunk, "term source overfilled the chunk");
    ++S.st.chunks;
    auto t0 = clk::now();
    const size_t staged = stage_chunk(S, r_n);
    S.st.stage_ms += ms_since(t0);
    S.st.sub_terms += staged;
    // Capacities only grow (clear() keeps them), so the delta is >= 0.
    size_t pend = 0;
    for (const auto& v : S.cell_pending) pend += v.capacity() * sizeof(BucketIns);
    S.mem_add(pend - S.pend_bytes);
    S.pend_bytes = pend;
    if (staged == 0) continue;
    t0 = clk::now();
    run_tasks(S.par, ncell, [&](size_t cell) { insert_cell(S, cell); });
    S.st.insert_ms += ms_since(t0);
  }
  const auto t_fold = clk::now();

  // Per-chain fold, lane-parallel in groups of chains where lane_fold
  // allows. The metered scratch is one in-flight group's.
  const size_t nchain = static_cast<size_t>(cfg.nwin) * static_cast<size_t>(cfg.nseg);
  FoldOut fold{std::vector<PointR1>(nchain), std::vector<PointR1>(nchain),
               std::vector<uint8_t>(nchain, 0), std::vector<uint8_t>(nchain, 0)};
  S.mem_add(nchain * (2 * sizeof(PointR1) + 2));
  if (lane_fold(cfg.lanes)) {
    S.mem_add(fold_scratch_bytes(std::min(nchain, kFoldGroup)));
    run_tasks(S.par, (nchain + kFoldGroup - 1) / kFoldGroup, [&](size_t grp) {
      const size_t first = grp * kFoldGroup;
      fold_lanes(S, first, std::min(kFoldGroup, nchain - first), fold);
    });
  } else {
    run_tasks(S.par, nchain, [&](size_t chain) { fold_chain(S, chain, fold); });
  }

  // Deterministic combine, MSB-first.
  PointR1 q{};
  bool any = false;
  for (size_t j = static_cast<size_t>(cfg.nwin); j-- > 0;) {
    if (any)
      for (int d = 0; d < cfg.c; ++d) q = dbl(q);
    // W_j = sum_s T_s + seg_len * U, U = sum_s s*S_s via suffix chains.
    PointR1 w{};
    bool wa = false;
    for (size_t s = static_cast<size_t>(cfg.nseg); s-- > 0;) {
      const size_t chain = j * static_cast<size_t>(cfg.nseg) + s;
      if (!fold.t_any[chain]) continue;
      w = wa ? add(w, to_r2(fold.seg_t[chain])) : fold.seg_t[chain];
      wa = true;
    }
    PointR1 r{}, u{};
    bool ra = false, ua = false;
    for (int s = cfg.nseg - 1; s >= 1; --s) {
      const size_t chain = j * static_cast<size_t>(cfg.nseg) + static_cast<size_t>(s);
      if (fold.s_any[chain]) {
        r = ra ? add(r, to_r2(fold.seg_s[chain])) : fold.seg_s[chain];
        ra = true;
      }
      if (!ra) continue;
      u = ua ? add(u, to_r2(r)) : r;
      ua = true;
    }
    if (ua) {
      for (int d = 0; d < cfg.seg_log; ++d) u = dbl(u);
      w = wa ? add(u, to_r2(w)) : u;
      wa = true;
    }
    if (!wa) continue;
    q = any ? add(q, to_r2(w)) : w;
    any = true;
  }

  S.st.fold_ms = ms_since(t_fold);
  S.st.window = cfg.c;
  S.st.windows = cfg.nwin;
  S.st.segments = cfg.nseg;
  S.st.bucket_waves = S.waves.load(std::memory_order_relaxed);
  S.st.peak_bytes = S.mem_peak;
  return any ? q : identity();
}

// Resolve options + term-set summary into the fixed streaming shape.
PipConfig resolve_pip(const MsmOptions& opts, size_t live, size_t total_bits,
                      int max_bits) {
  PipConfig cfg;
  cfg.lanes = opts.lanes;
  cfg.c = opts.window ? opts.window : choose_window(live, total_bits, max_bits);
  FOURQ_CHECK(cfg.c >= 2 && cfg.c <= 15);  // int16 digits hold |d| <= 2^14
  cfg.nwin = (max_bits + cfg.c - 1) / cfg.c + 1;  // +1 absorbs the top carry
  cfg.half = size_t{1} << (cfg.c - 1);
  cfg.nseg = segments_for(cfg.half);
  FOURQ_CHECK_MSG(cfg.nseg >= 1 && static_cast<size_t>(cfg.nseg) <= cfg.half &&
                      (cfg.nseg & (cfg.nseg - 1)) == 0,
                  "segments must be a power of two, at most the bucket count");
  cfg.seg_len = cfg.half / static_cast<size_t>(cfg.nseg);
  cfg.seg_log = 0;
  while ((size_t{1} << cfg.seg_log) < cfg.seg_len) ++cfg.seg_log;
  cfg.cell_len = std::max(cfg.seg_len, kMinCellBuckets);
  cfg.cell_log = 0;
  while ((size_t{1} << cfg.cell_log) < cfg.cell_len) ++cfg.cell_log;
  cfg.chunk = opts.chunk ? opts.chunk : kMsmDefaultChunk;
  return cfg;
}

void publish_stats(const MsmStats& st, MsmStats* out) {
  FOURQ_COUNTER_ADD("curve.msm.chunks", st.chunks);
  FOURQ_COUNTER_ADD("curve.msm.bucket_waves", st.bucket_waves);
  FOURQ_GAUGE_SET("curve.msm.peak_kb", static_cast<double>(st.peak_bytes) / 1024.0);
  if (out) *out = st;
}

PointR1 msm_pippenger_stream(const MsmTermSource& src, const MsmOptions& opts,
                             const PipConfig& cfg) {
  StreamCtx S;
  S.cfg = cfg;
  S.par = opts.parallel;
  S.st.backend = MsmBackend::kPippenger;
  PointR1 q = run_stream(S, src);
  FOURQ_COUNTER_ADD_L("curve.msm.terms", "backend", "pippenger", S.st.terms);
  publish_stats(S.st, opts.stats);
  return q;
}

MsmTermSource vector_source(const std::vector<ScalarPoint>& terms, size_t* pos) {
  return [&terms, pos](ScalarPoint* out, size_t max) {
    const size_t n = std::min(max, terms.size() - *pos);
    std::copy(terms.begin() + static_cast<ptrdiff_t>(*pos),
              terms.begin() + static_cast<ptrdiff_t>(*pos + n), out);
    *pos += n;
    return n;
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// wNAF recoding. The residual lives in five u64 limbs (a negative digit adds
// up to 2^w - 1, which can carry past bit 255 for scalars near 2^256); each
// digit step touches only the limbs the carry actually reaches, instead of
// the full-width U512 add/sub the original construction used.

std::vector<int8_t> wnaf(const U256& k, int width) {
  FOURQ_CHECK(width >= 2 && width <= 7);
  std::vector<int8_t> digits;
  digits.reserve(static_cast<size_t>(std::max(k.top_bit() + 2, 1)));
  uint64_t n[5] = {k.w[0], k.w[1], k.w[2], k.w[3], 0};
  const uint64_t window = uint64_t{1} << width;  // 2^w
  const uint64_t half = window / 2;
  while ((n[0] | n[1] | n[2] | n[3] | n[4]) != 0) {
    int8_t d = 0;
    if (n[0] & 1) {
      const uint64_t mods = n[0] & (window - 1);  // n mod 2^w
      if (mods >= half) {
        // Negative digit: d = mods - 2^w; the residual grows by |d|.
        d = static_cast<int8_t>(static_cast<int64_t>(mods) -
                                static_cast<int64_t>(window));
        uint64_t carry = addc64(n[0], window - mods, 0, n[0]);
        for (int i = 1; i < 5 && carry; ++i) carry = addc64(n[i], 0, carry, n[i]);
        FOURQ_CHECK(carry == 0);
      } else {
        d = static_cast<int8_t>(mods);
        n[0] -= mods;  // the low w bits equal mods: no borrow
      }
    }
    digits.push_back(d);
    for (int i = 0; i < 4; ++i) n[i] = (n[i] >> 1) | (n[i + 1] << 63);
    n[4] >>= 1;
  }
  return digits;
}

// ---------------------------------------------------------------------------
// Dispatch.

const char* msm_backend_name(MsmBackend b) {
  switch (b) {
    case MsmBackend::kAuto: return "auto";
    case MsmBackend::kStraus: return "straus";
    case MsmBackend::kPippenger: return "pippenger";
  }
  return "?";
}

MsmBackend msm_choose_backend(size_t n_terms, const MsmOptions& opts) {
  if (opts.backend != MsmBackend::kAuto) return opts.backend;
  const size_t min_terms = lane_fold(opts.lanes) ? kPippengerMinTermsLaneFold : kPippengerMinTerms;
  return n_terms < min_terms ? MsmBackend::kStraus : MsmBackend::kPippenger;
}

PointR1 multi_scalar_mul(const std::vector<ScalarPoint>& terms,
                         const MsmOptions& opts) {
  FOURQ_SPAN("curve.msm");
  FOURQ_COUNTER_INC("curve.msm.calls");
  if (opts.stats) *opts.stats = MsmStats{};

  // The live-term scan doubles as hint validation: effective_bits rejects
  // any scalar exceeding its declared bound, on every backend.
  size_t live = 0, total_bits = 0;
  int max_bits = 1;
  for (const ScalarPoint& t : terms) {
    if (t.k.is_zero()) continue;
    int b = effective_bits(t);
    ++live;
    total_bits += static_cast<size_t>(b);
    max_bits = std::max(max_bits, b);
  }
  if (live == 0) return identity();

  MsmBackend backend = msm_choose_backend(live, opts);
  switch (backend) {
    case MsmBackend::kStraus: {
      FOURQ_COUNTER_INC_L("curve.msm.calls", "backend", "straus");
      FOURQ_COUNTER_ADD_L("curve.msm.terms", "backend", "straus", live);
      if (opts.stats) {
        opts.stats->backend = backend;
        opts.stats->terms = live;
      }
      return msm_straus(terms, straus_width_for(live));
    }
    case MsmBackend::kPippenger: {
      FOURQ_COUNTER_INC_L("curve.msm.calls", "backend", "pippenger");
      PipConfig cfg = resolve_pip(opts, live, total_bits, max_bits);
      // The default chunk is sized for streams; a vector never needs more
      // staging than it has terms (a 64-term verify MSM would otherwise
      // allocate and clear staging for 16384).
      if (!opts.chunk) cfg.chunk = std::min(cfg.chunk, terms.size());
      size_t pos = 0;
      return msm_pippenger_stream(vector_source(terms, &pos), opts, cfg);
    }
    case MsmBackend::kAuto:
      break;  // unreachable: msm_choose_backend resolved it
  }
  FOURQ_CHECK_MSG(false, "unresolved MSM backend");
  return identity();
}

PointR1 multi_scalar_mul(const std::vector<ScalarPoint>& terms) {
  return multi_scalar_mul(terms, MsmOptions{});
}

PointR1 multi_scalar_mul_stream(const MsmTermSource& src, size_t n_hint,
                                const MsmOptions& opts) {
  FOURQ_SPAN("curve.msm");
  FOURQ_COUNTER_INC("curve.msm.calls");
  FOURQ_COUNTER_INC_L("curve.msm.calls", "backend", "pippenger");
  if (opts.stats) *opts.stats = MsmStats{};
  FOURQ_CHECK_MSG(opts.backend == MsmBackend::kAuto ||
                      opts.backend == MsmBackend::kPippenger,
                  "streaming MSM is Pippenger-only");
  // The shape must be fixed before the first term is seen, so the window
  // model runs on the hint: n_hint terms of full-width scalars (a generous
  // over-estimate only ever wastes empty windows, which cost nothing in
  // the MSB-first combine).
  const size_t live = n_hint ? n_hint : size_t{1} << 17;
  PipConfig cfg = resolve_pip(opts, live, live * 256, 256);
  return msm_pippenger_stream(src, opts, cfg);
}

}  // namespace fourq::curve

#include "curve/multiscalar.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "curve/scalar.hpp"
#include "curve/scalarmul.hpp"
#include "field/fp_lanes.hpp"
#include "obs/obs.hpp"

namespace fourq::curve {

namespace {

// Auto-selection crossovers, calibrated with bench/bench_msm.cpp (see
// docs/ARCHITECTURE.md §9 for the measured curve): Straus's per-term cost
// is flat while Pippenger's falls like 1/log n once the windows are dense
// enough to amortise bucket aggregation.
constexpr size_t kPippengerMinTerms = 40;

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
// Terms are consumed in chunks. Per chunk: (optional GLV pre-split, then)
// normalise the points, decompose the scalars into signed base-2^c digits
// and route each non-zero digit to the pending list of its
// (window, bucket-segment) grid cell; then every cell drains its own list
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
  int c = 0;           // window width (bits)
  int nwin = 0;        // digit windows
  int nseg = 1;        // bucket segments per window (power of two)
  int seg_log = 0;     // log2(seg_len), for the staging-time cell map
  size_t half = 0;     // buckets per window, 2^(c-1)
  size_t seg_len = 0;  // buckets per segment, half / nseg
  size_t chunk = 0;    // input terms staged per chunk
  bool glv = false;    // 4-way radix-2^64 pre-split
  bool affine = false;  // batched-affine bucket accumulation
  bool lanes = true;    // 8-wide lane-kernel insertion waves
};

// Segment count: wide enough to feed a worker pool (the parallel grain is
// nwin * nseg cells), derived from the window width alone so the fold shape
// is thread-count-invariant. Power of two, so the segment-offset multiples
// in the fold reduce to doublings.
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

// Sub-terms the GLV pre-split would produce (the radix-2^64 limb count).
size_t glv_sub_terms(size_t live, int max_bits) {
  return live * static_cast<size_t>((std::min(max_bits, 256) + 63) / 64);
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
  uint32_t term;    // staged sub-term index
  uint16_t bucket;  // window-local bucket index (c <= 15 keeps it < 2^14)
  bool negate;
};

// Per-chunk staged state + persistent buckets for one streaming run.
struct StreamCtx {
  PipConfig cfg;
  MsmParallelFor par;

  // Persistent across chunks: the bucket grid, one representation active.
  std::vector<PointR1> bkt_r1;
  std::vector<PointR2Aff> bkt_aff;
  std::vector<uint8_t> used;

  // Chunk staging, reused every chunk. Bucket insertions are routed to
  // their (window, segment) cell while the digits are decomposed, so the
  // insertion phase touches exactly the work addressed to it — no cell
  // ever rescans another cell's digits.
  std::vector<ScalarPoint> raw;
  std::vector<Affine> pts;
  std::vector<PointR2Aff> base;
  std::vector<std::vector<BucketIns>> cell_pending;
  // SoA scratch for the lane-batched base-table build (see build_base):
  // sx/sy carry the split x/y coordinates, c2 the broadcast 2d constant.
  std::vector<u128> sx_re, sx_im, sy_re, sy_im, c2_re, c2_im;
  size_t sub_cap = 0;
  size_t pend_bytes = 0;  // cell_pending capacity currently metered

  MsmStats st;
  size_t mem_cur = 0, mem_peak = 0;
  std::atomic<uint64_t> waves{0}, rounds{0}, invs{0};

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
  if (const size_t g = static_cast<size_t>(lk::active().pt_group); g > 1) {
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
  std::vector<uint8_t> wave_claim(S.cfg.half, 0), pass_defer(S.cfg.half, 0);
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

// Drain one cell's pending insertions into affine R2 buckets:
// collision-scheduled rounds. Each round claims at most one insertion per
// bucket (in term order, preserving per-bucket FIFO), computes the unified
// addition with both inputs at Z = 1, and renormalises every sum in the
// round with ONE simultaneous inversion of the f*g denominators
// (field::batch_invert — lane-vectorised for rounds of >= 32).
//
// Per-add cost is ~12M plus the amortised 3M of the shared inversion,
// against 7M for the extended-coordinate mixed add — which is why the auto
// path declines this layout in software. Hardware large-MSM pipelines keep
// points affine because their adders are fixed-width and inversion
// batching is nearly free; this path reproduces that datapath faithfully
// enough to measure.
void drain_affine(StreamCtx& S, PointR2Aff* buckets,
                  const std::vector<BucketIns>& pending) {
  static const Fp2 two = Fp2::from_u64(2);
  const Fp2& two_d = curve_2d();
  const Fp2& inv_2d = curve_2d_inv();
  const PointR2Aff* base = S.base.data();
  std::vector<uint8_t> done(pending.size(), 0);
  std::vector<uint8_t> claimed(S.cfg.half, 0);
  std::vector<uint32_t> sel;
  std::vector<Fp2> X3, Y3, Z3, T3;
  size_t remaining = pending.size();
  uint64_t rounds = 0;
  while (remaining > 0) {
    sel.clear();
    for (size_t i = 0; i < pending.size(); ++i) {
      if (done[i] || claimed[pending[i].bucket]) continue;
      claimed[pending[i].bucket] = 1;
      done[i] = 1;
      sel.push_back(static_cast<uint32_t>(i));
    }
    const size_t rn = sel.size();
    X3.resize(rn);
    Y3.resize(rn);
    Z3.resize(rn);
    T3.resize(rn);
    for (size_t l = 0; l < rn; ++l) {
      const BucketIns& ins = pending[sel[l]];
      const PointR2Aff& bp = buckets[ins.bucket];
      const PointR2Aff q = ins.negate ? neg_r2aff(base[ins.term]) : base[ins.term];
      // Unified addition with Z1 = Z2 = 1: d = 2, and T1 is recovered from
      // the stored 2dT coordinate via the precomputed (2d)^-1.
      Fp2 a = bp.ymx * q.ymx;
      Fp2 b = bp.xpy * q.xpy;
      Fp2 cc = (bp.dt2 * q.dt2) * inv_2d;
      Fp2 e = b - a, f = two - cc, g = two + cc, h = b + a;
      X3[l] = e * f;
      Y3[l] = g * h;
      Z3[l] = f * g;
      T3[l] = e * h;
    }
    field::batch_invert(Z3.data(), rn);  // Z3 never 0: the formulas are complete
    for (size_t l = 0; l < rn; ++l) {
      const BucketIns& ins = pending[sel[l]];
      const Fp2& inv = Z3[l];
      PointR2Aff& bp = buckets[ins.bucket];
      bp.xpy = (X3[l] + Y3[l]) * inv;
      bp.ymx = (Y3[l] - X3[l]) * inv;
      bp.dt2 = (T3[l] * inv) * two_d;
      claimed[ins.bucket] = 0;
    }
    remaining -= rn;
    ++rounds;
  }
  S.rounds.fetch_add(rounds, std::memory_order_relaxed);
  S.invs.fetch_add(rounds, std::memory_order_relaxed);
}

// One grid cell of the insertion phase: window j, bucket segment s. Drains
// the pending list staging addressed to this cell — every entry already
// targets a bucket in [s*seg_len, (s+1)*seg_len) of window j, in global
// term order. Cells own disjoint state, so any parallel schedule over
// cells computes identical bucket contents. First hits seed the bucket
// with the (possibly negated) affine input itself; the rest compact in
// place into the true addition list.
void insert_cell(StreamCtx& S, size_t j, size_t s) {
  const PipConfig& cfg = S.cfg;
  std::vector<BucketIns>& list =
      S.cell_pending[j * static_cast<size_t>(cfg.nseg) + s];
  if (list.empty()) return;
  uint8_t* wu = &S.used[j * cfg.half];
  size_t w = 0;
  if (cfg.affine) {
    PointR2Aff* waff = &S.bkt_aff[j * cfg.half];
    for (const BucketIns& ins : list) {
      if (!wu[ins.bucket]) {
        const Affine& p = S.pts[ins.term];
        waff[ins.bucket] = to_r2aff(ins.negate ? neg(p) : p);
        wu[ins.bucket] = 1;
      } else {
        list[w++] = ins;
      }
    }
    list.resize(w);
    if (w) drain_affine(S, waff, list);
  } else {
    PointR1* wr1 = &S.bkt_r1[j * cfg.half];
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
  }
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

// Stage one chunk: filter zero scalars, optionally GLV-pre-split, normalise
// the points, and route every non-zero digit to its (window, segment)
// cell's pending list. Returns the staged sub-term count. Sub-term order
// is raw-term-major (limb-minor under GLV) and staging is single-threaded,
// so each cell's list is in global term order and concatenating chunks
// reproduces it exactly — the invariant every bitwise-equality guarantee
// rests on. Short scalars stage only the windows they populate.
size_t stage_chunk(StreamCtx& S, size_t r_n) {
  const PipConfig& cfg = S.cfg;
  int16_t tmp[kMaxWindows];
  size_t m = 0;
  auto emit = [&](const Affine& p, const U256& k, int kbits) {
    S.pts[m] = p;  // base[m] is built for the whole chunk by build_base
    int nw = (kbits + cfg.c - 1) / cfg.c + 1;
    FOURQ_CHECK(nw <= cfg.nwin && nw <= kMaxWindows);
    signed_window_digits(k, cfg.c, nw, tmp);
    for (int j = 0; j < nw; ++j) {
      const int d = tmp[j];
      if (d == 0) continue;
      const uint32_t b = static_cast<uint32_t>(d < 0 ? -d : d) - 1;
      const size_t cell = static_cast<size_t>(j) * static_cast<size_t>(cfg.nseg) +
                          (b >> cfg.seg_log);
      S.cell_pending[cell].push_back(
          BucketIns{static_cast<uint32_t>(m), static_cast<uint16_t>(b), d < 0});
    }
    ++m;
  };

  if (!cfg.glv) {
    for (size_t i = 0; i < r_n; ++i) {
      const ScalarPoint& t = S.raw[i];
      if (t.k.is_zero()) continue;
      int b = effective_bits(t);
      ++S.st.terms;
      emit(t.p, t.k, b);
    }
    build_base(S, m);
    return m;
  }

  // GLV pre-split: k = sum_j a_j 2^(64j). The auxiliary points [2^64 j]P
  // are computed only up to each term's top non-zero limb (a 128-bit
  // batch-verification weight needs one, not three), normalised back to
  // affine with one simultaneous inversion for the whole chunk.
  struct LiveRef {
    uint32_t raw_idx;
    uint32_t aux_off;
    Radix64 rs;
  };
  std::vector<LiveRef> lv;
  lv.reserve(r_n);
  size_t aux_n = 0;
  for (size_t i = 0; i < r_n; ++i) {
    const ScalarPoint& t = S.raw[i];
    if (t.k.is_zero()) continue;
    (void)effective_bits(t);
    ++S.st.terms;
    LiveRef ref{static_cast<uint32_t>(i), static_cast<uint32_t>(aux_n),
                radix64_split(t.k)};
    aux_n += static_cast<size_t>(std::max(ref.rs.top, 0));
    lv.push_back(ref);
  }
  if (lv.empty()) return 0;

  std::vector<PointR1> aux(aux_n);
  const size_t aux_bytes = aux_n * (sizeof(PointR1) + sizeof(Affine));
  S.mem_add(aux_bytes);
  run_tasks(S.par, lv.size(), [&](size_t u) {
    const LiveRef& ref = lv[u];
    if (ref.rs.top < 1) return;
    PointR1 q = to_r1(S.raw[ref.raw_idx].p);
    for (int j = 1; j <= ref.rs.top; ++j) {
      for (int d = 0; d < 64; ++d) q = dbl(q);
      aux[ref.aux_off + static_cast<size_t>(j - 1)] = q;
    }
  });
  std::vector<Affine> aux_aff;
  if (!aux.empty()) {
    aux_aff = batch_to_affine(aux);
    S.invs.fetch_add(1, std::memory_order_relaxed);
  }
  for (const LiveRef& ref : lv) {
    const ScalarPoint& t = S.raw[ref.raw_idx];
    for (int j = 0; j <= ref.rs.top; ++j) {
      const uint64_t limb = ref.rs.a[static_cast<size_t>(j)];
      if (!limb) continue;
      const U256 kk(limb);
      emit(j == 0 ? t.p : aux_aff[ref.aux_off + static_cast<size_t>(j) - 1],
           kk, kk.top_bit() + 1);
    }
  }
  S.mem_sub(aux_bytes);
  build_base(S, m);
  return m;
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

  if (cfg.affine)
    S.bkt_aff.resize(nbkt);
  else
    S.bkt_r1.resize(nbkt);
  S.used.assign(nbkt, 0);
  S.mem_add(nbkt * ((cfg.affine ? sizeof(PointR2Aff) : sizeof(PointR1)) + 1));

  S.sub_cap = cfg.chunk * (cfg.glv ? 4 : 1);
  S.raw.resize(cfg.chunk);
  S.pts.resize(S.sub_cap);
  S.base.resize(S.sub_cap);
  size_t stage_soa = 0;
  if (cfg.lanes) {
    S.sx_re.resize(S.sub_cap);
    S.sx_im.resize(S.sub_cap);
    S.sy_re.resize(S.sub_cap);
    S.sy_im.resize(S.sub_cap);
    S.c2_re.assign(S.sub_cap, curve_2d().re().raw());
    S.c2_im.assign(S.sub_cap, curve_2d().im().raw());
    stage_soa = 6 * S.sub_cap * sizeof(u128);
  }
  const size_t ncell = static_cast<size_t>(cfg.nwin) * static_cast<size_t>(cfg.nseg);
  S.cell_pending.resize(ncell);
  // Staged arrays plus one in-flight cell's scheduling scratch (defer
  // buffers + claim bitmaps); the pending lists themselves are metered as
  // their capacity grows below.
  S.mem_add(cfg.chunk * sizeof(ScalarPoint) +
            S.sub_cap * (sizeof(Affine) + sizeof(PointR2Aff) +
                         sizeof(BucketIns)) +
            stage_soa + 2 * cfg.half);

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
    const size_t sub_n = stage_chunk(S, r_n);
    S.st.stage_ms += ms_since(t0);
    S.st.sub_terms += sub_n;
    // Capacities only grow (clear() keeps them), so the delta is >= 0.
    size_t pend = 0;
    for (const auto& v : S.cell_pending) pend += v.capacity() * sizeof(BucketIns);
    S.mem_add(pend - S.pend_bytes);
    S.pend_bytes = pend;
    if (sub_n == 0) continue;
    t0 = clk::now();
    run_tasks(S.par, ncell, [&](size_t cell) {
      insert_cell(S, cell / static_cast<size_t>(cfg.nseg),
                  cell % static_cast<size_t>(cfg.nseg));
    });
    S.st.insert_ms += ms_since(t0);
  }
  const auto t_fold = clk::now();

  // Per-cell fold: descending S/T chains over the cell's bucket range.
  std::vector<PointR1> segT(ncell), segS(ncell);
  std::vector<uint8_t> t_any(ncell, 0), s_any(ncell, 0);
  S.mem_add(ncell * (2 * sizeof(PointR1) + 2));
  run_tasks(S.par, ncell, [&](size_t cell) {
    const size_t j = cell / static_cast<size_t>(cfg.nseg);
    const size_t s = cell % static_cast<size_t>(cfg.nseg);
    const size_t lo = j * cfg.half + s * cfg.seg_len;
    PointR1 sp{}, tp{};
    bool sa = false, ta = false;
    for (size_t b = cfg.seg_len; b-- > 0;) {
      const size_t g = lo + b;
      if (S.used[g]) {
        if (cfg.affine)
          sp = sa ? add_mixed(sp, S.bkt_aff[g]) : r2aff_to_r1(S.bkt_aff[g]);
        else
          sp = sa ? add(sp, to_r2(S.bkt_r1[g])) : S.bkt_r1[g];
        sa = true;
      }
      if (!sa) continue;  // no buckets at or above this level yet
      tp = ta ? add(tp, to_r2(sp)) : sp;
      ta = true;
    }
    if (ta) segT[cell] = tp;
    if (sa) segS[cell] = sp;
    t_any[cell] = ta;
    s_any[cell] = sa;
  });

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
      const size_t cell = j * static_cast<size_t>(cfg.nseg) + s;
      if (!t_any[cell]) continue;
      w = wa ? add(w, to_r2(segT[cell])) : segT[cell];
      wa = true;
    }
    PointR1 r{}, u{};
    bool ra = false, ua = false;
    for (int s = cfg.nseg - 1; s >= 1; --s) {
      const size_t cell = j * static_cast<size_t>(cfg.nseg) + static_cast<size_t>(s);
      if (s_any[cell]) {
        r = ra ? add(r, to_r2(segS[cell])) : segS[cell];
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
  S.st.glv = cfg.glv;
  S.st.affine = cfg.affine;
  S.st.bucket_waves = S.waves.load(std::memory_order_relaxed);
  S.st.bucket_rounds = S.rounds.load(std::memory_order_relaxed);
  S.st.inversion_batches = S.invs.load(std::memory_order_relaxed);
  S.st.peak_bytes = S.mem_peak;
  return any ? q : identity();
}

// Resolve options + term-set summary into the fixed streaming shape.
PipConfig resolve_pip(const MsmOptions& opts, size_t live, size_t total_bits,
                      int max_bits) {
  PipConfig cfg;
  cfg.glv = opts.glv == MsmTri::kOn ||
            (opts.glv == MsmTri::kAuto &&
             msm_glv_wins(live, total_bits, max_bits, opts.glv_aux_dbl));
  // Batched-affine never beats the extended-coordinate adds in software
  // (~15M vs 7M per insertion), so kAuto is an honest off.
  cfg.affine = opts.affine == MsmTri::kOn;
  cfg.lanes = opts.lanes != MsmTri::kOff;
  const int digit_bits = cfg.glv ? std::min(max_bits, 64) : max_bits;
  cfg.c = opts.window
              ? opts.window
              : msm_choose_window(cfg.glv ? glv_sub_terms(live, max_bits) : live,
                                  total_bits, digit_bits);
  FOURQ_CHECK(cfg.c >= 2 && cfg.c <= 15);  // int16 digits hold |d| <= 2^14
  cfg.nwin = (digit_bits + cfg.c - 1) / cfg.c + 1;  // +1 absorbs the top carry
  cfg.half = size_t{1} << (cfg.c - 1);
  cfg.nseg = opts.segments ? opts.segments : segments_for(cfg.half);
  FOURQ_CHECK_MSG(cfg.nseg >= 1 && static_cast<size_t>(cfg.nseg) <= cfg.half &&
                      (cfg.nseg & (cfg.nseg - 1)) == 0,
                  "segments must be a power of two, at most the bucket count");
  cfg.seg_len = cfg.half / static_cast<size_t>(cfg.nseg);
  cfg.seg_log = 0;
  while ((size_t{1} << cfg.seg_log) < cfg.seg_len) ++cfg.seg_log;
  cfg.chunk = opts.chunk ? opts.chunk : kMsmDefaultChunk;
  return cfg;
}

void publish_stats(const MsmStats& st, MsmStats* out) {
  FOURQ_COUNTER_ADD("curve.msm.chunks", st.chunks);
  FOURQ_COUNTER_ADD("curve.msm.bucket_waves", st.bucket_waves);
  FOURQ_COUNTER_ADD("curve.msm.bucket_rounds", st.bucket_rounds);
  FOURQ_COUNTER_ADD("curve.msm.inversion_batches", st.inversion_batches);
  FOURQ_COUNTER_INC_L("curve.msm.calls", "glv", st.glv ? "on" : "off");
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

// ---------------------------------------------------------------------------
// EndoSplit: the paper's 4-way decomposition per term. k = sum_j a_j 2^(64j)
// with the raw 64-bit limbs as multi-scalars (curve::radix64_split), so
// [k]P = sum_j [a_j]([2^64j]P) — an exact integer identity needing no
// subgroup assumption and no even-k correction. The auxiliary points stand
// in for phi/psi (DESIGN.md §2) and cost 64 doublings each in software;
// only the points up to each term's top non-zero limb are computed, and all
// of them are normalised back to affine with one batched inversion.

PointR1 msm_endosplit(const std::vector<ScalarPoint>& terms, int straus_width) {
  struct LiveRef {
    const ScalarPoint* t;
    size_t aux_off;
    Radix64 rs;
  };
  std::vector<LiveRef> live;
  size_t aux_n = 0;
  for (const ScalarPoint& t : terms) {
    if (t.k.is_zero()) continue;
    LiveRef ref{&t, aux_n, radix64_split(t.k)};
    aux_n += static_cast<size_t>(std::max(ref.rs.top, 0));
    live.push_back(ref);
  }
  if (live.empty()) return identity();

  std::vector<PointR1> aux;  // [2^64 j]P, j = 1..top, per term
  aux.reserve(aux_n);
  for (const LiveRef& ref : live) {
    PointR1 q = to_r1(ref.t->p);
    for (int j = 1; j <= ref.rs.top; ++j) {
      for (int d = 0; d < 64; ++d) q = dbl(q);
      aux.push_back(q);
    }
  }
  std::vector<Affine> aux_aff = batch_to_affine(aux);

  std::vector<ScalarPoint> split;
  split.reserve(4 * live.size());
  for (const LiveRef& ref : live) {
    for (int j = 0; j <= ref.rs.top; ++j) {
      const uint64_t limb = ref.rs.a[static_cast<size_t>(j)];
      if (!limb) continue;
      split.push_back({U256(limb),
                       j == 0 ? ref.t->p
                              : aux_aff[ref.aux_off + static_cast<size_t>(j) - 1],
                       64});
    }
  }
  if (split.empty()) return identity();
  int width = straus_width ? straus_width : straus_width_for(split.size());
  return msm_straus(split, width);
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
    case MsmBackend::kEndoSplit: return "endosplit";
  }
  return "?";
}

MsmBackend msm_choose_backend(size_t n_terms, const MsmOptions& opts) {
  if (opts.backend != MsmBackend::kAuto) return opts.backend;
  // EndoSplit is never auto-selected: its auxiliary points cost 3x64
  // doublings per term in software, which the 4x shorter doubling chain
  // only repays at n = 1 — where it still ties Straus (bench_msm measures
  // this; the hardware endomorphism the paper relies on is nearly free).
  // The same decomposition IS auto-reachable as the Pippenger GLV
  // pre-split, whose crossover model (msm_glv_wins) prices the auxiliary
  // points explicitly.
  return n_terms < kPippengerMinTerms ? MsmBackend::kStraus
                                      : MsmBackend::kPippenger;
}

int msm_choose_window(size_t n_terms, size_t total_bits, int max_bits) {
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

int msm_choose_window(const std::vector<ScalarPoint>& terms) {
  size_t live = 0, total_bits = 0;
  int max_bits = 1;
  for (const ScalarPoint& t : terms) {
    if (t.k.is_zero()) continue;
    ++live;
    int b = effective_bits(t);
    total_bits += static_cast<size_t>(b);
    max_bits = std::max(max_bits, b);
  }
  return msm_choose_window(live, total_bits, max_bits);
}

bool msm_glv_wins(size_t n_terms, size_t total_bits, int max_bits,
                  int aux_dbl_per_term) {
  if (n_terms == 0 || max_bits <= 64) return false;  // nothing to split
  const double plain =
      pip_cost_model(n_terms, total_bits, max_bits,
                     msm_choose_window(n_terms, total_bits, max_bits));
  const size_t sub = glv_sub_terms(n_terms, max_bits);
  // Split cost: same total scalar bits spread over 4x the terms at 1/4 the
  // window count, plus the auxiliary points — aux_dbl_per_term doublings
  // (7M each) and their share of the batched normalisation.
  const double split =
      pip_cost_model(sub, total_bits, 64, msm_choose_window(sub, total_bits, 64)) +
      static_cast<double>(n_terms) *
          (static_cast<double>(aux_dbl_per_term) * 7.0 + 20.0);
  return split < plain;
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
        opts.stats->inversion_batches = 1;  // one batch_to_r2aff
      }
      int w = opts.straus_width ? opts.straus_width : straus_width_for(live);
      return msm_straus(terms, w);
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
    case MsmBackend::kEndoSplit:
      FOURQ_COUNTER_INC_L("curve.msm.calls", "backend", "endosplit");
      FOURQ_COUNTER_ADD_L("curve.msm.terms", "backend", "endosplit", live);
      if (opts.stats) {
        opts.stats->backend = backend;
        opts.stats->terms = live;
        opts.stats->glv = true;  // the decomposition itself
        opts.stats->inversion_batches = 2;  // aux normalise + Straus tables
      }
      return msm_endosplit(terms, opts.straus_width);
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
  // The shape must be fixed before the first term is seen, so the cost
  // models run on the hint: n_hint terms of full-width scalars (a generous
  // over-estimate only ever wastes empty windows, which cost nothing in
  // the MSB-first combine).
  const size_t live = n_hint ? n_hint : size_t{1} << 17;
  PipConfig cfg = resolve_pip(opts, live, live * 256, 256);
  return msm_pippenger_stream(src, opts, cfg);
}

}  // namespace fourq::curve

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "calibration.hpp"
#include "curve/params.hpp"
#include "curve/scalarmul.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using namespace fourq;
using dsa::SchnorrQ;

namespace {

struct Fnv {
  uint64_t h = 14695981039346656037ull;
  void bytes(const void* p, size_t n) {
    const auto* c = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void u256(const U256& v) { bytes(v.w.data(), sizeof v.w); }
  void fp2(const field::Fp2& v) {
    u64(v.re().lo()), u64(v.re().hi()), u64(v.im().lo()), u64(v.im().hi());
  }
};

// ---------------------------------------------------------------------------
// its-verify: the paper's motivating traffic (§I), an ITS receiver checking
// signed CAM messages. A fleet of 32 sender keys sends bursts of 64
// messages; each burst is decoded (SchnorrQ::decode_signature per 64-byte
// wire signature) and verified with one BatchEngine::verify call
// (workers = 1, so two 32-message chunks). 1 burst in 8 carries one
// tampered body; 1 burst in 16 carries one message under a key Q + T with
// an order-2 torsion component T, signed with the honest secret but with
// Q + T in the challenge.
//
// Why: the scalar field, point formulas, fixed-base and small-n MSM,
// hashing and bisection carry this workload, and the lane executor barely
// runs. Senders repeat within a burst, so inputs share work.
// Layer shares (prototype): field + curve formulas nearly all; field::lanes
// little; curve MSM small-n, inside verify; dsa all; engine verify
// (chunking, bisection); trace/sched/asic none.
class ItsVerify final : public Workload {
 public:
  void generate(uint64_t seed, bool mini) override {
    bursts_ = mini ? 32 : 256;
    Rng rng(seed ^ 0x175e11f1c0ffee00ull);
    SchnorrQ scheme;
    std::vector<SchnorrQ::KeyPair> fleet(kSenders);
    wire_keys_.clear();
    for (SchnorrQ::KeyPair& kp : fleet) {
      kp = scheme.keygen(rng);
      wire_keys_.push_back(scheme.encode_public_key(kp.pub));
    }
    const curve::PointR2 t2 = curve::to_r2(curve::to_r1(torsion_point(rng.next_u64())));
    msgs_.assign(bursts_ * kBurst, Msg{});
    tainted_.assign(bursts_, 0);
    for (size_t b = 0; b < bursts_; ++b) {
      Kind bad_kind = kHonest;
      if (b % 8 == 3)
        bad_kind = kTampered;
      else if (b % 16 == 7)
        bad_kind = kTorsion;
      const size_t bad = bad_kind == kHonest ? kBurst : rng.next_below(kBurst);
      tainted_[b] = bad_kind != kHonest;
      for (size_t i = 0; i < kBurst; ++i) {
        Msg& m = msgs_[b * kBurst + i];
        const size_t sender = rng.next_below(kSenders);
        m.key = static_cast<uint16_t>(sender);
        m.kind = i == bad ? bad_kind : kHonest;
        m.body = cam_body(rng, b, i, sender);
        SchnorrQ::Signature sig;
        if (m.kind == kTorsion) {
          const curve::Affine qt =
              curve::to_affine(curve::add(curve::to_r1(fleet[sender].pub), t2));
          m.key = static_cast<uint16_t>(wire_keys_.size());
          wire_keys_.push_back(scheme.encode_public_key(qt));
          sig = scheme.sign(SchnorrQ::KeyPair{fleet[sender].secret, qt}, m.body);
          // The reference verdict of a torsion-key message is the
          // single-message verifier's.
          m.expect = scheme.verify(qt, m.body, sig) ? 1 : 0;
        } else {
          sig = scheme.sign(fleet[sender], m.body);
          m.expect = 1;
          if (m.kind == kTampered) {
            m.body[rng.next_below(m.body.size())] ^= 0x20;
            m.expect = 0;
          }
        }
        m.wire = scheme.encode_signature(sig);
      }
    }
    fail_.reset(cycle_ops());
    seen_.assign(cycle_ops(), kUnseen);
  }

  uint64_t input_digest() const override {
    Fnv f;
    for (const curve::CompressedPoint& k : wire_keys_) f.bytes(k.data(), k.size());
    for (const Msg& m : msgs_) {
      f.u64(m.key), f.u64(m.kind), f.u64(m.expect);
      f.bytes(m.body.data(), m.body.size());
      f.bytes(m.wire.data(), m.wire.size());
    }
    return f.h;
  }

  void teardown() override {
    engine_.reset();
    scheme_.reset();
    keys_.clear();
  }

  void setup() override {
    scheme_ = std::make_unique<SchnorrQ>();
    engine::EngineOptions opt;
    opt.workers = 1;
    engine_ = std::make_unique<engine::BatchEngine>(opt);
    for (const curve::CompressedPoint& w : wire_keys_) {
      std::optional<curve::Affine> k = scheme_->decode_public_key(w);
      if (!k) throw std::runtime_error("its-verify: a public key failed to decode");
      keys_.push_back(*k);
    }
    // BatchEngine builds its verifier on first use: one single-message
    // verify finishes that lazy set-up before the first timed burst.
    std::optional<SchnorrQ::Signature> sig = scheme_->decode_signature(msgs_[0].wire);
    if (!sig) throw std::runtime_error("its-verify: a signature failed to decode");
    engine_->verify({SchnorrQ::BatchItem{keys_[msgs_[0].key], msgs_[0].body, *sig}});
  }

  size_t cycle() const override { return bursts_; }
  size_t cycle_ops() const override { return bursts_ * kBurst; }

  CallResult call(size_t i, Tracer* tr) override {
    const size_t b = i % bursts_;
    const uint32_t id = static_cast<uint32_t>(b);
    const Msg* m = &msgs_[b * kBurst];
    items_.resize(kBurst);
    bool decoded = true;
    std::vector<uint8_t> verdicts;
    const uint64_t msm0 = tr ? registry_counter("curve.msm.calls") : 0;
    const int64_t t0 = now_ns();
    {
      Span root(tr, "burst", id);
      for (size_t j = 0; j < kBurst; ++j) {
        std::optional<SchnorrQ::Signature> sig;
        {
          Span s(tr, "dsa.decode_signature", id);
          sig = scheme_->decode_signature(m[j].wire);
        }
        if (!sig) {
          decoded = false;
          continue;
        }
        items_[j].pub = keys_[m[j].key];
        items_[j].msg = m[j].body;
        items_[j].sig = *sig;
      }
      Span s(tr, "engine.verify", id);
      verdicts = engine_->verify(items_);
    }
    const int64_t t1 = now_ns();
    if (tr) msm_calls_ += registry_counter("curve.msm.calls") - msm0;
    check(b, decoded ? &verdicts : nullptr);
    return {kBurst, t1 - t0};
  }

  void layer_metrics(const Tracer& tr, Metrics& m) override {
    const double bursts = static_cast<double>(tr.count("burst"));
    const double verify_ns = tr.total_ns("engine.verify");
    const double tainted_ns =
        tr.total_ns("engine.verify", [&](uint32_t c) { return tainted_[c] != 0; });
    m.set("engine.verify_us_per_msg", verify_ns / 1e3 / (bursts * kBurst), "us");
    m.set("engine.verify.tainted_time_share", tainted_ns / verify_ns, "ratio");
    if (obs::compiled_in())
      m.set("engine.verify.msm_calls_per_burst", static_cast<double>(msm_calls_) / bursts,
            "count");
    else
      m.unavailable("engine.verify.msm_calls_per_burst", "count");
  }

  std::vector<std::string> report() const override {
    size_t tampered = 0, torsion = 0;
    for (const Msg& m : msgs_) tampered += m.kind == kTampered, torsion += m.kind == kTorsion;
    char line[256];
    std::snprintf(line, sizeof line,
                  "its-verify cycle: %zu bursts x %zu msgs from %zu senders; %zu tampered, "
                  "%zu torsion-key messages; batch verdict != single verify on %zu of %zu "
                  "torsion-key messages (known defect: verify/verify_batch predicates differ)",
                  bursts_, kBurst, kSenders, tampered, torsion, fail_.known, torsion);
    std::vector<std::string> out{line};
    out.insert(out.end(), fail_.notes.begin(), fail_.notes.end());
    return out;
  }

 private:
  static constexpr size_t kSenders = 32, kBurst = 64;
  static constexpr uint8_t kUnseen = 0xff;
  enum Kind : uint8_t { kHonest, kTampered, kTorsion };
  struct Msg {
    uint16_t key = 0;  // index into wire_keys_ / keys_
    Kind kind = kHonest;
    uint8_t expect = 1;  // reference verdict
    std::string body;
    SchnorrQ::EncodedSignature wire{};
  };

  static std::string cam_body(Rng& rng, size_t burst, size_t i, size_t sender) {
    char head[80];
    const int n = std::snprintf(head, sizeof head, "CAM v2 station=%zu burst=%zu seq=%zu ",
                                sender, burst, i);
    std::string s(head, static_cast<size_t>(n));
    while (s.size() < 96) s.push_back(static_cast<char>(rng.next_u64() & 0xff));
    return s;
  }

  // Honest messages must be accepted and tampered ones rejected; a
  // torsion-key message's batch verdict must equal the single-message
  // verdict. Those disagreements are the known failure; any verdict that
  // changes between passes over the cycle is unexpected.
  void check(size_t b, const std::vector<uint8_t>* verdicts) {
    for (size_t j = 0; j < kBurst; ++j) {
      const size_t op = b * kBurst + j;
      const Msg& m = msgs_[op];
      if (!verdicts || verdicts->size() != kBurst) {
        fail_.failed[op] = 1;
        fail_.unexpected = true;
        continue;
      }
      const uint8_t got = (*verdicts)[j];
      if (seen_[op] != kUnseen && seen_[op] != got) {
        fail_.failed[op] = 1;
        fail_.unexpected = true;
        fail_.notes.push_back("its-verify: verdict changed between passes at message " +
                              std::to_string(op));
      }
      const bool first = seen_[op] == kUnseen;
      seen_[op] = got;
      if (got == m.expect) continue;
      if (m.kind == kTorsion) {
        if (first) ++fail_.known;
      } else if (!fail_.failed[op]) {
        fail_.unexpected = true;
        fail_.notes.push_back("its-verify: wrong verdict on " +
                              std::string(m.kind == kHonest ? "honest" : "tampered") +
                              " message " + std::to_string(op));
      }
      fail_.failed[op] = 1;
    }
  }

  size_t bursts_ = 0;
  std::vector<curve::CompressedPoint> wire_keys_;  // fleet, then torsion keys
  std::vector<Msg> msgs_;                          // burst-major
  std::vector<uint8_t> tainted_;                   // per burst: holds a bad message
  std::vector<uint8_t> seen_;                      // first verdict per message

  std::unique_ptr<SchnorrQ> scheme_;
  std::unique_ptr<engine::BatchEngine> engine_;
  std::vector<curve::Affine> keys_;
  std::vector<SchnorrQ::BatchItem> items_;
  uint64_t msm_calls_ = 0;  // registry delta over traced bursts
};

// ---------------------------------------------------------------------------
// engine-farm: the hardware-model farm. Batch sizes are uniform in 1..64;
// jobs are fresh 256-bit scalars over 16 base points; each batch is one
// BatchEngine::run (workers = 1) on the functional SM ROM. Set-up compiles
// that ROM cold: a fresh CompileCache with no disk directory.
//
// Why: 8-lane SoA waves do most of the work, and ragged tails put ~11% of
// jobs (and ~38% of the time) on the scalar decoded::run path. It is the
// only workload where engine run, sched, trace and asic do any work.
// Layer shares (prototype): field + curve formulas in ragged tails ~38%;
// field::lanes most; curve MSM none; dsa none; engine run (waves, ragged
// tails); trace/sched/asic set-up and cycles.
class EngineFarm final : public Workload {
 public:
  void generate(uint64_t seed, bool mini) override {
    const size_t batches = mini ? 64 : 256;
    Rng rng(seed ^ 0xfa53f00dd15c0ull);
    std::vector<curve::Affine> bases;
    for (size_t i = 0; i < kBases; ++i) bases.push_back(curve::deterministic_point(rng.next_u64()));
    jobs_.assign(batches, {});
    first_op_.assign(batches, 0);
    expect_.clear();
    // Every size in 1..64 equally often (each 4 times in the full cycle),
    // in seeded order, so the latency mix is the same for every seed.
    std::vector<size_t> sizes(batches);
    for (size_t b = 0; b < batches; ++b) sizes[b] = 1 + (b * kMaxBatch / batches) % kMaxBatch;
    for (size_t b = batches; b > 1; --b) std::swap(sizes[b - 1], sizes[rng.next_below(b)]);
    for (size_t b = 0; b < batches; ++b) {
      first_op_[b] = expect_.size();
      const size_t n = sizes[b];
      for (size_t j = 0; j < n; ++j) {
        engine::SmJob job{rng.next_u256(), bases[rng.next_below(kBases)]};
        expect_.push_back(curve::to_affine(curve::scalar_mul(job.k, job.base)));
        jobs_[b].push_back(job);
      }
    }
    fail_.reset(cycle_ops());
  }

  uint64_t input_digest() const override {
    Fnv f;
    for (const auto& batch : jobs_)
      for (const engine::SmJob& j : batch) f.u256(j.k), f.fp2(j.base.x), f.fp2(j.base.y);
    return f.h;
  }

  void teardown() override {
    engine_.reset();
    cache_.reset();
  }

  void setup() override {
    cache_ = std::make_unique<engine::CompileCache>();
    engine::EngineOptions opt;
    opt.workers = 1;
    opt.cache = cache_.get();
    engine_ = std::make_unique<engine::BatchEngine>(opt);
    engine_->program();  // cold trace -> schedule -> ROM compile, then decode
  }

  size_t cycle() const override { return jobs_.size(); }
  size_t cycle_ops() const override { return expect_.size(); }

  CallResult call(size_t i, Tracer* tr) override {
    const size_t b = i % jobs_.size();
    const uint32_t id = static_cast<uint32_t>(b);
    const uint64_t ragged0 = tr ? registry_counter("engine.lanes.ragged_jobs") : 0;
    std::vector<engine::SmResult> res;
    const int64_t t0 = now_ns();
    {
      Span root(tr, "batch", id);
      Span s(tr, "engine.run", id);
      res = engine_->run(jobs_[b]);
    }
    const int64_t t1 = now_ns();
    if (tr) ragged_jobs_ += registry_counter("engine.lanes.ragged_jobs") - ragged0;
    for (size_t j = 0; j < jobs_[b].size(); ++j) {
      const size_t op = first_op_[b] + j;
      const bool ok = j < res.size() && same(res[j].out, expect_[op]) &&
                      (sim_cycles_ == 0 || res[j].stats.cycles == sim_cycles_);
      if (ok) {
        sim_cycles_ = res[j].stats.cycles;
      } else if (!fail_.failed[op]) {
        fail_.failed[op] = 1;
        fail_.unexpected = true;
        fail_.notes.push_back("engine-farm: job " + std::to_string(op) +
                              " differs from to_affine(scalar_mul(k, P))");
      }
    }
    return {jobs_[b].size(), t1 - t0};
  }

  void layer_metrics(const Tracer& tr, Metrics& m) override {
    double jobs = 0;
    for (const SpanRecord& s : tr.spans())
      if (std::string_view(s.name) == "batch") jobs += static_cast<double>(jobs_[s.call].size());
    const double run_ns = tr.total_ns("engine.run");
    m.set("engine.run_us_per_job", run_ns / 1e3 / jobs, "us");
    // Ragged jobs take the scalar decoded::run path; each is priced at the
    // probe's cost of one such job.
    if (obs::compiled_in()) {
      const double ragged = static_cast<double>(ragged_jobs_);
      m.set("engine.ragged_job_share", ragged / jobs, "ratio");
      m.set("engine.ragged_time_share",
            ragged * m.find("engine.decoded.job_us")->value * 1e3 / run_ns, "ratio");
    } else {
      m.unavailable("engine.ragged_job_share", "ratio");
      m.unavailable("engine.ragged_time_share", "ratio");
    }
  }

  std::vector<std::string> report() const override {
    char line[160];
    std::snprintf(line, sizeof line,
                  "engine-farm cycle: %zu batches, %zu jobs over %zu bases; "
                  "sim_cycles_per_sm %d (simulated cycles, exact)",
                  jobs_.size(), expect_.size(), kBases, sim_cycles_);
    std::vector<std::string> out{line};
    out.insert(out.end(), fail_.notes.begin(), fail_.notes.end());
    return out;
  }

 private:
  static constexpr size_t kBases = 16, kMaxBatch = 64;

  std::vector<std::vector<engine::SmJob>> jobs_;
  std::vector<size_t> first_op_;       // batch -> index of its first job
  std::vector<curve::Affine> expect_;  // per job: to_affine(scalar_mul(k, P))

  std::unique_ptr<engine::CompileCache> cache_;
  std::unique_ptr<engine::BatchEngine> engine_;
  int sim_cycles_ = 0;
  uint64_t ragged_jobs_ = 0;  // registry delta over traced batches
};

// ---------------------------------------------------------------------------
// msm-stream: zk-scale MSM. Each call is one multi_scalar_mul_stream over
// n = 2^18 terms, pulled from an in-memory 16384-point pool (P + [j]S) with
// fresh 256-bit scalars. Default options: sequential, no pool hook. The
// library has nothing to build before an MSM and the pool is an input, so
// the set-up is empty. The cycle holds 16 distinct calls, about one pass in
// a 20 s run.
//
// Why: lane-kernel bucket insertion takes ~67% of the time, the fold ~18%
// and staging ~13%; the ~24 MB working set is far beyond L2, where the
// other two workloads stay small. No dsa or engine code runs.
// Layer shares (prototype): field + curve formulas in fold and staging
// ~30%; field::lanes most; curve MSM all; dsa none; engine none;
// trace/sched/asic none.
class MsmStream final : public Workload {
 public:
  double elasticity() const override { return kMsmElasticity; }

  void generate(uint64_t seed, bool mini) override {
    calls_ = mini ? 1 : 16;
    seed_ = seed;
    Rng rng(seed ^ 0x35ea11b0b0ull);
    p_ = curve::deterministic_point(rng.next_u64());
    s_ = curve::deterministic_point(rng.next_u64());
    pool_ = msm_pool(p_, s_, kPool);
    expect_.clear();
    for (size_t c = 0; c < calls_; ++c) {
      Rng r(call_seed(c));
      MsmRefAccumulator acc;
      for (size_t t = 0; t < kTerms; ++t) {
        const uint64_t j = r.next_below(kPool);
        acc.add(r.next_u256(), j);
      }
      expect_.push_back(acc.result(p_, s_));
    }
    fail_.reset(cycle_ops());
  }

  uint64_t input_digest() const override {
    Fnv f;
    for (const curve::Affine& q : pool_) f.fp2(q.x), f.fp2(q.y);
    for (size_t c = 0; c < calls_; ++c) f.u64(call_seed(c));
    return f.h;
  }

  void teardown() override {}
  void setup() override {}

  size_t cycle() const override { return calls_; }
  size_t cycle_ops() const override { return calls_ * kTerms; }

  CallResult call(size_t i, Tracer* tr) override {
    const size_t c = i % calls_;
    const uint32_t id = static_cast<uint32_t>(c);
    Rng rng(call_seed(c));
    size_t left = kTerms;
    CallResult res{kTerms};
    int64_t calibration_ns = 0;
    const curve::MsmTermSource src = [&](curve::ScalarPoint* out, size_t max) {
      // A call lasts about a second, longer than the host's speed holds
      // still: sample it between chunks, off the call's clock.
      const int64_t c0 = now_ns();
      res.slowdown_sum += slowdown(host_kernel_ns(), kMsmElasticity);
      res.slowdown_samples++;
      calibration_ns += now_ns() - c0;
      Span s(tr, "source.fill", id);
      const size_t n = std::min(max, left);
      for (size_t t = 0; t < n; ++t) {
        const uint64_t j = rng.next_below(kPool);
        out[t] = curve::ScalarPoint{rng.next_u256(), pool_[j], 256};
      }
      left -= n;
      return n;
    };
    curve::MsmStats st;
    curve::MsmOptions opt;
    opt.stats = &st;
    curve::PointR1 r;
    const int64_t t0 = now_ns();
    {
      Span root(tr, "call", id);
      Span s(tr, "curve.msm_stream", id);
      r = curve::multi_scalar_mul_stream(src, kTerms, opt);
    }
    const int64_t t1 = now_ns();
    if (tr) traced_.push_back(st);
    if (!same(curve::to_affine(r), expect_[c]) && !fail_.failed[c * kTerms]) {
      std::fill(fail_.failed.begin() + static_cast<std::ptrdiff_t>(c * kTerms),
                fail_.failed.begin() + static_cast<std::ptrdiff_t>((c + 1) * kTerms), 1);
      fail_.unexpected = true;
      fail_.notes.push_back("msm-stream: call " + std::to_string(c) +
                            " differs from the reference [sum k]P + [sum k*j]S");
    }
    res.ns = t1 - t0 - calibration_ns;
    return res;
  }

  void layer_metrics(const Tracer& tr, Metrics& m) override {
    // The k-th curve.msm_stream span is the k-th traced call; its scale
    // brings the MsmStats phase times to the reference speed.
    std::vector<double> scale;
    for (const SpanRecord& s : tr.spans())
      if (std::string_view(s.name) == "curve.msm_stream") scale.push_back(s.scale);
    double stage = 0, insert = 0, fold = 0, adds = 0, chunks = 0, waves = 0, peak = 0;
    for (size_t k = 0; k < traced_.size(); ++k) {
      const curve::MsmStats& st = traced_[k];
      stage += st.stage_ms * scale[k];
      insert += st.insert_ms * scale[k];
      fold += st.fold_ms * scale[k];
      adds += static_cast<double>(st.sub_terms) * st.windows;
      chunks += static_cast<double>(st.chunks);
      waves += static_cast<double>(st.bucket_waves);
      peak = std::max(peak, static_cast<double>(st.peak_bytes));
    }
    const double n = static_cast<double>(traced_.size());
    m.set("curve.msm.stage_ms", stage / n, "ms");
    m.set("curve.msm.insert_ms", insert / n, "ms");
    m.set("curve.msm.fold_ms", fold / n, "ms");
    // One bucket insertion per live term per window.
    m.set("curve.msm.insert_ns_per_add", insert * 1e6 / adds, "ns");
    m.set("curve.msm.peak_mb", peak / (1024.0 * 1024.0), "MB");
    m.set("curve.msm.window", traced_.empty() ? 0 : traced_.back().window, "bits");
    m.set("curve.msm.chunks", chunks / n, "count");
    m.set("curve.msm.bucket_waves", waves / n, "count");
  }

  std::vector<std::string> report() const override {
    char line[160];
    std::snprintf(line, sizeof line,
                  "msm-stream cycle: %zu calls x %zu terms from a %zu-point pool", calls_, kTerms,
                  kPool);
    std::vector<std::string> out{line};
    out.insert(out.end(), fail_.notes.begin(), fail_.notes.end());
    return out;
  }

 private:
  static constexpr size_t kPool = 16384, kTerms = size_t{1} << 18;

  uint64_t call_seed(size_t c) const {
    return (seed_ ^ 0x6d736d2d73747265ull) + 0x9e3779b97f4a7c15ull * (c + 1);
  }

  size_t calls_ = 0;
  uint64_t seed_ = 0;
  curve::Affine p_, s_;
  std::vector<curve::Affine> pool_;
  std::vector<curve::Affine> expect_;  // per call

  std::vector<curve::MsmStats> traced_;
};

}  // namespace

size_t FailureLog::count() const {
  size_t n = 0;
  for (uint8_t f : failed) n += f;
  return n;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "its-verify") return std::make_unique<ItsVerify>();
  if (name == "engine-farm") return std::make_unique<EngineFarm>();
  if (name == "msm-stream") return std::make_unique<MsmStream>();
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"its-verify", "engine-farm", "msm-stream"};
  return names;
}

curve::Affine torsion_point(uint64_t seed) {
  const U256& n = curve::candidate_subgroup_order();
  for (uint64_t s = seed;; ++s) {
    const curve::PointR1 t =
        curve::mul_small(196, curve::scalar_mul(n, curve::deterministic_point(s)));
    if (!curve::is_identity(t)) return curve::to_affine(t);
  }
}

void MsmRefAccumulator::add(const U256& k, uint64_t j) {
  unsigned __int128 ck = 0, cj = 0;
  for (size_t i = 0; i < 8; ++i) {
    const uint64_t kw = i < 4 ? k.w[i] : 0;
    ck += static_cast<unsigned __int128>(sum_k[i]) + kw;
    sum_k[i] = static_cast<uint64_t>(ck);
    ck >>= 64;
    cj += static_cast<unsigned __int128>(sum_kj[i]) + static_cast<unsigned __int128>(kw) * j;
    sum_kj[i] = static_cast<uint64_t>(cj);
    cj >>= 64;
  }
}

curve::Affine MsmRefAccumulator::result(const curve::Affine& p, const curve::Affine& s) const {
  const U256 group_order = mul_lo(curve::candidate_subgroup_order(), U256(392));
  U512 a, b;
  a.w = sum_k;
  b.w = sum_kj;
  const curve::PointR1 pa = curve::scalar_mul(mod(a, group_order), p);
  const curve::PointR1 sb = curve::scalar_mul(mod(b, group_order), s);
  return curve::to_affine(curve::add(pa, curve::to_r2(sb)));
}

std::vector<curve::Affine> msm_pool(const curve::Affine& p, const curve::Affine& s, size_t n) {
  const curve::PointR2 step = curve::to_r2(curve::to_r1(s));
  std::vector<curve::PointR1> r1(n);
  if (n) r1[0] = curve::to_r1(p);
  for (size_t j = 1; j < n; ++j) r1[j] = curve::add(r1[j - 1], step);
  return curve::batch_to_affine(r1);
}

void stage_job(const engine::CompiledProgram& prog, const U256& k, const curve::Affine& base,
               curve::Decomposition& dec, curve::RecodedScalar& rec,
               trace::InputBindings& bindings, trace::EvalContext& ctx) {
  dec = curve::decompose(k);
  rec = curve::recode(dec.a);
  bindings = {{prog.in_zero, field::Fp2()},
              {prog.in_one, field::Fp2::from_u64(1)},
              {prog.in_two_d, curve::curve_2d()},
              {prog.in_px, base.x},
              {prog.in_py, base.y}};
  ctx = trace::EvalContext{};
  ctx.recoded = &rec;
  ctx.k_was_even = dec.k_was_even;
}

uint64_t registry_counter(const std::string& name) {
  return obs::global().metrics.counter(name).value();
}

}  // namespace perfbench

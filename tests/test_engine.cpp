// Batch execution engine: compile-cache keying and persistence, the
// pre-decoded executor against the reference simulator, and the worker-pool
// engine against the software golden model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asic/romfile.hpp"
#include "asic/simulator.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "engine/batch.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace fourq {
namespace {

namespace fs = std::filesystem;

engine::CompileKey quick_key() {
  // No inversion: the shortest compilable single-SM program, so keying and
  // concurrency tests stay fast.
  engine::CompileKey key;
  key.trace.endo = trace::EndoVariant::kPaperCost;
  key.trace.include_inversion = false;
  return key;
}

engine::CompileKey functional_key() {
  engine::CompileKey key;
  key.trace.endo = trace::EndoVariant::kFunctional;
  return key;
}

std::string rom_text(const sched::CompiledSm& sm) {
  std::ostringstream os;
  asic::save_rom(sm, os);
  return os.str();
}

TEST(CompileCacheTest, KeyingAcrossBackendsAndConfigs) {
  engine::CompileCache cache;

  engine::CompileKey list_key = quick_key();
  engine::CompileKey seq_key = quick_key();
  seq_key.compile.solver = sched::Solver::kSequential;
  engine::CompileKey lat_key = quick_key();
  lat_key.compile.cfg.mul_latency = 4;

  EXPECT_FALSE(list_key == seq_key);
  EXPECT_FALSE(list_key == lat_key);
  EXPECT_NE(list_key.hash(), seq_key.hash());
  EXPECT_NE(list_key.hash(), lat_key.hash());

  auto p_list = cache.get_or_compile(list_key);
  auto p_seq = cache.get_or_compile(seq_key);
  auto p_lat = cache.get_or_compile(lat_key);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // The three configurations really compiled different artifacts.
  EXPECT_GT(p_seq->sm.cycles(), p_list->sm.cycles());  // no-ILP baseline is slower
  EXPECT_NE(rom_text(p_list->sm), rom_text(p_lat->sm));

  // Same key: served from memory, same object.
  auto p_again = cache.get_or_compile(list_key);
  EXPECT_EQ(p_again.get(), p_list.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CompileCacheTest, DiskRoundTripBitForBit) {
  fs::path dir = fs::temp_directory_path() / "fourq_engine_cache_test";
  fs::remove_all(dir);

  engine::CompileKey key = quick_key();
  std::string mem_rom;
  {
    engine::CompileCache cold(dir.string());
    auto p = cold.get_or_compile(key);
    EXPECT_FALSE(p->loaded_from_disk);
    EXPECT_EQ(cold.stats().misses, 1u);
    mem_rom = rom_text(p->sm);
    EXPECT_TRUE(fs::exists(dir / ("rom-" + key.hash_hex() + ".txt")));
  }
  {
    // A fresh cache (fresh process, as far as the cache can tell) loads the
    // ROM instead of solving, and the bytes agree exactly.
    engine::CompileCache warm(dir.string());
    auto p = warm.get_or_compile(key);
    EXPECT_TRUE(p->loaded_from_disk);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(rom_text(p->sm), mem_rom);
    // Input-op ids come from the (deterministic) trace rebuild.
    EXPECT_GE(p->in_px, 0);
    EXPECT_GE(p->in_py, 0);
  }
  fs::remove_all(dir);
}

TEST(CompileCacheTest, UntrustedDiskRomsAreRejectedAndRewritten) {
  // A stale (another format version), a truncated and a corrupt ROM file:
  // each is counted as a reject, recompiled without throwing, and
  // overwritten, so the next process gets a disk hit with the same bytes.
  fs::path dir = fs::temp_directory_path() / "fourq_engine_cache_reject_test";
  fs::remove_all(dir);
  const engine::CompileKey key = quick_key();
  const fs::path file = dir / ("rom-" + key.hash_hex() + ".txt");
  std::string good;
  {
    engine::CompileCache cold(dir.string());
    good = rom_text(cold.get_or_compile(key)->sm);
  }
  std::string disk_text;
  {
    std::ifstream in(file, std::ios::binary);
    disk_text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::string stale = disk_text;
  stale.replace(stale.find("fourq-rom 3"), 11, "fourq-rom 2");
  std::string corrupt = disk_text;
  corrupt[corrupt.size() / 3] ^= 0x01;
  const std::pair<const char*, std::string> cases[] = {
      {"stale", stale},
      {"truncated", disk_text.substr(0, disk_text.size() / 2)},
      {"corrupt", corrupt},
  };
  for (const auto& [reason, bytes] : cases) {
    SCOPED_TRACE(reason);
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const uint64_t rejects0 =
        obs::global().metrics.counter("engine.cache.disk.reject", {{"reason", reason}}).value();
    engine::CompileCache cache(dir.string());
    auto p = cache.get_or_compile(key);
    EXPECT_FALSE(p->loaded_from_disk);
    EXPECT_EQ(cache.stats().disk_rejects, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(rom_text(p->sm), good);
    if (obs::compiled_in()) {
      EXPECT_EQ(obs::global().metrics.counter("engine.cache.disk.reject", {{"reason", reason}})
                    .value(),
                rejects0 + 1);
    }
    engine::CompileCache warm(dir.string());
    EXPECT_TRUE(warm.get_or_compile(key)->loaded_from_disk);
    EXPECT_EQ(warm.stats().disk_rejects, 0u);
  }
  fs::remove_all(dir);
}

TEST(CompileCacheTest, ConcurrentGetOrCompileCompilesOnce) {
  engine::CompileCache cache;
  engine::CompileKey key = quick_key();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const engine::CompiledProgram>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[static_cast<size_t>(i)] = cache.get_or_compile(key); });
  for (auto& t : threads) t.join();

  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[static_cast<size_t>(i)].get(), got[0].get());
  engine::CompileCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses + s.disk_hits, 1u);
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

// The DecodedTest cases run one job through engine::run, the one-lane wave
// that perfbench's engine.decoded.job_us probe times.
TEST(DecodedTest, MatchesReferenceSimulator) {
  auto prog = engine::CompileCache().get_or_compile(functional_key());

  Rng rng(7);
  curve::Affine base = curve::deterministic_point(2);
  trace::InputBindings bindings;
  trace::bind_sm_inputs(*prog, base, bindings);

  curve::Decomposition dec = curve::decompose(rng.next_u256());
  curve::RecodedScalar rec = curve::recode(dec.a);
  trace::EvalContext ctx;
  ctx.recoded = &rec;
  ctx.k_was_even = dec.k_was_even;

  asic::SimResult ref = asic::simulate(prog->sm, bindings, ctx);

  engine::DecodedRom rom = engine::decode(prog->sm);
  engine::SimWorkspace ws;
  engine::run(rom, bindings, ctx, ws);

  EXPECT_TRUE(engine::output_value(rom, ws, "x") == ref.outputs.at("x"));
  EXPECT_TRUE(engine::output_value(rom, ws, "y") == ref.outputs.at("y"));
  // The decoded stats are derived statically from the control stream; they
  // must equal what the interpreter counts dynamically.
  EXPECT_EQ(rom.stats, ref.stats);
}

TEST(DecodedTest, WorkspaceReuseAcrossJobsIsClean) {
  auto prog = engine::CompileCache().get_or_compile(functional_key());
  engine::DecodedRom rom = engine::decode(prog->sm);
  engine::SimWorkspace ws;
  curve::Affine base = curve::deterministic_point(1);
  trace::InputBindings bindings;
  trace::bind_sm_inputs(*prog, base, bindings);

  Rng rng(99);
  for (int i = 0; i < 3; ++i) {
    curve::Decomposition dec = curve::decompose(rng.next_u256());
    curve::RecodedScalar rec = curve::recode(dec.a);
    trace::EvalContext ctx;
    ctx.recoded = &rec;
    ctx.k_was_even = dec.k_was_even;
    engine::run(rom, bindings, ctx, ws);  // same ws every time
    asic::SimResult ref = asic::simulate(prog->sm, bindings, ctx);
    EXPECT_TRUE(engine::output_value(rom, ws, "x") == ref.outputs.at("x")) << "job " << i;
    EXPECT_TRUE(engine::output_value(rom, ws, "y") == ref.outputs.at("y")) << "job " << i;
  }
}

TEST(BatchEngineTest, MatchesGoldenScalarMulAcross1kScalars) {
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = 4;
  opt.key = functional_key();
  opt.cache = &cache;
  engine::BatchEngine eng(opt);

  constexpr int kJobs = 1000;
  Rng rng(20260806);
  std::vector<engine::SmJob> jobs(kJobs);
  for (int i = 0; i < kJobs; ++i)
    jobs[static_cast<size_t>(i)] =
        engine::SmJob{rng.next_u256(), curve::deterministic_point(1 + i % 5)};

  std::vector<engine::SmResult> results = eng.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  int mismatches = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    curve::Affine sw = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
    if (!(results[i].out.x == sw.x) || !(results[i].out.y == sw.y)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(cache.stats().misses, 1u);  // one compile served the whole batch
}

TEST(BatchEngineTest, RepeatedRunsReuseTheProgram) {
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = 2;
  opt.key = functional_key();
  opt.cache = &cache;
  engine::BatchEngine eng(opt);

  Rng rng(5);
  std::vector<engine::SmJob> jobs(8);
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), curve::deterministic_point(1)};

  std::vector<engine::SmResult> a = eng.run(jobs);
  std::vector<engine::SmResult> b = eng.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].out.x == b[i].out.x);
    EXPECT_TRUE(a[i].out.y == b[i].out.y);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(eng.program().sm.cycles(), a.front().stats.cycles);
}

TEST(BatchEngineTest, VerifyRejectsExactlyTheCorruptedIndices) {
  dsa::SchnorrQ scheme;
  Rng rng(123);

  constexpr int kSigs = 24;
  const std::vector<size_t> corrupted = {3, 11, 17, 23};
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < kSigs; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "engine verify test " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  for (size_t idx : corrupted) items[idx].msg += " tampered";

  engine::EngineOptions opt;
  opt.workers = 3;
  opt.chunk = 6;
  engine::BatchEngine eng(opt);
  std::vector<uint8_t> verdicts = eng.verify(items);

  ASSERT_EQ(verdicts.size(), items.size());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    bool bad = std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end();
    EXPECT_EQ(verdicts[i], bad ? 0 : 1) << "index " << i;
  }
}

TEST(BatchEngineTest, AllValidBatchPasses) {
  dsa::SchnorrQ scheme;
  Rng rng(321);
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "all valid " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  engine::EngineOptions opt;
  opt.workers = 2;
  engine::BatchEngine eng(opt);
  std::vector<uint8_t> verdicts = eng.verify(items);
  for (size_t i = 0; i < verdicts.size(); ++i) EXPECT_EQ(verdicts[i], 1u) << "index " << i;
}

TEST(BatchEngineTest, ParallelForCoversEveryIndexOnceIncludingNested) {
  engine::EngineOptions opt;
  opt.workers = 4;
  engine::BatchEngine eng(opt);

  std::vector<std::atomic<int>> hits(257);
  eng.parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;

  // Nested fan-out from inside a fan-out body: the inner caller self-drains,
  // so this must complete even when every worker is already occupied.
  std::atomic<int> inner_total{0};
  eng.parallel_for(8, [&](size_t) {
    eng.parallel_for(16, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);

  eng.parallel_for(0, [](size_t) { FAIL() << "body must not run for n=0"; });
}

TEST(BatchEngineTest, VerifyBisectionHoldsAcrossMsmBackends) {
  // Corrupted-index isolation must survive the backend choice and the
  // nested MSM fan-out that multi-worker verification triggers, both for a
  // lone forgery (named by the index-weighted MSM) and for several
  // (bisection).
  dsa::SchnorrQ scheme;
  Rng rng(456);
  constexpr int kSigs = 32;
  std::vector<dsa::SchnorrQ::BatchItem> honest;
  for (int i = 0; i < kSigs; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "backend bisection " + std::to_string(i);
    honest.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }

  using curve::MsmBackend;
  for (const std::vector<size_t>& corrupted : {std::vector<size_t>{0, 13, 31}, {13}}) {
    std::vector<dsa::SchnorrQ::BatchItem> items = honest;
    for (size_t idx : corrupted) items[idx].msg += " tampered";
    for (MsmBackend b : {MsmBackend::kAuto, MsmBackend::kStraus, MsmBackend::kPippenger}) {
      engine::EngineOptions opt;
      opt.workers = 4;
      opt.msm.backend = b;
      engine::BatchEngine eng(opt);
      std::vector<uint8_t> verdicts = eng.verify(items);
      ASSERT_EQ(verdicts.size(), items.size());
      for (size_t i = 0; i < verdicts.size(); ++i) {
        bool bad = std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end();
        EXPECT_EQ(verdicts[i], bad ? 0 : 1) << "index " << i << " of " << corrupted.size()
                                            << " corrupted, backend "
                                            << curve::msm_backend_name(b);
      }
    }
  }
}

TEST(BatchEngineTest, VerifyRejectsAPairForgedAgainstAKnownWeightSeed) {
  // s0 + 1 and s1 + b with b = -z0/z1 mod N cancel in the residual under
  // weights z0, z1 known in advance: here the first two of the stream a
  // fixed seed gives, which the engine once used for its first chunk.
  dsa::SchnorrQ scheme;
  Rng rng(789);
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "crafted pair " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  const uint64_t known_seed = 0x5eedf00d ^ 0x9e3779b97f4a7c15ull;
  Rng known(known_seed);
  auto weight = [&] {
    U256 z;
    do {
      z = U256(known.next_u64(), known.next_u64(), 0, 0);
    } while (z.is_zero());
    return z;
  };
  const U256 z0 = weight(), z1 = weight();
  const U256& n = scheme.order();
  const U256 b = submod(U256(), mod(mul_wide(z0, invmod(z1, n)), n), n);
  items[0].sig.s = addmod(items[0].sig.s, U256(1), n);
  items[1].sig.s = addmod(items[1].sig.s, b, n);
  for (size_t i : {0, 1}) EXPECT_FALSE(scheme.verify(items[i].pub, items[i].msg, items[i].sig));

  // Under the known weights the pair passes: the weights must be secret.
  std::vector<uint8_t> replayed(items.size());
  Rng replay(known_seed);
  scheme.verify_each(items, replayed, replay);
  EXPECT_EQ(replayed[0], 1);
  EXPECT_EQ(replayed[1], 1);

  engine::BatchEngine eng;
  const std::vector<uint8_t> verdicts = eng.verify(items);
  ASSERT_EQ(verdicts.size(), items.size());
  for (size_t i = 0; i < verdicts.size(); ++i) EXPECT_EQ(verdicts[i], i < 2 ? 0 : 1) << i;
}

TEST(BatchEngineTest, VerifyWeightStreamsDependOnEveryKeyWord) {
  // The engine's verify tasks take their Rng state from a 256-bit key, so
  // each word must reach the weights; the first two outputs of xoshiro256**
  // never read the last word, the next ones do.
  auto stream = [](uint64_t last) {
    Rng rng(0x243f6a8885a308d3ull, 0x13198a2e03707344ull, 0xa4093822299f31d0ull, last);
    std::vector<uint64_t> out(4);
    for (uint64_t& v : out) v = rng.next_u64();
    return out;
  };
  EXPECT_NE(stream(1), stream(2));
  EXPECT_THROW(Rng(0, 0, 0, 0), std::logic_error);
}

TEST(BatchEngineTest, EmptyBatchesAreNoOps) {
  engine::EngineOptions opt;
  opt.key = functional_key();
  engine::CompileCache cache;
  opt.cache = &cache;
  engine::BatchEngine eng(opt);
  EXPECT_TRUE(eng.run({}).empty());
  EXPECT_TRUE(eng.verify({}).empty());
  EXPECT_EQ(cache.stats().misses, 0u);  // nothing compiled for empty work
}

// Random jobs over five bases with their software golden outputs.
struct GoldenJobs {
  std::vector<engine::SmJob> jobs;
  std::vector<curve::Affine> expect;  // to_affine(scalar_mul(k, P))

  GoldenJobs(size_t n, uint64_t seed) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      jobs.push_back(engine::SmJob{rng.next_u256(), curve::deterministic_point(1 + i % 5)});
      expect.push_back(curve::to_affine(curve::scalar_mul(jobs.back().k, jobs.back().base)));
    }
  }
  bool matches(size_t i, const engine::SmResult& r) const {
    return r.out.x == expect[i].x && r.out.y == expect[i].y;
  }
};

engine::EngineOptions functional_options(engine::CompileCache& cache, int workers) {
  engine::EngineOptions opt;
  opt.workers = workers;
  opt.key = functional_key();
  opt.cache = &cache;
  return opt;
}

TEST(BatchEngineTest, PaddedWavesMatchGoldenForEveryBatchSize) {
  // Every job runs in a run_lanes wave. A task's last, partial wave runs
  // with only its live lanes (avx512 computes the dead ones from lane 0).
  // Each ragged batch is followed by a full one on the same engine, so a
  // dead lane leaking into a later wave would show up there as a wrong
  // output.
  const GoldenJobs pool(32, 20261017);
  engine::CompileCache cache;
  obs::Registry& reg = obs::global().metrics;
  for (const auto& [workers, chunk] : {std::pair<int, size_t>{1, 0}, {2, 0}, {2, 3}}) {
    engine::EngineOptions opt = functional_options(cache, workers);
    opt.chunk = chunk;
    engine::BatchEngine eng(opt);
    for (size_t n = 1; n <= 17; ++n) {
      for (const bool full : {false, true}) {
        const size_t len = full ? 8 : n;
        const size_t first = full ? 16 + 3 * n : 7 * n;
        std::vector<size_t> idx(len);
        std::vector<engine::SmJob> jobs(len);
        for (size_t j = 0; j < len; ++j) {
          idx[j] = (first + j) % pool.jobs.size();
          jobs[j] = pool.jobs[idx[j]];
        }
        const uint64_t waves0 = reg.counter("engine.lanes.waves").value();
        const uint64_t ragged0 = reg.counter("engine.lanes.ragged_jobs").value();
        const std::vector<engine::SmResult> res = eng.run(jobs);
        ASSERT_EQ(res.size(), len);
        for (size_t j = 0; j < len; ++j)
          EXPECT_TRUE(pool.matches(idx[j], res[j]))
              << "workers " << workers << " chunk " << chunk << " batch " << len << " job " << j;
        if (!obs::compiled_in()) continue;
        // Default chunks are wave-aligned, so only a batch's last len % 8
        // jobs share a partial wave; chunk = 3 makes every task one.
        const uint64_t waves = chunk ? (len + chunk - 1) / chunk : (len + 7) / 8;
        const uint64_t ragged = chunk ? len : len % 8;
        EXPECT_EQ(reg.counter("engine.lanes.waves").value() - waves0, waves)
            << "workers " << workers << " chunk " << chunk << " batch " << len;
        EXPECT_EQ(reg.counter("engine.lanes.ragged_jobs").value() - ragged0, ragged)
            << "workers " << workers << " chunk " << chunk << " batch " << len;
      }
    }
  }
}

TEST(BatchEngineTest, RejectsOffCurveBasesBeforeAnyJobRuns) {
  const GoldenJobs good(12, 77);
  engine::CompileCache cache;
  engine::BatchEngine eng(functional_options(cache, 2));

  std::vector<engine::SmJob> jobs = good.jobs;
  jobs[5].base = curve::Affine{field::Fp2::from_u64(1), field::Fp2::from_u64(2)};
  ASSERT_FALSE(curve::on_curve(jobs[5].base));
  obs::Registry& reg = obs::global().metrics;
  const uint64_t sm0 = reg.counter("engine.jobs.sm").value();
  try {
    eng.run(jobs);
    ADD_FAILURE() << "run() accepted an off-curve base";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 5 "), std::string::npos) << e.what();
  }
  EXPECT_EQ(reg.counter("engine.jobs.sm").value(), sm0);  // no job ran

  const std::vector<engine::SmResult> res = eng.run(good.jobs);
  ASSERT_EQ(res.size(), good.jobs.size());
  for (size_t i = 0; i < res.size(); ++i) EXPECT_TRUE(good.matches(i, res[i])) << "job " << i;
}

TEST(BatchEngineTest, ParallelForForwardsBodyExceptionsAfterEveryIndexRan) {
  engine::CompileCache cache;
  engine::BatchEngine eng(functional_options(cache, 4));

  // Every body sleeps a little, so helpers are still busy when index 0
  // (the caller's first claim) throws: parallel_for may only rethrow once
  // all of them finished, since they use this frame's captures.
  constexpr size_t kN = 64, kThrowAt = 0;
  std::vector<std::atomic<int>> started(kN);
  std::atomic<size_t> finished{0};
  try {
    eng.parallel_for(kN, [&](size_t i) {
      started[i].fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (i == kThrowAt) throw std::runtime_error("body failed");
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "parallel_for swallowed the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body failed");
  }
  EXPECT_EQ(finished.load(), kN - 1);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(started[i].load(), 1) << "index " << i;

  const GoldenJobs good(9, 31);
  const std::vector<engine::SmResult> res = eng.run(good.jobs);
  ASSERT_EQ(res.size(), good.jobs.size());
  for (size_t i = 0; i < res.size(); ++i) EXPECT_TRUE(good.matches(i, res[i])) << "job " << i;
}

TEST(BatchEngineTest, WorkerTaskExceptionsReachTheCaller) {
  // The verify tasks' MSM fan-out hook throws on a worker thread: verify()
  // must rethrow it to the caller instead of terminating the process.
  dsa::SchnorrQ scheme;
  Rng rng(99);
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "worker exception " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  engine::CompileCache cache;
  engine::EngineOptions opt = functional_options(cache, 2);
  opt.chunk = 4;
  opt.msm.backend = curve::MsmBackend::kPippenger;
  opt.msm.parallel = [](size_t, const std::function<void(size_t)>&) {
    throw std::runtime_error("msm hook failed");
  };
  engine::BatchEngine eng(opt);
  EXPECT_THROW(eng.verify(items), std::runtime_error);

  const GoldenJobs good(3, 41);
  const std::vector<engine::SmResult> res = eng.run(good.jobs);
  ASSERT_EQ(res.size(), good.jobs.size());
  for (size_t i = 0; i < res.size(); ++i) EXPECT_TRUE(good.matches(i, res[i])) << "job " << i;
}

// ---------------------------------------------------------------------------
// Lifecycle telemetry: the engine's queue/worker instrumentation must account
// for every task exactly once.

TEST(BatchEngineTest, LifecycleMetricsAccountForEveryTask) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  obs::Registry& reg = obs::global().metrics;

  constexpr int kWorkers = 4;
  constexpr int kJobs = 32;
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = kWorkers;
  opt.chunk = 1;  // one task per job, so task counts are exact
  opt.key = functional_key();  // run() needs the full program (affine outputs)
  opt.cache = &cache;
  std::vector<engine::SmJob> jobs(kJobs,
                                  engine::SmJob{U256(7), curve::deterministic_point(1)});
  {
    engine::BatchEngine eng(opt);
    eng.run(jobs);
  }

  // Every sm task passed through both lifecycle histograms exactly once.
  obs::HistogramStats wait =
      reg.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).stats();
  obs::HistogramStats svc =
      reg.latency_histogram("engine.job.service_us", {{"kind", "sm"}}).stats();
  EXPECT_EQ(wait.count, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(svc.count, static_cast<uint64_t>(kJobs));
  EXPECT_GT(svc.sum, 0.0);
  EXPECT_LE(svc.quantile(0.5), svc.quantile(0.99));

  // Per-worker counters partition the same tasks, and utilisation is a
  // fraction.
  uint64_t tasks = 0;
  for (int w = 0; w < kWorkers; ++w) {
    obs::Labels wl{{"worker", std::to_string(w)}};
    tasks += reg.counter("engine.worker.tasks", wl).value();
    double util = reg.gauge("engine.worker.utilisation", wl).value();
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
  }
  EXPECT_EQ(tasks, static_cast<uint64_t>(kJobs));

  // The queue drained fully and recorded a real high-water mark.
  EXPECT_DOUBLE_EQ(reg.gauge("engine.queue.depth").value(), 0.0);
  EXPECT_GE(reg.gauge("engine.queue.depth.max").value(), 1.0);

  // Worker task completions landed in the flight recorder (bounded memory).
  bool saw_task = false;
  for (const obs::FlightRecorder::Event& e : obs::global().flight.snapshot())
    if (e.kind == obs::FlightKind::kTask && e.name == "engine.task.sm") saw_task = true;
  EXPECT_TRUE(saw_task);
}

TEST(BatchEngineTest, BackpressureStallsAreCounted) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  obs::Registry& reg = obs::global().metrics;

  // One slow worker behind a 2-slot ring: the producer must block while
  // enqueueing 64 single-job tasks.
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.chunk = 1;
  opt.key = functional_key();
  opt.cache = &cache;
  std::vector<engine::SmJob> jobs(64, engine::SmJob{U256(9), curve::deterministic_point(2)});
  {
    engine::BatchEngine eng(opt);
    eng.run(jobs);
  }
  EXPECT_GT(reg.counter("engine.queue.backpressure.stalls").value(), 0u);
  EXPECT_GT(reg.counter("engine.queue.backpressure.wait_us").value(), 0u);
}

TEST(BatchEngineTest, TeardownLoopLeavesNoSpanOrphans) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  obs::SpanTracer& spans = obs::global().spans;
  {
    obs::ScopedSpan anchor(spans, "test.anchor");
  }
  const size_t base_threads = spans.tracked_threads();

  // Pools shrink and regrow across engine lifetimes; each cycle creates and
  // joins fresh worker threads while the calling thread traces engine.run
  // spans. No bookkeeping may accumulate.
  engine::CompileCache cache;
  std::vector<engine::SmJob> jobs(8, engine::SmJob{U256(3), curve::deterministic_point(1)});
  for (int round = 0; round < 4; ++round) {
    engine::EngineOptions opt;
    opt.workers = 2 + round;
    opt.key = functional_key();
    opt.cache = &cache;
    engine::BatchEngine eng(opt);
    eng.run(jobs);
  }
  EXPECT_EQ(spans.tracked_threads(), base_threads);
  EXPECT_EQ(spans.open_stacks(), 0u);
  EXPECT_EQ(spans.count("engine.run"), 4u);
  EXPECT_EQ(spans.abandoned_spans(), 0u);
}

}  // namespace
}  // namespace fourq

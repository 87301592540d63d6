#include "engine/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "asic/romfile.hpp"
#include "common/check.hpp"
#include "common/fnv.hpp"
#include "obs/obs.hpp"

namespace fourq::engine {

namespace {

// Every field that feeds trace construction or compilation, flattened in a
// fixed order. Keep in sync with key_tuple() below.
void mix_key(Fnv1a& f, const CompileKey& k) {
  f.mix(static_cast<uint64_t>(k.trace.endo));
  f.mix(k.trace.include_inversion ? 1 : 0);
  f.mix(static_cast<uint64_t>(k.trace.digits));
  f.mix(static_cast<uint64_t>(k.compile.solver));
  const sched::MachineConfig& c = k.compile.cfg;
  f.mix(static_cast<uint64_t>(c.mul_latency));
  f.mix(static_cast<uint64_t>(c.mul_ii));
  f.mix(static_cast<uint64_t>(c.addsub_latency));
  f.mix(static_cast<uint64_t>(c.num_multipliers));
  f.mix(static_cast<uint64_t>(c.num_addsubs));
  f.mix(static_cast<uint64_t>(c.rf_read_ports));
  f.mix(static_cast<uint64_t>(c.rf_write_ports));
  f.mix(static_cast<uint64_t>(c.rf_size));
  f.mix(c.forwarding ? 1 : 0);
  const sched::AnnealOptions& a = k.compile.anneal;
  f.mix(static_cast<uint64_t>(a.iterations));
  f.mix_double(a.t_start);
  f.mix_double(a.t_end);
  f.mix(a.seed);
  f.mix(static_cast<uint64_t>(a.restart_interval));
  const sched::BnbOptions& b = k.compile.bnb;
  f.mix(static_cast<uint64_t>(b.node_limit));
  f.mix(static_cast<uint64_t>(b.upper_bound));
}

auto key_tuple(const CompileKey& k) {
  const sched::MachineConfig& c = k.compile.cfg;
  const sched::AnnealOptions& a = k.compile.anneal;
  const sched::BnbOptions& b = k.compile.bnb;
  return std::make_tuple(
      static_cast<int>(k.trace.endo),
      k.trace.include_inversion, k.trace.digits, static_cast<int>(k.compile.solver),
      c.mul_latency, c.mul_ii, c.addsub_latency, c.num_multipliers, c.num_addsubs,
      c.rf_read_ports, c.rf_write_ports, c.rf_size, c.forwarding, a.iterations,
      a.t_start, a.t_end, a.seed, a.restart_interval, b.node_limit, b.upper_bound);
}

std::string rom_path(const std::string& dir, const CompileKey& key) {
  return dir + "/rom-" + key.hash_hex() + ".txt";
}

// What a disk ROM must have been compiled from: the key and the traced
// program (ops, select tables, outputs). A ROM whose fingerprint differs
// was built by another trace builder or for a colliding key.
uint64_t program_fingerprint(const CompileKey& key, const trace::Program& p) {
  Fnv1a f;
  mix_key(f, key);
  return trace::fingerprint(p, f);
}

const char* reject_reason(asic::RomFileError::Reason r) {
  switch (r) {
    case asic::RomFileError::Reason::kVersion:
      return "stale";
    case asic::RomFileError::Reason::kTruncated:
      return "truncated";
    case asic::RomFileError::Reason::kCorrupt:
      break;
  }
  return "corrupt";
}

}  // namespace

uint64_t CompileKey::hash() const {
  Fnv1a f;
  mix_key(f, *this);
  return f.h;
}

std::string CompileKey::hash_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash()));
  return buf;
}

bool CompileKey::operator==(const CompileKey& o) const {
  return key_tuple(*this) == key_tuple(o);
}

bool CompileKey::operator<(const CompileKey& o) const {
  return key_tuple(*this) < key_tuple(o);
}

std::shared_ptr<const CompiledProgram> CompileCache::get_or_compile(const CompileKey& key) {
  std::shared_ptr<Entry> entry;
  bool created = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = entries_[key];
    if (!slot) {
      slot = std::make_shared<Entry>();
      created = true;
    }
    entry = slot;
  }
  bool disk_reject = false;
  std::call_once(entry->once, [&] { entry->prog = build(key, disk_reject); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (disk_reject) ++stats_.disk_rejects;
    if (created) {
      if (entry->prog->loaded_from_disk) {
        // A disk hit is still a cache hit: no scheduler solve happened.
        ++stats_.disk_hits;
        FOURQ_COUNTER_INC("engine.cache.disk.hit");
        FOURQ_COUNTER_INC("engine.cache.hit");
      } else {
        ++stats_.misses;
        FOURQ_COUNTER_INC("engine.cache.miss");
      }
    } else {
      ++stats_.hits;
      FOURQ_COUNTER_INC("engine.cache.hit");
    }
    FOURQ_GAUGE_SET("engine.cache.size", entries_.size());
  }
  return entry->prog;
}

std::shared_ptr<const CompiledProgram> CompileCache::build(const CompileKey& key,
                                                           bool& disk_reject) {
  auto prog = std::make_shared<CompiledProgram>();
  prog->key = key;

  // Trace construction is deterministic and cheap relative to the solver;
  // it runs even on a disk hit because the input-op ids live in the trace.
  const trace::SmTrace traced = trace::build_sm_trace(key.trace);
  prog->in_zero = traced.in_zero;
  prog->in_one = traced.in_one;
  prog->in_two_d = traced.in_two_d;
  prog->in_px = traced.in_px;
  prog->in_py = traced.in_py;
  prog->in_endo_consts = traced.in_endo_consts;

  // Fingerprinted only with a disk directory: nothing else reads it.
  const uint64_t fingerprint = disk_dir_.empty() ? 0 : program_fingerprint(key, traced.program);
  if (!disk_dir_.empty()) {
    std::ifstream is(rom_path(disk_dir_, key), std::ios::binary);
    if (is) {
      const char* reason = "stale";
      try {
        uint64_t stored = 0;
        sched::CompiledSm sm = asic::load_rom(is, &stored);
        if (stored == fingerprint && !sm.preload.empty()) {
          prog->sm = std::move(sm);
          prog->loaded_from_disk = true;
          return prog;
        }
        if (stored == fingerprint) reason = "corrupt";  // a ROM with no preloads
      } catch (const asic::RomFileError& e) {
        reason = reject_reason(e.reason());
      }
      disk_reject = true;
#if FOURQ_OBS_ENABLED
      obs::global().metrics.counter("engine.cache.disk.reject", {{"reason", reason}}).inc();
#endif
    }
  }

  prog->sm = sched::compile_program(traced.program, key.compile).sm;

  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    if (!ec) {
      // Write-then-rename so a concurrent reader never sees a torn file.
      std::string final_path = rom_path(disk_dir_, key);
      std::string tmp_path = final_path + ".tmp" + std::to_string(
          static_cast<unsigned long long>(key.hash() ^ reinterpret_cast<uintptr_t>(prog.get())));
      {
        std::ofstream os(tmp_path, std::ios::binary);
        if (os) asic::save_rom(prog->sm, os, fingerprint);
      }
      std::filesystem::rename(tmp_path, final_path, ec);
      if (ec) std::filesystem::remove(tmp_path, ec);
    }
  }
  return prog;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void CompileCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

CompileCache& CompileCache::process_cache() {
  static CompileCache cache = [] {
    const char* dir = std::getenv("FOURQ_ROM_CACHE_DIR");
    return (dir && *dir) ? CompileCache(dir) : CompileCache();
  }();
  return cache;
}

}  // namespace fourq::engine

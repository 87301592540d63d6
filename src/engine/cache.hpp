// Compile cache: memoises the whole trace → schedule → regalloc → ROM
// pipeline, so the expensive offline flow (the part the paper runs once per
// chip, §III-C) runs at most once per distinct configuration per process —
// and, with a disk directory attached, at most once per machine.
//
// The cache key is the full set of inputs that determine the compiled
// artifact: endomorphism variant, trace shape, solver choice
// (with its options) and every MachineConfig field. Trace construction is
// deterministic given those descriptors, so the key never needs to hash
// program bytes; two processes with equal keys build identical programs and
// therefore identical ROMs (the solvers are seeded and deterministic).
//
// Disk format reuses asic/romfile's text serialisation ("fourq-rom 3"),
// which round-trips CompiledSm exactly; a disk hit rebuilds only the cheap
// trace (for input-op ids) and skips the scheduler entirely — no
// sched.compile / sched.solve spans are emitted on that path, which is how
// `fourqc batch` proves a warm start. The file's header carries a
// fingerprint of the key and of the rebuilt trace, and its trailer a
// content checksum. A file of another format version or fingerprint
// (stale), without its trailer (truncated) or failing its checksum or
// parse (corrupt) is never used: it counts as
// engine.cache.disk.reject{reason} and the program is compiled again and
// written over it.
//
// Thread safety: get_or_compile may be called concurrently; each key
// compiles exactly once (later callers block on the per-entry latch and
// share the result).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::engine {

// Keys the single-SM program (one scalar multiplication per simulation).
struct CompileKey {
  trace::SmTraceOptions trace;  // endo variant, inversion, digit count
  sched::CompileOptions compile;  // MachineConfig + solver + solver options

  // FNV-1a over every field above. Used for the disk-cache filename and as
  // a cheap first-level discriminator; in-memory lookups compare full keys.
  uint64_t hash() const;
  std::string hash_hex() const;  // 16 lowercase hex digits

  bool operator==(const CompileKey& o) const;
  bool operator<(const CompileKey& o) const;
};

// A compiled program plus the input-op ids the runtime must bind. The ids
// come from the (deterministic) trace, so they are part of the cached
// artifact even when the ROM itself was loaded from disk.
struct CompiledProgram {
  CompileKey key;
  sched::CompiledSm sm;
  int in_zero = -1, in_one = -1, in_two_d = -1;
  int in_px = -1, in_py = -1;
  std::vector<int> in_endo_consts;  // kPaperCost placeholder constants
  bool loaded_from_disk = false;    // provenance (engine.cache.disk.hit)
};

class CompileCache {
 public:
  CompileCache() = default;
  // `disk_dir` non-empty: ROMs are persisted as <disk_dir>/rom-<hash>.txt
  // and picked up by later processes. The directory is created on demand.
  explicit CompileCache(std::string disk_dir) : disk_dir_(std::move(disk_dir)) {}

  std::shared_ptr<const CompiledProgram> get_or_compile(const CompileKey& key);

  struct Stats {
    uint64_t hits = 0;          // served from memory
    uint64_t misses = 0;        // required a full compile
    uint64_t disk_hits = 0;     // ROM loaded from disk (solver skipped)
    uint64_t disk_rejects = 0;  // disk ROM found but not trusted (recompiled)
  };
  Stats stats() const;
  size_t size() const;
  void clear();  // drops entries; stats keep accumulating

  const std::string& disk_dir() const { return disk_dir_; }

  // The process-global cache shared by fourqc, the benches and the engine.
  // Attach a disk directory by setting $FOURQ_ROM_CACHE_DIR before first use.
  static CompileCache& process_cache();

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const CompiledProgram> prog;
  };

  std::shared_ptr<const CompiledProgram> build(const CompileKey& key, bool& disk_reject);

  std::string disk_dir_;
  mutable std::mutex mu_;
  std::map<CompileKey, std::shared_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace fourq::engine

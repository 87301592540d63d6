// Microcode ROM tooling: human-readable disassembly, control-word size
// accounting (ties the ROM block of the area model to the emitted
// program), and a text serialisation format so compiled programs can be
// stored and reloaded by host tooling (the "program ROM image" the paper's
// flow ultimately produces).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sched/microcode.hpp"

namespace fourq::asic {

// Pretty listing of [from, from+count) control words (count < 0 = all).
std::string disassemble(const sched::CompiledSm& sm, int from = 0, int count = -1);

struct RomStats {
  int words = 0;
  int src_bits = 0;        // bits per operand source selector
  int word_bits = 0;       // total control-word width
  double total_kbits = 0;  // words * word_bits / 1000
  int mul_issue_slots = 0;
  int addsub_issue_slots = 0;
  int writeback_slots = 0;
};

RomStats rom_stats(const sched::CompiledSm& sm);

// A ROM file this build cannot trust. kVersion: another format version;
// kTruncated: the checksum trailer is missing (a cut file); kCorrupt: the
// checksum does not match, or the checksummed body does not parse. A
// std::logic_error, like the library's other malformed-input failures.
class RomFileError : public std::logic_error {
 public:
  enum class Reason : uint8_t { kVersion, kTruncated, kCorrupt };
  RomFileError(Reason reason, const std::string& what)
      : std::logic_error(what), reason_(reason) {}
  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

// Text serialisation, "fourq-rom 3" (round-trips exactly; see tests). The
// header line carries the format version and a caller-chosen fingerprint
// of the program the ROM was compiled from (0 when none is given); a
// trailer line carries the FNV-1a checksum of every byte before it.
void save_rom(const sched::CompiledSm& sm, std::ostream& os, uint64_t fingerprint = 0);
// Loads a ROM or throws RomFileError; never returns a ROM whose bytes
// differ from what save_rom wrote. `fingerprint`, when given, receives the
// header's.
sched::CompiledSm load_rom(std::istream& is, uint64_t* fingerprint = nullptr);

}  // namespace fourq::asic

#include "asic/romfile.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/check.hpp"
#include "common/fnv.hpp"

namespace fourq::asic {

using sched::CompiledSm;
using sched::CtrlWord;
using sched::SrcSel;
using sched::UnitCtrl;
using sched::WbCtrl;
using trace::OpKind;
using trace::SelKind;

namespace {

const char* opkind_name(OpKind k) {
  switch (k) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kConj: return "conj";
    case OpKind::kMul: return "mul";
    default: return "?";
  }
}

std::string src_str(const SrcSel& s) {
  switch (s.kind) {
    case SrcSel::Kind::kReg:
      return "r" + std::to_string(s.reg);
    case SrcSel::Kind::kMulBus:
      return "Mbus" + std::to_string(s.unit);
    case SrcSel::Kind::kAddBus:
      return "Sbus" + std::to_string(s.unit);
    case SrcSel::Kind::kIndexed:
      return "T[" + std::to_string(s.map) + "]@" + std::to_string(s.iter);
    case SrcSel::Kind::kNone:
      return "-";
  }
  return "?";
}

int bits_for(int n) { return n <= 1 ? 1 : static_cast<int>(std::ceil(std::log2(n))); }

// --- serialisation helpers -------------------------------------------------

constexpr int kRomVersion = 3;
constexpr std::string_view kTrailer = "checksum ";

uint64_t checksum(std::string_view bytes) {
  Fnv1a f;
  f.bytes(bytes);
  return f.h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_src(std::ostream& os, const SrcSel& s) {
  os << static_cast<int>(s.kind) << ' ' << s.reg << ' ' << s.map << ' ' << s.iter << ' '
     << s.unit;
}

// Reads the checksummed body. Any failed extraction or out-of-range field
// is kCorrupt: the checksum already matched, so the writer and this reader
// disagree, and nothing of the file can be trusted.
class BodyReader {
 public:
  explicit BodyReader(const std::string& text) : is_(text), size_(text.size()) {}

  template <typename T>
  T value() {
    T v{};
    if (!(is_ >> v)) fail("unreadable field");
    return v;
  }
  int in_range(int lo, int hi) {
    const int v = value<int>();
    if (v < lo || v > hi) fail("field out of range");
    return v;
  }
  // An element count: each element takes at least two bytes of text.
  size_t count() {
    const size_t n = value<size_t>();
    if (n > size_ / 2) fail("count larger than the file");
    return n;
  }
  void tag(const char* want) {
    if (value<std::string>() != want) fail(std::string("missing '") + want + "' section");
  }
  bool at_end() {
    is_ >> std::ws;
    return is_.eof();
  }
  SrcSel src() {
    SrcSel s;
    s.kind = static_cast<SrcSel::Kind>(in_range(0, static_cast<int>(SrcSel::Kind::kIndexed)));
    s.reg = value<int>();
    s.map = value<int>();
    s.iter = value<int>();
    s.unit = value<int>();
    return s;
  }
  [[noreturn]] static void fail(const std::string& what) {
    throw RomFileError(RomFileError::Reason::kCorrupt, "corrupt ROM file: " + what);
  }

 private:
  std::istringstream is_;
  size_t size_;
};

}  // namespace

std::string disassemble(const CompiledSm& sm, int from, int count) {
  std::ostringstream os;
  int end = count < 0 ? sm.cycles() : std::min(sm.cycles(), from + count);
  for (int t = from; t < end; ++t) {
    const CtrlWord& w = sm.rom[static_cast<size_t>(t)];
    os << "c" << t << ":";
    for (size_t i = 0; i < w.mul.size(); ++i)
      os << "  MUL" << w.mul[i].unit << " " << src_str(w.mul[i].a) << ", "
         << src_str(w.mul[i].b);
    for (size_t i = 0; i < w.addsub.size(); ++i)
      os << "  " << opkind_name(w.addsub[i].op) << w.addsub[i].unit << " "
         << src_str(w.addsub[i].a)
         << (w.addsub[i].op == OpKind::kConj ? "" : ", " + src_str(w.addsub[i].b));
    for (const WbCtrl& wb : w.writebacks)
      os << "  wb r" << wb.reg << "<-" << (wb.from_mul ? "M" : "S") << wb.unit;
    os << '\n';
  }
  return os.str();
}

RomStats rom_stats(const CompiledSm& sm) {
  RomStats st;
  st.words = sm.cycles();
  st.mul_issue_slots = sm.cfg.num_multipliers;
  st.addsub_issue_slots = sm.cfg.num_addsubs;
  st.writeback_slots = sm.cfg.rf_write_ports;
  // Source selector: 2 kind bits + max(reg addr, map index + digit slot).
  int reg_bits = bits_for(sm.cfg.rf_size);
  int map_bits = bits_for(static_cast<int>(sm.select_maps.size())) +
                 bits_for(std::max(1, sm.iterations));
  st.src_bits = 2 + std::max(reg_bits, map_bits);
  int unit_bits = 2;  // opcode per addsub slot
  int per_mul = 1 + 2 * st.src_bits;             // valid + two sources
  int per_add = 1 + unit_bits + 2 * st.src_bits; // valid + op + two sources
  int per_wb = 1 + 1 + reg_bits;                 // valid + class + target
  st.word_bits = st.mul_issue_slots * per_mul + st.addsub_issue_slots * per_add +
                 st.writeback_slots * per_wb;
  st.total_kbits = static_cast<double>(st.words) * st.word_bits / 1000.0;
  return st;
}

void save_rom(const CompiledSm& sm, std::ostream& os, uint64_t fingerprint) {
  std::ostringstream body;
  body << "fourq-rom " << kRomVersion << ' ' << hex64(fingerprint) << '\n';
  body << sm.cfg.mul_latency << ' ' << sm.cfg.mul_ii << ' ' << sm.cfg.addsub_latency << ' '
       << sm.cfg.num_multipliers << ' ' << sm.cfg.num_addsubs << ' ' << sm.cfg.rf_read_ports
       << ' ' << sm.cfg.rf_write_ports << ' ' << sm.cfg.rf_size << ' '
       << (sm.cfg.forwarding ? 1 : 0) << '\n';
  body << sm.rf_slots << ' ' << sm.iterations << '\n';

  body << "preload " << sm.preload.size() << '\n';
  for (const auto& [op, reg] : sm.preload) body << op << ' ' << reg << '\n';

  body << "outputs " << sm.outputs.size() << '\n';
  for (const auto& [name, reg] : sm.outputs) body << name << ' ' << reg << '\n';

  body << "maps " << sm.select_maps.size() << '\n';
  for (const auto& m : sm.select_maps) {
    body << static_cast<int>(m.kind) << ' ' << m.reg.size() << '\n';
    for (const auto& variant : m.reg) {
      body << variant.size();
      for (int r : variant) body << ' ' << r;
      body << '\n';
    }
  }

  body << "rom " << sm.rom.size() << '\n';
  for (const CtrlWord& w : sm.rom) {
    body << w.mul.size() << ' ' << w.addsub.size() << ' ' << w.writebacks.size() << '\n';
    for (const std::vector<UnitCtrl>* units : {&w.mul, &w.addsub}) {
      for (const UnitCtrl& u : *units) {
        body << static_cast<int>(u.op) << ' ' << u.unit << ' ';
        write_src(body, u.a);
        body << ' ';
        write_src(body, u.b);
        body << '\n';
      }
    }
    for (const WbCtrl& wb : w.writebacks)
      body << wb.reg << ' ' << (wb.from_mul ? 1 : 0) << ' ' << wb.unit << '\n';
  }
  const std::string text = body.str();
  os << text << kTrailer << hex64(checksum(text)) << '\n';
}

CompiledSm load_rom(std::istream& is, uint64_t* fingerprint) {
  const std::string file{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  // The header first, so a file of another format version reads as that.
  {
    std::istringstream head(file.substr(0, file.find('\n')));
    std::string magic;
    int version = 0;
    head >> magic >> version;
    if (magic != "fourq-rom") BodyReader::fail("bad header");
    if (version != kRomVersion)
      throw RomFileError(RomFileError::Reason::kVersion,
                         "ROM file format " + std::to_string(version) + ", expected " +
                             std::to_string(kRomVersion));
  }
  // The trailer is the last line: "checksum <16 hex digits>\n".
  const size_t trailer_len = kTrailer.size() + 16 + 1;
  if (file.size() < trailer_len || file.back() != '\n' ||
      file.compare(file.size() - trailer_len, kTrailer.size(), kTrailer) != 0)
    throw RomFileError(RomFileError::Reason::kTruncated, "truncated ROM file (no checksum)");
  const std::string body = file.substr(0, file.size() - trailer_len);
  if (file.compare(file.size() - 17, 16, hex64(checksum(body))) != 0)
    BodyReader::fail("checksum mismatch");

  BodyReader in(body);
  CompiledSm sm;
  in.value<std::string>();  // magic and version, checked above
  in.value<int>();
  const std::string fp_hex = in.value<std::string>();
  if (fingerprint) *fingerprint = std::strtoull(fp_hex.c_str(), nullptr, 16);
  sm.cfg.mul_latency = in.in_range(1, 1 << 16);
  sm.cfg.mul_ii = in.in_range(1, 1 << 16);
  sm.cfg.addsub_latency = in.in_range(1, 1 << 16);
  sm.cfg.num_multipliers = in.in_range(1, 255);
  sm.cfg.num_addsubs = in.in_range(1, 255);
  sm.cfg.rf_read_ports = in.value<int>();
  sm.cfg.rf_write_ports = in.value<int>();
  sm.cfg.rf_size = in.value<int>();
  sm.cfg.forwarding = in.in_range(0, 1) != 0;
  sm.rf_slots = in.in_range(0, 1 << 16);
  sm.iterations = in.value<int>();

  in.tag("preload");
  for (size_t i = in.count(); i > 0; --i) {
    const int op = in.value<int>();
    sm.preload.emplace_back(op, in.value<int>());
  }

  in.tag("outputs");
  for (size_t i = in.count(); i > 0; --i) {
    std::string name = in.value<std::string>();
    sm.outputs.emplace_back(std::move(name), in.value<int>());
  }

  in.tag("maps");
  for (size_t i = in.count(); i > 0; --i) {
    sched::SelectMap m;
    m.kind = static_cast<SelKind>(in.in_range(0, static_cast<int>(SelKind::kCorrection)));
    for (size_t v = in.count(); v > 0; --v) {
      std::vector<int> regs(in.count());
      for (auto& r : regs) r = in.value<int>();
      m.reg.push_back(std::move(regs));
    }
    sm.select_maps.push_back(std::move(m));
  }

  in.tag("rom");
  sm.rom.resize(in.count());
  const int max_op = static_cast<int>(OpKind::kMul);
  for (auto& w : sm.rom) {
    const size_t nm = in.count(), na = in.count(), nw = in.count();
    auto read_unit = [&]() {
      UnitCtrl u;
      u.op = static_cast<OpKind>(in.in_range(0, max_op));
      u.unit = in.value<int>();
      u.a = in.src();
      u.b = in.src();
      return u;
    };
    for (size_t i = 0; i < nm; ++i) w.mul.push_back(read_unit());
    for (size_t i = 0; i < na; ++i) w.addsub.push_back(read_unit());
    for (size_t i = 0; i < nw; ++i) {
      WbCtrl wb;
      wb.reg = in.value<int>();
      wb.from_mul = in.in_range(0, 1) != 0;
      wb.unit = in.value<int>();
      w.writebacks.push_back(wb);
    }
  }
  if (!in.at_end()) BodyReader::fail("trailing data");
  return sm;
}

}  // namespace fourq::asic

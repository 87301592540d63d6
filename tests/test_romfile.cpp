// Tests for microcode ROM disassembly, size accounting and serialisation.
#include "asic/romfile.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "asic/simulator.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::asic {
namespace {

sched::CompileResult compiled_body() {
  return sched::compile_program(trace::build_loop_body_trace().program, {});
}

TEST(RomFile, DisassemblyMentionsEveryUnit) {
  auto r = compiled_body();
  std::string listing = disassemble(r.sm);
  EXPECT_NE(listing.find("MUL0"), std::string::npos);
  EXPECT_NE(listing.find("add0"), std::string::npos);
  EXPECT_NE(listing.find("wb r"), std::string::npos);
  // One line per cycle.
  EXPECT_EQ(static_cast<int>(std::count(listing.begin(), listing.end(), '\n')),
            r.sm.cycles());
}

TEST(RomFile, DisassemblyRangeSelection) {
  auto r = compiled_body();
  std::string two = disassemble(r.sm, 0, 2);
  EXPECT_EQ(std::count(two.begin(), two.end(), '\n'), 2);
  EXPECT_NE(two.find("c0:"), std::string::npos);
  EXPECT_NE(two.find("c1:"), std::string::npos);
}

TEST(RomFile, StatsSaneAndConsistentWithConfig) {
  auto r = compiled_body();
  RomStats st = rom_stats(r.sm);
  EXPECT_EQ(st.words, r.sm.cycles());
  EXPECT_EQ(st.mul_issue_slots, 1);
  EXPECT_GT(st.word_bits, 20);
  EXPECT_LT(st.word_bits, 200);
  EXPECT_NEAR(st.total_kbits, st.words * st.word_bits / 1000.0, 1e-9);
}

TEST(RomFile, SaveLoadRoundTripsStructurally) {
  auto r = compiled_body();
  std::stringstream ss;
  save_rom(r.sm, ss);
  sched::CompiledSm back = load_rom(ss);
  EXPECT_EQ(back.cycles(), r.sm.cycles());
  EXPECT_EQ(back.rf_slots, r.sm.rf_slots);
  EXPECT_EQ(back.preload, r.sm.preload);
  EXPECT_EQ(back.outputs, r.sm.outputs);
  EXPECT_EQ(disassemble(back), disassemble(r.sm));
}

TEST(RomFile, ReloadedRomExecutesIdentically) {
  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kPaperCost;
  trace::SmTrace sm = trace::build_sm_trace(topt);
  sched::CompileResult r = sched::compile_program(sm.program, {});

  std::stringstream ss;
  save_rom(r.sm, ss);
  sched::CompiledSm back = load_rom(ss);

  curve::Affine p = curve::deterministic_point(42);
  trace::InputBindings b;
  b.emplace_back(sm.in_zero, curve::Fp2());
  b.emplace_back(sm.in_one, curve::Fp2::from_u64(1));
  b.emplace_back(sm.in_two_d, curve::curve_2d());
  b.emplace_back(sm.in_px, p.x);
  b.emplace_back(sm.in_py, p.y);
  for (size_t i = 0; i < sm.in_endo_consts.size(); ++i)
    b.emplace_back(sm.in_endo_consts[i], curve::Fp2::from_u64(23 + i, 29 + i));

  U256 k(987654321);
  curve::Decomposition dec = curve::decompose(k);
  curve::RecodedScalar rec = curve::recode(dec.a);
  trace::EvalContext ctx{&rec, dec.k_was_even};
  SimResult a1 = simulate(r.sm, b, ctx);
  SimResult a2 = simulate(back, b, ctx);
  EXPECT_EQ(a1.outputs.at("x"), a2.outputs.at("x"));
  EXPECT_EQ(a1.outputs.at("y"), a2.outputs.at("y"));
  EXPECT_EQ(a1.stats.cycles, a2.stats.cycles);
}

TEST(RomFile, RejectsBadHeader) {
  std::stringstream ss("not-a-rom 9\n");
  EXPECT_THROW(load_rom(ss), std::logic_error);
}

TEST(RomFile, RejectsTruncatedFile) {
  auto r = compiled_body();
  std::stringstream ss;
  save_rom(r.sm, ss);
  std::string text = ss.str();
  std::stringstream cut(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_rom(cut), std::logic_error);
}

TEST(RomFile, TypedErrorsNameTheDefect) {
  auto r = compiled_body();
  std::stringstream ss;
  save_rom(r.sm, ss, 0x1234abcd);
  const std::string text = ss.str();
  auto reason_of = [](const std::string& file) {
    std::stringstream in(file);
    try {
      load_rom(in);
    } catch (const RomFileError& e) {
      return static_cast<int>(e.reason());
    }
    return -1;
  };
  std::string v2 = text;
  v2.replace(v2.find("fourq-rom 3"), 11, "fourq-rom 2");
  EXPECT_EQ(reason_of(v2), static_cast<int>(RomFileError::Reason::kVersion));
  EXPECT_EQ(reason_of(text.substr(0, text.size() - 30)),
            static_cast<int>(RomFileError::Reason::kTruncated));
  std::string flipped = text;
  flipped[text.size() / 2] ^= 0x04;
  EXPECT_EQ(reason_of(flipped), static_cast<int>(RomFileError::Reason::kCorrupt));

  std::stringstream in(text);
  uint64_t fingerprint = 0;
  load_rom(in, &fingerprint);
  EXPECT_EQ(fingerprint, 0x1234abcdu);
}

TEST(RomFile, FuzzedFilesThrowTypedErrorsOrLoadIdentically) {
  // Every truncation length and a seeded run of byte and bit flips: each
  // input either throws RomFileError or loads the very ROM that was saved.
  auto r = compiled_body();
  std::stringstream ss;
  save_rom(r.sm, ss);
  const std::string text = ss.str();
  const std::string want = disassemble(r.sm);
  size_t thrown = 0, loaded = 0;
  auto probe = [&](const std::string& file) {
    std::stringstream in(file);
    try {
      const sched::CompiledSm back = load_rom(in);
      ASSERT_EQ(disassemble(back), want);
      ASSERT_EQ(back.preload, r.sm.preload);
      ASSERT_EQ(back.outputs, r.sm.outputs);
      ++loaded;
    } catch (const RomFileError&) {
      ++thrown;
    }
  };
  for (size_t len = 0; len <= text.size(); ++len) probe(text.substr(0, len));
  Rng rng(20261018);
  for (int i = 0; i < 4000; ++i) {
    std::string file = text;
    const size_t at = rng.next_below(file.size());
    if (i % 2 == 0)
      file[at] = static_cast<char>(file[at] ^ (1 << rng.next_below(8)));
    else
      file[at] = static_cast<char>(1 + rng.next_below(255));
    probe(file);
  }
  // The full-length truncation is the file itself; a flip may rewrite a
  // byte with its own value.
  EXPECT_GE(loaded, 1u);
  EXPECT_GT(thrown, text.size());
}

}  // namespace
}  // namespace fourq::asic

// Cross-feature tests: the looped controller's segments through the ROM
// serialisation and disassembly tooling, counter-indexed reads included.
#include <gtest/gtest.h>

#include <sstream>

#include "asic/looped.hpp"
#include "asic/romfile.hpp"

namespace fourq::asic {
namespace {

int counter_reads(const sched::CompiledSm& sm) {
  int n = 0;
  for (const sched::CtrlWord& w : sm.rom) {
    for (const auto& u : w.mul)
      n += trace::is_counter_iter(u.a.iter) + trace::is_counter_iter(u.b.iter);
    for (const auto& u : w.addsub)
      n += trace::is_counter_iter(u.a.iter) + trace::is_counter_iter(u.b.iter);
  }
  return n;
}

// The default body and the unroll-5 body, whose counter-relative digit
// reads (counter - 0 .. counter - 4) must survive save_rom / load_rom.
TEST(LoopedRomFile, BodySegmentSerialises) {
  LoopedSmOptions unrolled;
  unrolled.body_unroll = 5;
  for (const LoopedSmOptions& opt : {LoopedSmOptions{}, unrolled}) {
    SCOPED_TRACE("unroll " + std::to_string(opt.body_unroll));
    LoopedSm sm = build_looped_sm(opt);
    std::stringstream ss;
    save_rom(sm.body, ss);
    sched::CompiledSm back = load_rom(ss);
    EXPECT_EQ(back.cycles(), sm.body.cycles());
    EXPECT_EQ(disassemble(back), disassemble(sm.body));
    EXPECT_GT(counter_reads(back), 0);
  }
}

TEST(LoopedRomFile, BodyDisassemblyShowsIndexedReads) {
  LoopedSm sm = build_looped_sm({});
  std::string listing = disassemble(sm.body);
  // Digit-addressed table reads appear as T[map]@iter with the counter
  // sentinel (-2).
  EXPECT_NE(listing.find("T["), std::string::npos);
  EXPECT_NE(listing.find("@-2"), std::string::npos);
}

// Every operand's iteration field of the unroll-5 body comes back from
// the fourq-rom image word for word, the deepest offset, counter - 4,
// included.
TEST(LoopedRomFile, CounterReadsSurvivePacking) {
  LoopedSmOptions opt;
  opt.body_unroll = 5;
  LoopedSm sm = build_looped_sm(opt);
  std::stringstream ss;
  save_rom(sm.body, ss);
  sched::CompiledSm back = load_rom(ss);
  ASSERT_EQ(back.rom.size(), sm.body.rom.size());
  const int deepest = trace::counter_iter_with_offset(opt.body_unroll - 1);
  bool read_deepest = false;
  for (size_t t = 0; t < back.rom.size(); ++t) {
    const sched::CtrlWord& got = back.rom[t];
    const sched::CtrlWord& orig = sm.body.rom[t];
    ASSERT_EQ(got.mul.size(), orig.mul.size());
    for (size_t i = 0; i < got.mul.size(); ++i) {
      EXPECT_EQ(got.mul[i].a.iter, orig.mul[i].a.iter);
      EXPECT_EQ(got.mul[i].b.iter, orig.mul[i].b.iter);
      read_deepest |= got.mul[i].a.iter == deepest || got.mul[i].b.iter == deepest;
    }
    ASSERT_EQ(got.addsub.size(), orig.addsub.size());
    for (size_t i = 0; i < got.addsub.size(); ++i) {
      EXPECT_EQ(got.addsub[i].a.iter, orig.addsub[i].a.iter);
      EXPECT_EQ(got.addsub[i].b.iter, orig.addsub[i].b.iter);
      read_deepest |= got.addsub[i].a.iter == deepest || got.addsub[i].b.iter == deepest;
    }
  }
  EXPECT_GT(counter_reads(back), 0);
  EXPECT_TRUE(read_deepest);
}

}  // namespace
}  // namespace fourq::asic

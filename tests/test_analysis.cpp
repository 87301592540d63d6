// Tests for the static microcode verifier: clean ROMs lint clean across
// solvers, and every seeded defect in the mutation matrix is caught with
// the right diagnostic class.
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>

#include "analysis/range/range.hpp"
#include "asic/looped.hpp"
#include "obs/obs.hpp"
#include "sched/compile.hpp"
#include "sched/modulo.hpp"
#include "trace/sm_trace.hpp"

namespace fourq::analysis {
namespace {

bool has_rule(const LintReport& r, Rule rule) {
  for (const Finding& f : r.findings)
    if (f.rule == rule) return true;
  return false;
}

struct BodyRom {
  trace::LoopBodyTrace body;
  sched::CompileResult res;

  explicit BodyRom(sched::Solver solver = sched::Solver::kList)
      : body(trace::build_loop_body_trace()) {
    sched::CompileOptions copt;
    copt.solver = solver;
    res = sched::compile_program(body.program, copt);
  }
};

// The loop-body trace takes its table entry pre-selected (plain inputs), so
// digit-addressed reads only exist in the full SM program; share one
// compilation across the select/taint tests.
struct SmRom {
  trace::SmTrace sm;
  sched::CompileResult res;
  SmRom() : sm(trace::build_sm_trace({})) { res = sched::compile_program(sm.program, {}); }

  static const SmRom& get() {
    static SmRom r;
    return r;
  }
};

// A register-file slot no control word, preload, output or select map
// touches — reads of it are guaranteed-undefined.
int unused_slot(const sched::CompiledSm& sm) {
  std::set<int> used;
  for (const auto& [op, reg] : sm.preload) used.insert(reg);
  for (const auto& [name, reg] : sm.outputs) used.insert(reg);
  for (const auto& m : sm.select_maps)
    for (const auto& variant : m.reg) used.insert(variant.begin(), variant.end());
  auto use_src = [&](const sched::SrcSel& s) {
    if (s.kind == sched::SrcSel::Kind::kReg) used.insert(s.reg);
  };
  for (const auto& w : sm.rom) {
    for (const auto& u : w.mul) { use_src(u.a); use_src(u.b); }
    for (const auto& u : w.addsub) { use_src(u.a); use_src(u.b); }
    for (const auto& wb : w.writebacks) used.insert(wb.reg);
  }
  for (int r = std::max(sm.cfg.rf_size, sm.rf_slots) - 1; r >= 0; --r)
    if (!used.count(r)) return r;
  ADD_FAILURE() << "no unused register-file slot";
  return -1;
}

TEST(AnalysisClean, LoopBodyAcrossSolvers) {
  for (sched::Solver s : {sched::Solver::kSequential, sched::Solver::kList,
                          sched::Solver::kAnneal}) {
    BodyRom r(s);
    LintReport rep = lint_rom(r.res.sm, r.body.program);
    EXPECT_TRUE(rep.ok()) << lint_text({{"body", rep}});
    EXPECT_TRUE(rep.equivalent);
    EXPECT_TRUE(rep.constant_time);
    EXPECT_EQ(rep.cycles, r.res.sm.cycles());
    EXPECT_EQ(rep.lifted_ops, rep.matched_ops);
    EXPECT_GT(rep.peak_live, 0);
    EXPECT_LE(rep.max_reads_in_cycle, r.res.sm.cfg.rf_read_ports);
    EXPECT_LE(rep.max_writes_in_cycle, r.res.sm.cfg.rf_write_ports);
  }
}

TEST(AnalysisClean, FullScalarMultiplication) {
  trace::SmTrace sm = trace::build_sm_trace({});
  sched::CompileResult res = sched::compile_program(sm.program, {});
  LintReport rep = lint_rom(res.sm, sm.program);
  EXPECT_TRUE(rep.ok()) << lint_text({{"sm", rep}});
  EXPECT_TRUE(rep.equivalent);
  EXPECT_TRUE(rep.constant_time);
  EXPECT_GT(rep.indexed_reads, 0);
  EXPECT_GT(rep.tainted_values, 0);
}

TEST(AnalysisClean, LoopedControllerSegments) {
  asic::LoopedSm sm = asic::build_looped_sm();
  const struct { const char* label; const sched::CompiledSm& rom;
                 const trace::Program& ref; } segs[] = {
      {"prologue", sm.prologue, sm.prologue_program},
      {"body", sm.body, sm.body_program},
      {"epilogue", sm.epilogue, sm.epilogue_program},
  };
  for (const auto& s : segs) {
    LintReport rep = lint_rom(s.rom, s.ref);
    EXPECT_TRUE(rep.ok()) << s.label << ":\n" << lint_text({{s.label, rep}});
    EXPECT_TRUE(rep.equivalent) << s.label;
  }
}

// ---- Seeded-defect matrix -------------------------------------------------

TEST(AnalysisDefects, ClobberedLiveRegister) {
  BodyRom r;
  sched::CompiledSm sm = r.res.sm;
  // Retarget the first writeback onto a preloaded input register that is
  // still read afterwards — its live value is clobbered.
  int wb_cycle = -1;
  for (int t = 0; t < sm.cycles() && wb_cycle < 0; ++t)
    if (!sm.rom[static_cast<size_t>(t)].writebacks.empty()) wb_cycle = t;
  ASSERT_GE(wb_cycle, 0);
  int victim = -1;
  for (const auto& [op, reg] : sm.preload) {
    for (int t = wb_cycle + 1; t < sm.cycles() && victim < 0; ++t)
      for (const auto& u : sm.rom[static_cast<size_t>(t)].addsub)
        if ((u.a.kind == sched::SrcSel::Kind::kReg && u.a.reg == reg) ||
            (u.b.kind == sched::SrcSel::Kind::kReg && u.b.reg == reg))
          victim = reg;
    if (victim >= 0) break;
  }
  ASSERT_GE(victim, 0) << "no preloaded register read after the first writeback";
  sm.rom[static_cast<size_t>(wb_cycle)].writebacks[0].reg = victim;

  LintReport rep = lint_rom(sm, r.body.program);
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.equivalent);
  // Consumers of the clobbered input now feed a value foreign to the DAG
  // (or the original destination is left undefined).
  EXPECT_TRUE(has_rule(rep, Rule::kAlienValue) ||
              has_rule(rep, Rule::kUndefinedRead) ||
              has_rule(rep, Rule::kOutputMismatch))
      << lint_text({{"clobber", rep}});
}

TEST(AnalysisDefects, SwappedWrites) {
  BodyRom r;
  sched::CompiledSm sm = r.res.sm;
  // Swap the destination registers of the first two writebacks that target
  // different slots.
  sched::WbCtrl* first = nullptr;
  for (auto& w : sm.rom) {
    for (auto& wb : w.writebacks) {
      if (!first) {
        first = &wb;
      } else if (wb.reg != first->reg) {
        std::swap(first->reg, wb.reg);
        first = nullptr;
        goto swapped;
      }
    }
  }
swapped:
  ASSERT_EQ(first, nullptr) << "fewer than two distinct writeback targets";
  LintReport rep = lint_rom(sm, r.body.program);
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.equivalent);
}

TEST(AnalysisDefects, RetargetedRead) {
  BodyRom r;
  sched::CompiledSm sm = r.res.sm;
  int dead = unused_slot(sm);
  ASSERT_GE(dead, 0);
  bool retargeted = false;
  for (auto& w : sm.rom) {
    for (auto& u : w.addsub)
      if (u.a.kind == sched::SrcSel::Kind::kReg) {
        u.a.reg = dead;
        retargeted = true;
        break;
      }
    if (retargeted) break;
  }
  ASSERT_TRUE(retargeted);
  LintReport rep = lint_rom(sm, r.body.program);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_rule(rep, Rule::kUndefinedRead)) << lint_text({{"read", rep}});
}

TEST(AnalysisDefects, DroppedWriteback) {
  BodyRom r;
  sched::CompiledSm sm = r.res.sm;
  for (auto& w : sm.rom)
    if (!w.writebacks.empty()) {
      w.writebacks.erase(w.writebacks.begin());
      break;
    }
  LintReport rep = lint_rom(sm, r.body.program);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_rule(rep, Rule::kResultDropped)) << lint_text({{"drop", rep}});
}

TEST(AnalysisDefects, WritePortOverflow) {
  BodyRom r;
  sched::CompiledSm sm = r.res.sm;
  for (auto& w : sm.rom)
    if (!w.writebacks.empty()) {
      while (static_cast<int>(w.writebacks.size()) <= sm.cfg.rf_write_ports)
        w.writebacks.push_back(w.writebacks.front());
      break;
    }
  LintReport rep = lint_rom(sm, r.body.program);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_rule(rep, Rule::kWritePortOverflow)) << lint_text({{"ports", rep}});
}

// A ROM's range verdict rests on `equivalent` (range::cover_rom), so each
// lifting rule that decides it must fail equivalence and leave the ROM
// without an overflow proof.
TEST(AnalysisDefects, LiftRulesFailEquivalenceAndRangeCover) {
  BodyRom r;
  LintReport dag_rep;
  const range::ProgramRanges dag = range::analyze_program(r.body.program, {}, dag_rep);
  ASSERT_TRUE(dag.result.proven) << lint_text({{"dag", dag_rep}});

  auto first_writeback = [](sched::CompiledSm& sm) -> sched::WbCtrl& {
    for (auto& w : sm.rom)
      if (!w.writebacks.empty()) return w.writebacks.front();
    throw std::logic_error("no writeback");
  };
  auto first_issue = [](sched::CompiledSm& sm, bool mul) -> std::pair<int, sched::UnitCtrl*> {
    for (int t = 0; t < sm.cycles(); ++t) {
      sched::CtrlWord& w = sm.rom[static_cast<size_t>(t)];
      auto& units = mul ? w.mul : w.addsub;
      if (!units.empty()) return {t, &units.front()};
    }
    throw std::logic_error("no issue");
  };
  const struct {
    Rule rule;
    std::function<void(sched::CompiledSm&)> mutate;
  } cases[] = {
      {Rule::kRegisterOutOfRange,
       [&](sched::CompiledSm& sm) {
         first_writeback(sm).reg = std::max(sm.cfg.rf_size, sm.rf_slots);
       }},
      {Rule::kInstanceOutOfRange,
       [&](sched::CompiledSm& sm) { first_issue(sm, true).second->unit = sm.cfg.num_multipliers; }},
      {Rule::kForwardingBusEmpty,
       [&](sched::CompiledSm& sm) {
         // Nothing has been issued on an adder yet, so its bus is empty.
         sched::UnitCtrl* u = first_issue(sm, false).second;
         u->a.kind = sched::SrcSel::Kind::kAddBus;
         u->a.unit = 0;
       }},
      {Rule::kPipelineCollision,
       [&](sched::CompiledSm& sm) {
         auto [t, u] = first_issue(sm, true);
         const sched::UnitCtrl twin = *u;  // a second result due on the same instance
         sm.rom[static_cast<size_t>(t)].mul.push_back(twin);
       }},
      {Rule::kWritebackNoResult,
       [&](sched::CompiledSm& sm) {
         sm.rom.front().writebacks.push_back(sched::WbCtrl{0, true, 0});
       }},
      {Rule::kPreloadConflict,
       [&](sched::CompiledSm& sm) {
         const std::pair<int, int> clash{sm.preload[1].first, sm.preload[0].second};
         sm.preload.push_back(clash);
       }},
      {Rule::kMissingValue,
       [&](sched::CompiledSm& sm) { sm.preload.erase(sm.preload.begin()); }},
      {Rule::kOutputMissing,
       [&](sched::CompiledSm& sm) { sm.outputs.erase(sm.outputs.begin()); }},
  };
  for (const auto& c : cases) {
    sched::CompiledSm sm = r.res.sm;
    c.mutate(sm);
    LintReport rep = lint_rom(sm, r.body.program);
    EXPECT_TRUE(has_rule(rep, c.rule)) << rule_name(c.rule) << "\n"
                                       << lint_text({{rule_name(c.rule), rep}});
    EXPECT_FALSE(rep.equivalent) << rule_name(c.rule);
    range::cover_rom(dag, rep);
    EXPECT_TRUE(rep.ranges_checked) << rule_name(c.rule);
    EXPECT_FALSE(rep.ranges_proven) << rule_name(c.rule);
  }
}

// The constant-time property: any per-digit difference in what an indexed
// read observes is a secret-dependent difference and must be flagged.
TEST(AnalysisDefects, DigitDependentRead) {
  const SmRom& r = SmRom::get();
  ASSERT_FALSE(r.res.sm.select_maps.empty());

  {  // One digit value would read an undefined register.
    sched::CompiledSm sm = r.res.sm;
    sm.select_maps[0].reg[0][0] = unused_slot(sm);
    LintReport rep = lint_rom(sm, r.sm.program);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.constant_time);
    EXPECT_TRUE(has_rule(rep, Rule::kSelectCandidateUndefined))
        << lint_text({{"taint", rep}});
  }
  {  // One digit value would read the wrong (but defined) value.
    sched::CompiledSm sm = r.res.sm;
    ASSERT_GE(static_cast<int>(sm.select_maps[0].reg[0].size()), 2);
    sm.select_maps[0].reg[0][0] = sm.select_maps[0].reg[0][1];
    LintReport rep = lint_rom(sm, r.sm.program);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.constant_time);
    EXPECT_TRUE(has_rule(rep, Rule::kSelectCandidateMismatch))
        << lint_text({{"taint", rep}});
  }
  {  // A digit value with no candidate at all (shape differs from the table).
    sched::CompiledSm sm = r.res.sm;
    sm.select_maps[0].reg[0].pop_back();
    LintReport rep = lint_rom(sm, r.sm.program);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.constant_time);
    EXPECT_TRUE(has_rule(rep, Rule::kSelectShapeMismatch))
        << lint_text({{"taint", rep}});
  }
}

TEST(AnalysisWarnings, AdvisoryFindingsDoNotFailLint) {
  BodyRom r;
  sched::CompiledSm sm = r.res.sm;
  int dead = unused_slot(sm);
  ASSERT_GE(dead, 0);
  // Duplicate a completing result into an unused slot: legal, but the slot
  // is never read.
  bool added = false;
  for (auto& w : sm.rom)
    if (w.writebacks.size() == 1) {
      sched::WbCtrl extra = w.writebacks.front();
      extra.reg = dead;
      w.writebacks.push_back(extra);
      added = true;
      break;
    }
  ASSERT_TRUE(added);
  LintReport rep = lint_rom(sm, r.body.program);
  EXPECT_TRUE(rep.ok()) << lint_text({{"warn", rep}});
  EXPECT_TRUE(has_rule(rep, Rule::kNeverReadRegister));
  EXPECT_GT(rep.warnings(), 0);
  EXPECT_TRUE(rep.equivalent);
}

// ---- Modulo steady-state --------------------------------------------------

TEST(AnalysisModulo, CleanKernel) {
  trace::LoopBodyTrace body = trace::build_loop_body_trace();
  sched::Problem pr = sched::build_problem(body.program, {});
  std::vector<int> outs;
  for (const auto& [id, name] : body.program.outputs) {
    (void)name;
    outs.push_back(id);
  }
  auto carried = sched::body_carried_deps(pr, body.q_inputs, outs);

  LintReport rep = lint_modulo(pr, carried);
  EXPECT_TRUE(rep.ok()) << lint_text({{"modulo", rep}});
  EXPECT_TRUE(rep.equivalent);

  sched::ModuloOptions tight;
  tight.max_ii = 1;  // below ResMII: no kernel exists
  LintReport infeasible = lint_modulo(pr, carried, tight);
  EXPECT_FALSE(infeasible.ok());
  EXPECT_TRUE(has_rule(infeasible, Rule::kModuloInfeasible));
}

// ---- Report formats and metrics -------------------------------------------

TEST(AnalysisReport, JsonIsSelfDescribing) {
  const SmRom& r = SmRom::get();
  LintReport good = lint_rom(r.res.sm, r.sm.program);

  sched::CompiledSm bad_sm = r.res.sm;
  bad_sm.select_maps[0].reg[0][0] = unused_slot(bad_sm);
  LintReport bad = lint_rom(bad_sm, r.sm.program);

  std::string json = lint_json({{"loop/list", good}, {"loop/bad", bad}});
  EXPECT_NE(json.find("\"report\":\"fourq.lint.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rules\":["), std::string::npos);
  EXPECT_NE(json.find("select-candidate-undefined"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"loop/list\""), std::string::npos);
  EXPECT_NE(json.find("\"constant_time\":true"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);

  std::string clean_json = lint_json({{"loop/list", good}});
  EXPECT_NE(clean_json.find("\"ok\":true"), std::string::npos);

  std::string text = lint_text({{"loop/list", good}});
  EXPECT_NE(text.find("== loop/list =="), std::string::npos);
  EXPECT_NE(text.find("constant-time certificate yes"), std::string::npos);
}

TEST(AnalysisReport, MetricsFeedTheRegistry) {
  obs::global().metrics.reset();
  BodyRom r;
  LintReport rep = lint_rom(r.res.sm, r.body.program);
  record_lint_metrics("loop/list", rep);
  obs::Registry& m = obs::global().metrics;
  EXPECT_EQ(m.counter("lint.programs").value(), 1u);
  EXPECT_EQ(m.counter("lint.errors").value(), 0u);
  EXPECT_EQ(m.gauge("lint.loop/list.equivalent").value(), 1.0);
  EXPECT_EQ(m.gauge("lint.loop/list.constant_time").value(), 1.0);
}

TEST(AnalysisReport, RuleTablesAreTotal) {
  for (int i = 0; i < kNumRules; ++i) {
    Rule rule = static_cast<Rule>(i);
    EXPECT_STRNE(rule_name(rule), "?");
    EXPECT_GT(std::string(rule_meaning(rule)).size(), 10u);
    severity_name(rule_severity(rule));
  }
}

}  // namespace
}  // namespace fourq::analysis

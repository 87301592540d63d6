#include "asic/explain.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"

namespace fourq::asic {

namespace {

using sched::CtrlWord;
using sched::SrcSel;

constexpr int kRankUnforced = 0;
constexpr int kRankRfPort = 1;
constexpr int kRankIssueWidth = 2;
constexpr int kRankRaw = 3;
constexpr int kRankNone = 4;  // no pending op in scope

StallClass class_of_rank(int rank) {
  switch (rank) {
    case kRankUnforced: return StallClass::kUnforced;
    case kRankRfPort: return StallClass::kRfPort;
    case kRankIssueWidth: return StallClass::kIssueWidth;
    case kRankRaw: return StallClass::kRawHazard;
    default: return StallClass::kDrain;
  }
}

// One issued operation, reconstructed from the ROM + event stream.
struct IssueRec {
  int cycle = 0;
  int unit_class = 0;   // 0 = multiplier, 1 = adder/subtractor
  int ready = 0;        // earliest cycle all consumed operand values existed
  int reads_needed = 0; // RF read ports the issue consumes
  int lat = 0;
};

bool consumes_read_port(const SrcSel& s) {
  return s.kind == SrcSel::Kind::kReg || s.kind == SrcSel::Kind::kIndexed;
}

}  // namespace

const char* stall_class_name(StallClass c) {
  switch (c) {
    case StallClass::kRawHazard: return "raw-hazard";
    case StallClass::kRfPort: return "rf-port";
    case StallClass::kIssueWidth: return "issue-width";
    case StallClass::kDrain: return "drain";
    case StallClass::kUnforced: return "unforced";
  }
  return "?";
}

char stall_class_letter(StallClass c) {
  switch (c) {
    case StallClass::kRawHazard: return 'R';
    case StallClass::kRfPort: return 'P';
    case StallClass::kIssueWidth: return 'W';
    case StallClass::kDrain: return 'D';
    case StallClass::kUnforced: return 'U';
  }
  return '?';
}

const char* stall_class_meaning(StallClass c) {
  switch (c) {
    case StallClass::kRawHazard:
      return "every pending op still waited for an operand value";
    case StallClass::kRfPort:
      return "an op was data-ready but register-file ports were exhausted";
    case StallClass::kIssueWidth:
      return "an op was data-ready but all unit instances were inside their "
             "initiation interval";
    case StallClass::kDrain:
      return "nothing left to issue; in-flight results draining";
    case StallClass::kUnforced:
      return "an op was issuable; the solver left the slot empty";
  }
  return "?";
}

int StallBreakdown::total() const {
  int t = 0;
  for (int c : by_class) t += c;
  return t;
}

StallAttribution attribute_stalls(const sched::CompiledSm& sm,
                                  const std::vector<obs::CycleEvent>& events) {
  const int n_cycles = sm.cycles();
  const sched::MachineConfig& cfg = sm.cfg;

  // Per-cycle view of the event stream: the registers actually read (in
  // operand-resolution order, which matches ROM traversal order) and the
  // kStall markers the conservation check is pinned to.
  std::vector<std::vector<int>> reads_of_cycle(static_cast<size_t>(n_cycles));
  int event_stall_cycles = 0;
  int event_cycles = 0;
  for (const obs::CycleEvent& e : events) {
    switch (e.kind) {
      case obs::SimEventKind::kCycle:
        ++event_cycles;
        break;
      case obs::SimEventKind::kStall:
        ++event_stall_cycles;
        break;
      case obs::SimEventKind::kRfRead:
        FOURQ_CHECK_MSG(e.cycle >= 0 && e.cycle < n_cycles,
                        "event stream cycle outside the ROM");
        reads_of_cycle[static_cast<size_t>(e.cycle)].push_back(e.arg);
        break;
      default:
        break;
    }
  }
  FOURQ_CHECK_MSG(event_cycles == n_cycles,
                  "event stream does not cover the ROM (wrong program or sink?)");

  // Structural replay of the ROM: operand-ready cycles per issue, write-port
  // occupancy per cycle, per-instance multiplier issue history.
  const int max_lat = std::max(cfg.mul_latency, cfg.addsub_latency);
  std::vector<int> avail(static_cast<size_t>(sm.rf_slots), 0);  // preloads: cycle 0
  std::vector<int> writes_at(static_cast<size_t>(n_cycles + max_lat + 1), 0);
  std::vector<std::vector<int>> mul_issue_history(
      static_cast<size_t>(cfg.num_multipliers));
  std::vector<IssueRec> issues;
  std::vector<int> mul_issues_at(static_cast<size_t>(n_cycles), 0);
  std::vector<int> addsub_issues_at(static_cast<size_t>(n_cycles), 0);
  std::vector<int> reads_used(static_cast<size_t>(n_cycles), 0);

  for (int t = 0; t < n_cycles; ++t) {
    const CtrlWord& w = sm.rom[static_cast<size_t>(t)];
    size_t read_idx = 0;
    const std::vector<int>& reads = reads_of_cycle[static_cast<size_t>(t)];
    reads_used[static_cast<size_t>(t)] = static_cast<int>(reads.size());

    auto operand_ready = [&](const SrcSel& s) -> int {
      switch (s.kind) {
        case SrcSel::Kind::kReg:
        case SrcSel::Kind::kIndexed: {
          FOURQ_CHECK_MSG(read_idx < reads.size(),
                          "event stream reads do not align with the ROM");
          int reg = reads[read_idx++];
          FOURQ_CHECK(reg >= 0 && reg < static_cast<int>(avail.size()));
          return avail[static_cast<size_t>(reg)];
        }
        case SrcSel::Kind::kMulBus:
        case SrcSel::Kind::kAddBus:
          // The forwarded value exists only the cycle the producer
          // completes — exactly this cycle.
          return t;
        case SrcSel::Kind::kNone:
          return 0;
      }
      return 0;
    };

    for (const auto& u : w.mul) {
      IssueRec r;
      r.cycle = t;
      r.unit_class = 0;
      r.lat = cfg.mul_latency;
      r.reads_needed = consumes_read_port(u.a) + consumes_read_port(u.b);
      r.ready = std::max(operand_ready(u.a), operand_ready(u.b));
      issues.push_back(r);
      mul_issue_history[static_cast<size_t>(u.unit)].push_back(t);
      ++mul_issues_at[static_cast<size_t>(t)];
    }
    for (const auto& u : w.addsub) {
      IssueRec r;
      r.cycle = t;
      r.unit_class = 1;
      r.lat = cfg.addsub_latency;
      r.reads_needed = consumes_read_port(u.a) +
                       (u.op == trace::OpKind::kConj ? 0 : consumes_read_port(u.b));
      r.ready = u.op == trace::OpKind::kConj
                    ? operand_ready(u.a)
                    : std::max(operand_ready(u.a), operand_ready(u.b));
      issues.push_back(r);
      ++addsub_issues_at[static_cast<size_t>(t)];
    }
    FOURQ_CHECK_MSG(read_idx == reads.size(),
                    "event stream carries reads the ROM does not explain");

    writes_at[static_cast<size_t>(t)] += static_cast<int>(w.writebacks.size());
    for (const auto& wb : w.writebacks)
      avail[static_cast<size_t>(wb.reg)] = t + 1;  // readable from next cycle
  }

  // A multiplier instance is unavailable at t while a previous issue is
  // still inside its initiation interval.
  auto mul_instance_free = [&](int t) {
    for (const std::vector<int>& hist : mul_issue_history) {
      auto it = std::upper_bound(hist.begin(), hist.end(), t);
      if (it == hist.begin()) return true;  // never issued before t
      if (*(it - 1) + cfg.mul_ii <= t) return true;
    }
    return mul_issue_history.empty();
  };

  // Classification sweep. `issues` is sorted by cycle (ROM order); keep a
  // rolling window of pending ops.
  StallAttribution out;
  out.stall_class_of_cycle.assign(static_cast<size_t>(n_cycles), -1);
  size_t first_pending = 0;
  for (int t = 0; t < n_cycles; ++t) {
    while (first_pending < issues.size() && issues[first_pending].cycle <= t)
      ++first_pending;
    const bool full_stall = mul_issues_at[static_cast<size_t>(t)] == 0 &&
                            addsub_issues_at[static_cast<size_t>(t)] == 0;
    const bool mul_idle = mul_issues_at[static_cast<size_t>(t)] == 0;
    const bool addsub_idle = addsub_issues_at[static_cast<size_t>(t)] == 0;
    if (!(full_stall || mul_idle || addsub_idle)) continue;

    int rank_all = kRankNone, rank_mul = kRankNone, rank_addsub = kRankNone;
    for (size_t i = first_pending; i < issues.size(); ++i) {
      const IssueRec& op = issues[i];
      int rank;
      if (op.ready > t) {
        rank = kRankRaw;
      } else if (op.unit_class == 0 && !mul_instance_free(t)) {
        rank = kRankIssueWidth;
      } else if (op.reads_needed >
                     cfg.rf_read_ports - reads_used[static_cast<size_t>(t)] ||
                 writes_at[static_cast<size_t>(t + op.lat)] >= cfg.rf_write_ports) {
        rank = kRankRfPort;
      } else {
        rank = kRankUnforced;
      }
      rank_all = std::min(rank_all, rank);
      (op.unit_class == 0 ? rank_mul : rank_addsub) =
          std::min(op.unit_class == 0 ? rank_mul : rank_addsub, rank);
      if (rank_all == kRankUnforced && rank_mul == kRankUnforced &&
          rank_addsub == kRankUnforced)
        break;  // cannot get lower
    }

    if (full_stall) {
      StallClass c = class_of_rank(rank_all);
      out.stalls.by_class[static_cast<size_t>(c)] += 1;
      out.stall_class_of_cycle[static_cast<size_t>(t)] = static_cast<int8_t>(c);
    }
    if (mul_idle)
      out.mul_idle.by_class[static_cast<size_t>(class_of_rank(rank_mul))] += 1;
    if (addsub_idle)
      out.addsub_idle.by_class[static_cast<size_t>(class_of_rank(rank_addsub))] += 1;
  }

  out.conservation_ok = out.stalls.total() == event_stall_cycles;
  return out;
}

SimStats stats_in_window(const std::vector<obs::CycleEvent>& events, int begin_cycle,
                         int end_cycle) {
  SimStatsSink sink;
  for (const obs::CycleEvent& e : events)
    if (e.cycle >= begin_cycle && e.cycle < end_cycle) sink.on_event(e);
  return sink.stats();
}

std::string render_gantt(const sched::CompiledSm& sm, const StallAttribution& attr,
                         const GanttOptions& opt) {
  const int n = sm.cycles();
  int from = std::max(0, opt.from);
  int last = opt.count < 0 ? n : std::min(n, from + opt.count);
  FOURQ_CHECK(opt.width > 0);

  auto issue_mark = [](int count, char one) -> char {
    if (count == 0) return '.';
    if (count == 1) return one;
    return static_cast<char>('0' + std::min(count, 9));
  };

  std::string out;
  for (int chunk = from; chunk < last; chunk += opt.width) {
    int end = std::min(last, chunk + opt.width);
    std::string ruler = "cycle  ", mul = "mul    ", add = "addsub ", wb = "wb     ",
                stall = "stall  ";
    for (int t = chunk; t < end; ++t) {
      ruler += (t % 10 == 0) ? '|' : (t % 5 == 0 ? '+' : ' ');
      const sched::CtrlWord& w = sm.rom[static_cast<size_t>(t)];
      mul += issue_mark(static_cast<int>(w.mul.size()), 'M');
      add += issue_mark(static_cast<int>(w.addsub.size()), 'A');
      wb += w.writebacks.empty()
                ? '.'
                : static_cast<char>('0' + std::min<int>(9, static_cast<int>(
                                                                w.writebacks.size())));
      int8_t c = attr.stall_class_of_cycle[static_cast<size_t>(t)];
      stall += c < 0 ? '.' : stall_class_letter(static_cast<StallClass>(c));
    }
    char head[64];
    std::snprintf(head, sizeof head, "cycles %d..%d ('|' = multiple of 10)\n", chunk,
                  end - 1);
    out += head;
    out += ruler + "\n" + mul + "\n" + add + "\n" + wb + "\n" + stall + "\n\n";
  }
  return out;
}

}  // namespace fourq::asic

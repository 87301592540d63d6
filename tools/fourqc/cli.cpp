// fourqc — command-line driver for the complete design flow. The first
// argument picks a subcommand (profile, explain, lint, batch, stats, perf);
// without one, fourqc runs the flow itself (flow.cpp). Each subcommand
// accepts only the flags it reads: `fourqc COMMAND --help` lists them.
#include "fourqc/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "curve/point.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"

namespace fourq::cli {

namespace {

[[noreturn]] void usage_error(const std::string& cmd, const std::string& what) {
  std::fprintf(stderr, "%s: %s (see %s --help)\n", cmd.c_str(), what.c_str(), cmd.c_str());
  std::exit(2);
}

size_t value_count(const Flag& f) {
  return f.arg ? 1 + std::count(f.arg, f.arg + std::strlen(f.arg), ' ') : 0;
}

void print_help(const std::string& about, const std::vector<Flag>& flags) {
  std::printf("%s\n", about.c_str());
  for (const Flag& f : flags) {
    std::string lhs = f.name + (f.arg ? std::string(" ") + f.arg : "");
    std::printf("  %-32s %s\n", lhs.c_str(), f.help.c_str());
  }
}

// A flag whose one value goes through `parse`, which returns false when the
// value is bad.
Flag value_flag(std::string name, const char* arg, std::string help,
                std::function<bool(const std::string&)> parse) {
  return {std::move(name), arg, std::move(help),
          [parse = std::move(parse)](char** v) { return parse(v[0]); }};
}

}  // namespace

Flag switch_flag(std::string name, std::string help, bool* dst, bool value) {
  return {std::move(name), nullptr, std::move(help), [dst, value](char**) {
            *dst = value;
            return true;
          }};
}

Flag text_flag(std::string name, const char* arg, std::string help, std::string* dst) {
  return value_flag(std::move(name), arg, std::move(help), [dst](const std::string& v) {
    *dst = v;
    return true;
  });
}

Flag choice_flag(std::string name, const char* arg, std::string help, std::string* dst) {
  return value_flag(std::move(name), arg, std::move(help), [arg, dst](const std::string& v) {
    *dst = v;
    return v.find('|') == std::string::npos &&
           ("|" + std::string(arg) + "|").find("|" + v + "|") != std::string::npos;
  });
}

Flag int_flag(std::string name, std::string help, int* dst, int lo, int hi) {
  return {name, "N", std::move(help), [name, dst, lo, hi](char** v) {
            *dst = static_cast<int>(flag_value(name, v[0], static_cast<uint64_t>(lo),
                                               static_cast<uint64_t>(hi)));
            return true;
          }};
}

Flag hex_flag(std::string name, std::string help, U256* dst) {
  return value_flag(std::move(name), "HEX", std::move(help), [dst](const std::string& v) {
    try {
      *dst = U256::from_hex(v);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  });
}

uint64_t flag_value(const std::string& name, const char* v, uint64_t lo, uint64_t hi) {
  errno = 0;
  char* end = nullptr;
  unsigned long long x = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' || errno == ERANGE ||
      x < lo || x > hi) {
    std::fprintf(stderr, "fourqc: bad %s value: %s\n", name.c_str(), v);
    std::exit(2);
  }
  return x;
}

void Args::reject(const std::string& flag, const std::string& why) const {
  if (has(flag)) usage_error(cmd, flag + " is not used " + why);
}

void Args::needs(const std::string& flag, const std::string& needed) const {
  if (has(flag) && !has(needed)) usage_error(cmd, flag + " needs " + needed);
}

void Args::only(std::initializer_list<const char*> allowed, const std::string& mode) const {
  for (const std::string& flag : seen)
    if (std::find(allowed.begin(), allowed.end(), flag) == allowed.end())
      reject(flag, "with " + mode);
}

Args parse_flags(const std::string& cmd, const std::string& about, int argc, char** argv,
                 const std::vector<Flag>& flags, std::vector<std::string>* positional) {
  Args args{cmd, {}};
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      print_help(about, flags);
      std::exit(0);
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags)
      if (f.name == a) flag = &f;
    if (!flag) {
      if (positional && a.rfind("-", 0) != 0) {
        positional->push_back(a);
        continue;
      }
      usage_error(cmd, "unknown option: " + a);
    }
    size_t n = value_count(*flag);
    if (static_cast<size_t>(argc - 1 - i) < n) usage_error(cmd, a + " needs a value");
    if (!flag->set(argv + i + 1)) {
      std::fprintf(stderr, "fourqc: bad %s value: %s\n", a.c_str(), argv[i + 1]);
      std::exit(2);
    }
    i += static_cast<int>(n);
    args.seen.insert(a);
  }
  return args;
}

const char* Flow::variant_name() const {
  return topt.endo == trace::EndoVariant::kFunctional ? "functional" : "paper-cost";
}

engine::CompileKey Flow::key() const {
  engine::CompileKey key;
  key.trace = topt;
  key.compile = copt;
  return key;
}

void add_flow_flags(std::vector<Flag>& flags, Flow& flow, bool with_solver) {
  sched::MachineConfig& cfg = flow.copt.cfg;
  flags.push_back(value_flag("--variant", "functional|paper-cost",
                             "endomorphism phase (default paper-cost; batch: functional)",
                             [&flow](const std::string& v) {
                               flow.topt.endo = v == "functional"
                                                    ? trace::EndoVariant::kFunctional
                                                    : trace::EndoVariant::kPaperCost;
                               return v == "functional" || v == "paper-cost";
                             }));
  flags.push_back(switch_flag("--no-inversion", "skip final affine normalisation",
                              &flow.topt.include_inversion, false));
  if (with_solver)
    flags.push_back(value_flag("--solver", "seq|list|anneal|bnb", "scheduler (default list)",
                               [&flow](const std::string& v) {
                                 return solver_from_name(v, &flow.copt.solver);
                               }));
  flags.push_back(int_flag("--anneal-iters", "SA iterations (default 2000)",
                           &flow.copt.anneal.iterations, 1, kMaxInt));
  const struct {
    const char* name;
    int* dst;
    const char* help;
  } shape[] = {{"--mul-latency", &cfg.mul_latency, "multiplier pipeline depth (default 3)"},
               {"--mul-ii", &cfg.mul_ii, "multiplier initiation interval (default 1)"},
               {"--read-ports", &cfg.rf_read_ports, "register-file read ports (default 4)"},
               {"--write-ports", &cfg.rf_write_ports, "register-file write ports (default 2)"},
               {"--multipliers", &cfg.num_multipliers, "multiplier instances (default 1)"},
               {"--addsubs", &cfg.num_addsubs, "add/sub unit instances (default 1)"}};
  for (const auto& f : shape) flags.push_back(int_flag(f.name, f.help, f.dst, 1, kMaxHw));
  flags.push_back(switch_flag("--no-forwarding", "disable forwarding paths", &cfg.forwarding,
                              false));
}

bool solver_from_name(const std::string& name, sched::Solver* solver) {
  if (name == "seq") *solver = sched::Solver::kSequential;
  else if (name == "list") *solver = sched::Solver::kList;
  else if (name == "anneal") *solver = sched::Solver::kAnneal;
  else if (name == "bnb") *solver = sched::Solver::kBnb;
  else return false;
  return true;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

asic::LoopedSmOptions looped_options(const Flow& flow, const sched::MachineConfig& cfg) {
  asic::LoopedSmOptions lopt;
  lopt.endo = flow.topt.endo;
  lopt.cfg.mul_latency = cfg.mul_latency;
  lopt.cfg.forwarding = cfg.forwarding;
  return lopt;
}

std::vector<power::PhaseWindow> phase_windows(const asic::LoopedSm& lsm) {
  int pro_end = lsm.prologue.cycles();
  int loop_end = pro_end + lsm.iterations * lsm.body.cycles();
  return {{"precompute", 0, pro_end},
          {"loop", pro_end, loop_end},
          {"normalize", loop_end, lsm.total_cycles()}};
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fourqc: cannot open %s\n", path.string().c_str());
    return false;
  }
  out << content;
  return true;
}

bool ensure_out_dir(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "fourqc: cannot create output directory %s%s%s\n",
                 dir.string().c_str(), ec ? ": " : "", ec ? ec.message().c_str() : "");
    return false;
  }
  return true;
}

bool write_metrics(const std::filesystem::path& dir, const Flow& flow) {
  return write_file(dir / "metrics.jsonl",
                    obs::metrics_jsonl(obs::global().metrics, flow.key().hash_hex()));
}

void record_sim_metrics(const std::string& prefix, const asic::SimStats& s) {
  obs::Registry& m = obs::global().metrics;
  m.counter(prefix + ".cycles").inc(static_cast<uint64_t>(s.cycles));
  m.counter(prefix + ".mul_issues").inc(static_cast<uint64_t>(s.mul_issues));
  m.counter(prefix + ".addsub_issues").inc(static_cast<uint64_t>(s.addsub_issues));
  m.counter(prefix + ".rf_reads").inc(static_cast<uint64_t>(s.rf_reads));
  m.counter(prefix + ".rf_writes").inc(static_cast<uint64_t>(s.rf_writes));
  m.counter(prefix + ".forwarded_operands").inc(static_cast<uint64_t>(s.forwarded_operands));
  m.counter(prefix + ".stall_cycles").inc(static_cast<uint64_t>(s.stall_cycles));
  m.gauge(prefix + ".max_reads_in_cycle").set(s.max_reads_in_cycle);
  m.gauge(prefix + ".max_writes_in_cycle").set(s.max_writes_in_cycle);
  m.gauge(prefix + ".mul_utilisation").set(s.mul_utilisation());
  m.gauge(prefix + ".addsub_utilisation").set(s.addsub_utilisation());
}

ProgramUnderTest::ProgramUnderTest(const std::string& name, const trace::SmTraceOptions& topt)
    : loop_mode(name == "loop") {
  if (loop_mode) {
    body = trace::build_loop_body_trace();
    program = body.program;
  } else {
    sm = trace::build_sm_trace(topt);
    program = sm.program;
  }
}

std::vector<sched::CarriedDep> ProgramUnderTest::carried_deps(const sched::Problem& pr) const {
  std::vector<int> outs;
  for (const auto& out : program.outputs) outs.push_back(out.first);
  return sched::body_carried_deps(pr, body.q_inputs, outs);
}

void check_backends(const char* cmd, const std::vector<std::string>& names,
                    std::initializer_list<const char*> extra) {
  for (const std::string& name : names) {
    sched::Solver s;
    if (!solver_from_name(name, &s) && std::find(extra.begin(), extra.end(), name) == extra.end()) {
      std::fprintf(stderr, "fourqc %s: unknown backend '%s'\n", cmd, name.c_str());
      std::exit(2);
    }
  }
}

bool for_each_backend(
    const char* cmd, const std::vector<std::string>& names, const trace::Program& program,
    const sched::Problem& pr, const sched::CompileOptions& copt, const std::string& tag,
    const std::function<bool(const std::string&, const sched::CompileResult&)>& on_rom,
    const std::function<bool(const std::string&)>& on_other, int* best_makespan) {
  int best = -1;
  if (!best_makespan) best_makespan = &best;
  for (const std::string& name : names) {
    sched::CompileOptions c = copt;
    if (!solver_from_name(name, &c.solver)) {
      if (!on_other(name)) return false;
      continue;
    }
    if (c.solver == sched::Solver::kBnb) {
      // Exact search is for block-sized programs on one fully pipelined
      // unit of each kind.
      if (pr.nodes.size() > 64 || c.cfg.num_multipliers != 1 || c.cfg.num_addsubs != 1 ||
          c.cfg.mul_ii != 1) {
        std::fprintf(stderr,
                     "fourqc %s: skipping bnb%s (%zu ops; exact search is for block-sized "
                     "programs on one fully pipelined unit of each kind)\n",
                     cmd, tag.c_str(), pr.nodes.size());
        continue;
      }
      if (*best_makespan > 0) c.bnb.upper_bound = *best_makespan + 1;
    }
    sched::CompileResult r = sched::compile_program(program, c);
    if (*best_makespan < 0 || r.schedule.makespan < *best_makespan)
      *best_makespan = r.schedule.makespan;
    if (!on_rom(name, r)) return false;
  }
  return true;
}

}  // namespace fourq::cli

// Anything thrown past argument parsing (a FOURQ_CHECK on a machine
// configuration the scheduler cannot meet, an allocation failure) is
// reported as an error, exit 1, rather than aborting the process.
int main(int argc, char** argv) {
  using namespace fourq::cli;
  const std::pair<const char*, int (*)(int, char**)> commands[] = {
      {"profile", run_profile}, {"explain", run_explain}, {"lint", run_lint},
      {"batch", run_batch},     {"stats", run_stats},     {"perf", run_perf}};
  try {
    for (const auto& [name, run] : commands)
      if (argc > 1 && std::strcmp(argv[1], name) == 0) return run(argc - 2, argv + 2);
    return run_flow(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fourqc: %s\n", e.what());
    return 1;
  }
}

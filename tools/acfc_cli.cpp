// acfc — command-line driver for the application-driven coordination-free
// checkpointing toolchain. <prog> is a .mp file path or `-w <workload>`
// naming a canonical workload (see `acfc workloads`).
//
//   acfc analyze  <prog>                 run Phases II+III checks, report
//   acfc place    <prog> [-o out.mp]     repair placement (Algorithm 3.2)
//   acfc insert   <prog> [-T sec] [-o f] Phase-I checkpoint insertion
//   acfc run      <prog> [-n N] [--fail P@T ...] [--diagram]
//                        [--trace-out f.json]  chrome://tracing export
//   acfc dot      <prog> [-o out.dot]    extended CFG in Graphviz form
//   acfc faceoff  <prog> [-n N]          run all protocols, print table
//   acfc model    [-n N] [--wm s]        overhead-ratio model point
//   acfc explore  -w W [--driver D] ...  model-check the schedule space
//   acfc explore  --repro f.acfx         replay a counterexample artifact
//   acfc workloads                       list canonical workload names
//
// Exit code 0 on success; 1 on safety violations (analyze), failures, or
// explorer violations / repro mismatches; 2 on usage errors.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "acfc/acfc.h"

namespace {

using namespace acfc;

int usage() {
  std::cerr <<
      "usage:  (<prog> is a .mp file or -w <workload-name>)\n"
      "  acfc analyze  <prog>\n"
      "  acfc place    <prog> [-o out.mp] [--strict]\n"
      "  acfc insert   <prog> [-T seconds] [-o out.mp]\n"
      "  acfc run      <prog> [-n N] [--seed S] [--fail P@T]... "
      "[--diagram] [--trace-out f.json]\n"
      "  acfc dot      <prog> [-o out.dot]\n"
      "  acfc faceoff  <prog> [-n N] [--interval T]\n"
      "  acfc model    [-n N] [--wm seconds]\n"
      "  acfc explore  -w <workload> [--driver name] [-n N] [--seed S]\n"
      "                [--depth K] [--budget N] [--failure-points]\n"
      "                [--max-failures K] [--tie-cap K] [--delay-steps K]\n"
      "                [--delay-quantum s] [--iterations K] [--threads K]\n"
      "                [--walks N] [--cic-stagger F] [--check-cic-index]\n"
      "                [--partition-points] [--partition-window s]\n"
      "                [--stall-points] [--stall-window s]\n"
      "                [--max-partitions K] [--max-stalls K]\n"
      "                [--no-digest] [--no-memo] [--no-shrink] [-o f.acfx]\n"
      "  acfc explore  --repro f.acfx\n"
      "  acfc workloads\n";
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> output;
  std::optional<std::string> workload;
  std::optional<std::string> trace_out;
  int nprocs = 4;
  std::uint64_t seed = 1;
  double interval = 300.0;
  double wm = 2e-3;
  bool strict = false;
  bool diagram = false;
  std::vector<sim::FaultSpec> faults;  ///< --fail P@T, timed crashes
  // explore
  std::optional<std::string> repro;
  std::string driver = "app-driven";
  int depth = 10;
  long budget = 5000;
  int max_failures = 1;
  int tie_cap = 3;
  int delay_steps = 1;
  double delay_quantum = 0.0;
  int iterations = -1;
  int threads = 1;
  long walks = 0;
  double cic_stagger = 0.0;
  bool failure_points = false;
  bool partition_points = false;
  double partition_window = 0.5;
  bool stall_points = false;
  double stall_window = 0.5;
  int max_partitions = 1;
  int max_stalls = 1;
  bool check_cic_index = false;
  bool no_digest = false;
  bool no_memo = false;
  bool no_shrink = false;
};

/// A whole-string number >= lo: no leading blanks or '+', no trailing
/// garbage, no wrap-around, finite (std::stoi and friends accept "4x" as
/// 4, and std::stoull accepts "-1" as 2^64-1).
template <typename T>
std::optional<T> parse_number(const std::string& text, T lo) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < lo) return std::nullopt;
  return value;
}

/// `--fail P@T`: an integer process and a finite time >= 0, nothing
/// trailing. The range of P is checked once -n is known.
std::optional<sim::FaultSpec> parse_fail(const std::string& value) {
  const auto at = value.find('@');
  if (at == std::string::npos) return std::nullopt;
  const auto proc =
      parse_number(value.substr(0, at), std::numeric_limits<int>::min());
  const auto time = parse_number(value.substr(at + 1), 0.0);
  if (!proc || !time) return std::nullopt;
  return sim::FaultPlan::at_time(*proc, *time);
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    // Parses the flag's value into `out`; false (after saying why) if it
    // is missing or not a number >= lo.
    auto number = [&](auto& out, auto lo) {
      const auto v = next();
      if (!v) return false;
      using T = std::decay_t<decltype(out)>;
      const auto value = parse_number<T>(*v, T(lo));
      if (!value) {
        std::cerr << "invalid " << arg << " " << *v << '\n';
        return false;
      }
      out = *value;
      return true;
    };
    if (arg == "-o") {
      auto v = next();
      if (!v) return std::nullopt;
      args.output = *v;
    } else if (arg == "--trace-out") {
      auto v = next();
      if (!v) return std::nullopt;
      args.trace_out = *v;
    } else if (arg == "-w" || arg == "--workload") {
      auto v = next();
      if (!v) return std::nullopt;
      args.workload = *v;
    } else if (arg == "-n") {
      if (!number(args.nprocs, 1)) return std::nullopt;
    } else if (arg == "--seed") {
      if (!number(args.seed, 0)) return std::nullopt;
    } else if (arg == "-T" || arg == "--interval") {
      if (!number(args.interval, std::numeric_limits<double>::min()))
        return std::nullopt;
    } else if (arg == "--wm") {
      if (!number(args.wm, 0.0)) return std::nullopt;
    } else if (arg == "--repro") {
      auto v = next();
      if (!v) return std::nullopt;
      args.repro = *v;
    } else if (arg == "--driver") {
      auto v = next();
      if (!v) return std::nullopt;
      args.driver = *v;
    } else if (arg == "--depth") {
      if (!number(args.depth, 0)) return std::nullopt;
    } else if (arg == "--budget") {
      if (!number(args.budget, 0)) return std::nullopt;
    } else if (arg == "--max-failures") {
      if (!number(args.max_failures, 0)) return std::nullopt;
    } else if (arg == "--tie-cap") {
      if (!number(args.tie_cap, 0)) return std::nullopt;
    } else if (arg == "--delay-steps") {
      if (!number(args.delay_steps, 0)) return std::nullopt;
    } else if (arg == "--delay-quantum") {
      if (!number(args.delay_quantum, 0.0)) return std::nullopt;
    } else if (arg == "--iterations") {
      if (!number(args.iterations, 0)) return std::nullopt;
    } else if (arg == "--threads") {
      if (!number(args.threads, 1)) return std::nullopt;
    } else if (arg == "--walks") {
      if (!number(args.walks, 0)) return std::nullopt;
    } else if (arg == "--cic-stagger") {
      if (!number(args.cic_stagger, 0.0)) return std::nullopt;
    } else if (arg == "--failure-points") {
      args.failure_points = true;
    } else if (arg == "--partition-points") {
      args.partition_points = true;
    } else if (arg == "--partition-window") {
      if (!number(args.partition_window, 0.0)) return std::nullopt;
    } else if (arg == "--stall-points") {
      args.stall_points = true;
    } else if (arg == "--stall-window") {
      if (!number(args.stall_window, 0.0)) return std::nullopt;
    } else if (arg == "--max-partitions") {
      if (!number(args.max_partitions, 0)) return std::nullopt;
    } else if (arg == "--max-stalls") {
      if (!number(args.max_stalls, 0)) return std::nullopt;
    } else if (arg == "--check-cic-index") {
      args.check_cic_index = true;
    } else if (arg == "--no-digest") {
      args.no_digest = true;
    } else if (arg == "--no-memo") {
      args.no_memo = true;
    } else if (arg == "--no-shrink") {
      args.no_shrink = true;
    } else if (arg == "--strict") {
      args.strict = true;
    } else if (arg == "--diagram") {
      args.diagram = true;
    } else if (arg == "--fail") {
      auto v = next();
      if (!v) return std::nullopt;
      const auto fault = parse_fail(*v);
      if (!fault) {
        std::cerr << "invalid --fail " << *v
                  << " (want P@T: integer P, finite time T >= 0)\n";
        return std::nullopt;
      }
      args.faults.push_back(*fault);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << '\n';
      return std::nullopt;
    } else {
      args.positional.push_back(arg);
    }
  }
  for (const sim::FaultSpec& fault : args.faults) {
    if (fault.proc < 0 || fault.proc >= args.nprocs) {
      std::cerr << "invalid --fail " << fault.proc << "@" << fault.time
                << " (process must be in [0, " << args.nprocs << "))\n";
      return std::nullopt;
    }
  }
  return args;
}

/// A program comes from a positional .mp path or `-w <workload-name>`.
mp::Program load_program(const Args& args) {
  if (!args.positional.empty())
    return mp::parse_file(args.positional.at(0));
  if (args.workload) return mp::workload_by_name(*args.workload);
  throw util::ProgramError("no program given (file or -w workload)");
}

bool has_program(const Args& args) {
  return args.positional.size() == 1 ||
         (args.positional.empty() && args.workload.has_value());
}

void write_or_print(const std::optional<std::string>& path,
                    const std::string& text) {
  if (!path) {
    std::cout << text;
    return;
  }
  obs::save_text(*path, text);
  std::cout << "wrote " << *path << '\n';
}

int cmd_analyze(const Args& args) {
  const mp::Program program = load_program(args);
  if (auto problem = cfg::build_cfg(program).check_balance()) {
    std::cout << "UNBALANCED: " << *problem << '\n';
    return 1;
  }
  const match::ExtendedCfg ext = match::build_extended_cfg(program);
  std::cout << "statements:      " << program.stmt_count() << '\n';
  std::cout << "checkpoints:     " << mp::checkpoint_count(program) << '\n';
  std::cout << "message edges:   " << ext.message_edges().size() << '\n';
  const auto check = place::check_condition1(ext);
  std::cout << "violations:      " << check.violations.size() << " ("
            << check.hard_count() << " hard)\n";
  for (const auto& v : check.violations) {
    std::cout << "  S_" << v.index << ": ckpt#" << v.from_ckpt_id << " ⇝ ckpt#"
              << v.to_ckpt_id << (v.hard ? "  [HARD]" : "  [loop-carried]")
              << '\n';
  }
  if (check.hard_count() > 0) {
    std::cout << "verdict: UNSAFE — straight cuts are not recovery lines; "
                 "run `acfc place`\n";
    return 1;
  }
  std::cout << "verdict: safe (straight cuts are recovery lines"
            << (check.violations.empty() ? "" : " for aligned instances")
            << ")\n";
  return 0;
}

int cmd_place(const Args& args) {
  mp::Program program = load_program(args);
  place::RepairOptions ropts;
  if (args.strict) ropts.policy = place::RepairPolicy::kStrict;
  const auto report = place::repair_placement(program, ropts);
  for (const auto& line : report.log) std::cout << "  " << line << '\n';
  std::cout << "moves=" << report.moves << " merges=" << report.merges
            << " hoists=" << report.hoists << '\n';
  if (!report.success) {
    std::cerr << "placement repair failed\n";
    return 1;
  }
  write_or_print(args.output, mp::print(program));
  return 0;
}

int cmd_insert(const Args& args) {
  mp::Program program = load_program(args);
  place::InsertOptions iopts;
  if (args.interval != 300.0) iopts.target_interval = args.interval;
  const int inserted = place::insert_checkpoints(program, iopts);
  place::equalize_checkpoints(program);
  std::cout << "inserted " << inserted << " checkpoints (interval "
            << place::optimal_interval(iopts) << " s)\n";
  write_or_print(args.output, mp::print(program));
  return 0;
}

int cmd_run(const Args& args) {
  const mp::Program program = load_program(args);
  sim::SimOptions opts;
  opts.nprocs = args.nprocs;
  opts.seed = args.seed;
  opts.fault_plan.faults = args.faults;
  obs::Registry registry;
  if (args.trace_out) opts.obs = &registry;
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  if (args.trace_out) {
    obs::save_text(*args.trace_out,
                   obs::to_chrome_trace(registry.snapshot()));
    std::cout << "wrote " << *args.trace_out << '\n';
  }
  std::cout << result.trace.summary() << '\n';
  std::cout << "restarts: " << result.stats.restarts << '\n';
  int bad = 0, cuts = 0;
  for (const auto& cut : trace::all_straight_cuts(result.trace)) {
    ++cuts;
    bad += trace::analyze_cut(result.trace, cut).consistent ? 0 : 1;
  }
  std::cout << "straight cuts: " << cuts << " (" << bad
            << " inconsistent)\n";
  if (args.diagram)
    std::cout << trace::render_spacetime(result.trace);
  return result.trace.completed && bad == 0 ? 0 : 1;
}

int cmd_dot(const Args& args) {
  const mp::Program program = load_program(args);
  const match::ExtendedCfg ext = match::build_extended_cfg(program);
  write_or_print(args.output, ext.to_dot(program.name));
  return 0;
}

int cmd_faceoff(const Args& args) {
  const mp::Program plain = load_program(args);
  sim::SimOptions sopts;
  sopts.nprocs = args.nprocs;
  proto::ProtocolOptions popts;
  popts.interval = args.interval;
  util::Table table({"protocol", "ckpts", "forced", "ctl msgs",
                     "paused (s)", "makespan (s)"});
  for (const auto protocol :
       {proto::Protocol::kAppDriven, proto::Protocol::kSyncAndStop,
        proto::Protocol::kChandyLamport, proto::Protocol::kKooToueg,
        proto::Protocol::kCic,
        proto::Protocol::kUncoordinated}) {
    const auto run = proto::run_protocol(plain, protocol, sopts, popts);
    table.add_row({proto::protocol_name(protocol),
                   std::to_string(run.sim.stats.statement_checkpoints +
                                  run.sim.stats.forced_checkpoints),
                   std::to_string(run.sim.stats.forced_checkpoints),
                   std::to_string(run.sim.stats.control_messages),
                   util::format_double(run.sim.stats.paused_time, 4),
                   util::format_double(run.sim.trace.end_time, 5)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_model(const Args& args) {
  perf::NetworkParams net;
  net.w_m = args.wm;
  util::Table table({"protocol", "lambda(n)", "M (s)", "overhead ratio"});
  for (const auto protocol :
       {proto::Protocol::kAppDriven, proto::Protocol::kSyncAndStop,
        proto::Protocol::kChandyLamport}) {
    const auto params = perf::params_for(protocol, args.nprocs, net);
    table.add_row({proto::protocol_name(protocol),
                   util::format_double(params.lambda, 4),
                   util::format_double(params.M, 4),
                   util::format_double(perf::overhead_ratio(params), 6)});
  }
  std::cout << "n=" << args.nprocs << "  w_m=" << args.wm << "\n";
  table.print(std::cout);
  return 0;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int cmd_repro(const Args& args) {
  std::ifstream in(*args.repro);
  if (!in) {
    std::cerr << "cannot read " << *args.repro << '\n';
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto artifact = explore::parse_artifact(text.str());
  if (!artifact) {
    std::cerr << "malformed artifact: " << *args.repro << '\n';
    return 2;
  }
  const auto outcome = explore::replay_artifact(*artifact);
  std::cout << "scenario: " << artifact->scenario.workload << " / "
            << artifact->scenario.driver << "  n="
            << artifact->scenario.nprocs << '\n';
  std::cout << "plan:     " << artifact->plan.size() << " choices\n";
  std::cout << "digest:   " << hex64(outcome.replay.digest) << " (expected "
            << hex64(artifact->digest) << ") "
            << (outcome.digest_matched ? "MATCH" : "MISMATCH") << '\n';
  std::cout << "property: "
            << (outcome.replay.violation ? outcome.replay.violation->property
                                         : "none")
            << " (expected " << artifact->property << ") "
            << (outcome.property_matched ? "MATCH" : "MISMATCH") << '\n';
  if (outcome.replay.violation)
    std::cout << "detail:   " << outcome.replay.violation->detail << '\n';
  const bool ok = outcome.property_matched && outcome.digest_matched;
  std::cout << (ok ? "repro: reproduced" : "repro: NOT reproduced") << '\n';
  return ok ? 0 : 1;
}

int cmd_explore(const Args& args) {
  if (args.repro) return cmd_repro(args);
  if (!args.workload || !args.positional.empty()) return usage();

  explore::Scenario scenario;
  scenario.workload = *args.workload;
  scenario.driver = args.driver;
  scenario.nprocs = args.nprocs;
  scenario.seed = args.seed;
  scenario.proto.interval = args.interval;
  scenario.proto.cic_stagger = args.cic_stagger;
  if (args.iterations >= 0) scenario.params.iterations = args.iterations;

  explore::ExploreOptions opts;
  opts.max_choice_points = args.depth;
  opts.max_schedules = args.budget;
  opts.max_failures = args.max_failures;
  opts.max_partitions = args.max_partitions;
  opts.max_stalls = args.max_stalls;
  opts.memoize = !args.no_memo;
  opts.threads = args.threads;
  opts.random_walks = args.walks;
  opts.strategy_seed = args.seed;
  opts.check_digest = !args.no_digest;
  opts.check_cic_index = args.check_cic_index;
  opts.perturb.tie_cap = args.tie_cap;
  opts.perturb.delay_steps = args.delay_steps;
  opts.perturb.delay_quantum = args.delay_quantum;
  opts.perturb.failure_points = args.failure_points;
  opts.perturb.partition_points = args.partition_points;
  opts.perturb.partition_window = args.partition_window;
  opts.perturb.stall_points = args.stall_points;
  opts.perturb.stall_window = args.stall_window;

  const auto result = explore::explore(scenario, opts);
  std::cout << "schedules:  " << result.schedules_run
            << (result.complete ? "  (complete)" : "  (budget hit)") << '\n';
  std::cout << "choices:    " << result.choice_points << '\n';
  std::cout << "states:     " << result.states_recorded << " recorded, "
            << result.states_pruned << " pruned\n";
  std::cout << "violations: " << result.violations_found << '\n';
  if (result.violations.empty()) return 0;

  explore::Violation minimal = result.violations.front();
  if (!args.no_shrink) {
    const auto shrunk = explore::shrink(scenario, opts, minimal);
    std::cout << "shrink:     " << shrunk.initial_choices << " -> "
              << shrunk.final_choices << " non-default choices ("
              << shrunk.runs << " replays)\n";
    minimal = shrunk.minimal;
  }
  std::cout << "property:   " << minimal.property << '\n';
  std::cout << "detail:     " << minimal.detail << '\n';
  std::cout << "plan:       ";
  for (std::size_t i = 0; i < minimal.plan.size(); ++i)
    std::cout << (i ? "," : "") << minimal.plan[i];
  std::cout << '\n';
  if (args.output) {
    const auto artifact = explore::make_artifact(scenario, opts, minimal);
    obs::save_text(*args.output, explore::to_text(artifact));
    std::cout << "wrote " << *args.output << '\n';
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage();
  // Every engine run needs a peer to message.
  if ((command == "run" || command == "faceoff" || command == "explore") &&
      args->nprocs < 2) {
    std::cerr << "invalid -n " << args->nprocs << " (need at least 2)\n";
    return usage();
  }

  try {
    if (command == "analyze" && has_program(*args))
      return cmd_analyze(*args);
    if (command == "place" && has_program(*args))
      return cmd_place(*args);
    if (command == "insert" && has_program(*args))
      return cmd_insert(*args);
    if (command == "run" && has_program(*args))
      return cmd_run(*args);
    if (command == "dot" && has_program(*args))
      return cmd_dot(*args);
    if (command == "faceoff" && has_program(*args))
      return cmd_faceoff(*args);
    if (command == "model" && args->positional.empty())
      return cmd_model(*args);
    if (command == "explore")
      return cmd_explore(*args);
    if (command == "workloads") {
      for (const auto& name : mp::workload_names())
        std::cout << name << '\n';
      return 0;
    }
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}

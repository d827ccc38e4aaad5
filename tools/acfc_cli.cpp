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
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "acfc/acfc.h"

namespace {

using namespace acfc;

/// `acfc explore`'s flags, wrapped into usage lines: one per row of the
/// settings table that has a flag (explore/settings.h).
std::string explore_usage() {
  constexpr std::size_t kIndent = 16;
  constexpr std::size_t kWidth = 76;
  std::string out = "  acfc explore  -w <workload> [--no-shrink] [-o f.acfx]";
  std::size_t column = out.size();
  for (const explore::Setting& row : explore::settings()) {
    if (row.flag.empty()) continue;
    std::string item = "[" + std::string(row.flag);
    if (row.names != nullptr)
      item += " <name>";
    else if (explore::takes_value(row))
      item += " " + explore::range_text(row);
    item += "]";
    if (column + 1 + item.size() > kWidth) {
      out += "\n" + std::string(kIndent - 1, ' ');
      column = kIndent - 1;
    }
    out += " " + item;
    column += 1 + item.size();
  }
  return out + "\n";
}

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
      << explore_usage() <<
      "  acfc explore  --repro f.acfx\n"
      "  acfc workloads\n";
  return 2;
}

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::optional<std::string> output;
  std::optional<std::string> workload;
  std::optional<std::string> trace_out;
  std::optional<std::string> repro;
  double wm = 2e-3;
  bool strict = false;
  bool diagram = false;
  bool shrink = true;
  std::vector<sim::FaultSpec> faults;  ///< --fail P@T, timed crashes
  /// -n, --seed, -T and every explore setting, parsed in place through
  /// the settings table (explore/settings.h).
  explore::Artifact settings;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `acfc model` evaluates a closed form, so it and every other command
/// that runs no engine takes any -n >= 1; the rest read the `nprocs` row.
const explore::Setting kEngineFreeNprocs{
    "", "-n", "", 1, kInf,
    [](explore::Artifact& a) -> explore::Field { return &a.scenario.nprocs; }};

bool runs_engine(const std::string& command) {
  return command == "run" || command == "faceoff" || command == "explore";
}

/// The Args field a flag with a file or name argument fills; nullptr for
/// any other flag.
std::optional<std::string> Args::*text_flag(const std::string& flag) {
  if (flag == "-o") return &Args::output;
  if (flag == "--trace-out") return &Args::trace_out;
  if (flag == "-w" || flag == "--workload") return &Args::workload;
  if (flag == "--repro") return &Args::repro;
  return nullptr;
}

/// `--fail P@T`: an integer process and a finite time >= 0, nothing
/// trailing. The range of P is checked once -n is known.
std::optional<sim::FaultSpec> parse_fail(std::string_view value) {
  const auto at = value.find('@');
  if (at == std::string::npos) return std::nullopt;
  const auto proc =
      explore::parse_number<int>(value.substr(0, at), -kInf, kInf);
  const auto time =
      explore::parse_number<double>(value.substr(at + 1), 0, kInf);
  if (!proc || !time) return std::nullopt;
  return sim::FaultPlan::at_time(*proc, *time);
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  args.command = argv[1];
  explore::Scenario& scenario = args.settings.scenario;
  scenario.nprocs = 4;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    auto invalid = [&](const std::string& v, const std::string& want) {
      std::cerr << "invalid " << arg << " " << v << " (want " << want
                << ")\n";
      return std::nullopt;
    };
    const explore::Setting* row = arg == "-n" && !runs_engine(args.command)
                                      ? &kEngineFreeNprocs
                                      : explore::find_flag(arg);
    if (row != nullptr && !explore::takes_value(*row)) {
      explore::parse_setting(*row, explore::bare_flag_text(*row),
                             args.settings);
    } else if (row != nullptr) {
      const auto v = next();
      if (!v) return std::nullopt;
      if (!explore::parse_setting(*row, *v, args.settings))
        return invalid(*v, explore::range_text(*row));
    } else if (arg == "--wm") {
      const auto v = next();
      if (!v) return std::nullopt;
      const auto wm = explore::parse_number<double>(*v, 0, kInf);
      if (!wm) return invalid(*v, "0..");
      args.wm = *wm;
    } else if (const auto text = text_flag(arg)) {
      const auto v = next();
      if (!v) return std::nullopt;
      args.*text = *v;
    } else if (arg == "--no-shrink") {
      args.shrink = false;
    } else if (arg == "--strict") {
      args.strict = true;
    } else if (arg == "--diagram") {
      args.diagram = true;
    } else if (arg == "--fail") {
      auto v = next();
      if (!v) return std::nullopt;
      const auto fault = parse_fail(*v);
      if (!fault) return invalid(*v, "P@T: integer P, finite time T >= 0");
      args.faults.push_back(*fault);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << '\n';
      return std::nullopt;
    } else {
      args.positional.push_back(arg);
    }
  }
  for (const sim::FaultSpec& fault : args.faults) {
    if (fault.proc < 0 || fault.proc >= scenario.nprocs) {
      std::cerr << "invalid --fail " << fault.proc << "@" << fault.time
                << " (process must be in [0, " << scenario.nprocs << "))\n";
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
  const double interval = args.settings.scenario.proto.interval;
  if (interval != proto::ProtocolOptions{}.interval)
    iopts.target_interval = interval;
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
  opts.nprocs = args.settings.scenario.nprocs;
  opts.seed = args.settings.scenario.seed;
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
  sopts.nprocs = args.settings.scenario.nprocs;
  util::Table table({"protocol", "ckpts", "forced", "ctl msgs",
                     "paused (s)", "makespan (s)"});
  for (const auto protocol :
       {proto::Protocol::kAppDriven, proto::Protocol::kSyncAndStop,
        proto::Protocol::kChandyLamport, proto::Protocol::kKooToueg,
        proto::Protocol::kCic,
        proto::Protocol::kUncoordinated}) {
    const auto run = proto::run_protocol(plain, protocol, sopts,
                                         args.settings.scenario.proto);
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
  const int n = args.settings.scenario.nprocs;
  perf::NetworkParams net;
  net.w_m = args.wm;
  util::Table table({"protocol", "lambda(n)", "M (s)", "overhead ratio"});
  for (const auto protocol :
       {proto::Protocol::kAppDriven, proto::Protocol::kSyncAndStop,
        proto::Protocol::kChandyLamport}) {
    const auto params = perf::params_for(protocol, n, net);
    table.add_row({proto::protocol_name(protocol),
                   util::format_double(params.lambda, 4),
                   util::format_double(params.M, 4),
                   util::format_double(perf::overhead_ratio(params), 6)});
  }
  std::cout << "n=" << n << "  w_m=" << args.wm << "\n";
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

int cmd_explore(Args& args) {
  if (args.repro) return cmd_repro(args);
  if (!args.workload || !args.positional.empty()) return usage();
  explore::Scenario& scenario = args.settings.scenario;
  explore::ExploreOptions& opts = args.settings.opts;
  scenario.workload = *args.workload;
  opts.strategy_seed = scenario.seed;

  const auto result = explore::explore(scenario, opts);
  std::cout << "schedules:  " << result.schedules_run
            << (result.complete ? "  (complete)" : "  (budget hit)") << '\n';
  std::cout << "choices:    " << result.choice_points << '\n';
  std::cout << "states:     " << result.states_recorded << " recorded, "
            << result.states_pruned << " pruned\n";
  std::cout << "violations: " << result.violations_found << '\n';
  if (result.violations.empty()) return 0;

  explore::Violation minimal = result.violations.front();
  if (args.shrink) {
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
  std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage();

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

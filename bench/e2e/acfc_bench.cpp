// acfc_bench — one benchmark process of the end-to-end pipeline benchmark.
//
//   acfc_bench --workload W --seed S --seconds T --root DIR
//              [--trace --trace-out FILE]
//
// Generates every input of workload W from S during set-up, then runs an
// untimed warm-up pass over the op set followed by timed passes until T
// more seconds of wall time have gone by (at least three). Closed loop, one op
// in flight. Each op is timed on its own; checks that verify an op's
// outputs run between ops, outside the timed region. The process prints
// one JSON object of raw measurements on stdout; bench/e2e/run.py turns
// the objects of several processes into metrics.
//
// Workloads (README.md says why each exists):
//   analyze  — `acfc analyze` + `acfc place` on one program text
//   simulate — one failure-free sim::Engine::run()
//   recover  — one fault-injected run on a live async store + its verdict
//   explore  — one explore::explore() verdict (plus shrink on the
//              negative controls)
//
// With --trace, a host-clock span is recorded around every call this file
// makes into a library layer (name, start, end, parent, op id, pass), kept
// in memory and written as chrome-trace JSON at exit; obs::Registry instances
// are attached to engines, stores and persisters for counts. Tracing is
// measured separately from the untraced runs that give end-to-end numbers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "acfc/acfc.h"
#include "sim/montecarlo.h"
#include "sim/recovery.h"
#include "sim/snapshot_codec.h"
#include "store/async_persist.h"

namespace {

using namespace acfc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Output helpers

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a, folded over byte strings and 64-bit words.
struct Hash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  Hash& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
    return *this;
  }
  Hash& str(const std::string& s) { return bytes(s.data(), s.size()); }
  Hash& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Hash& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
};

// ---------------------------------------------------------------------------
// Tracing

/// Host-clock spans around calls into the library layers. Disabled, a
/// scope costs one branch. Enabled, spans stay in memory until exit.
/// Single-threaded: every traced call happens on the main thread — the
/// engine fires the capture hook from its event loop, not from the
/// persister's writer thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Switches recording on or off; call only with no span open.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Op index that new spans belong to; -1 is set-up.
  void set_op(int op) { op_ = op; }
  /// Pass that new spans belong to: -1 set-up, 0 the warm-up pass, then
  /// the timed passes.
  void set_pass(int pass) { pass_ = pass; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) {
      if (!tracer.enabled_) return;
      tracer_ = &tracer;
      index_ = static_cast<int>(tracer.spans_.size());
      tracer.spans_.push_back({name, tracer.now_us(), 0.0, tracer.open_,
                               tracer.op_, tracer.pass_});
      tracer.open_ = index_;
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
      span.end_us = tracer_->now_us();
      tracer_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.begin_us,
                    s.end_us - s.begin_us);
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"pass\":" << s.pass << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    double begin_us;
    double end_us;
    int parent;
    int op;
    int pass;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  int op_ = -1;
  int pass_ = -1;
  int open_ = -1;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

template <typename F>
decltype(auto) traced(Tracer& tracer, const char* name, F&& f) {
  Tracer::Scope scope(tracer, name);
  return f();
}

/// Per-layer counts, summed over every op execution of the process.
using Counts = std::map<std::string, double>;

/// Folds a registry's counters (sum) and gauge high-waters (max) into
/// `counts` under their registry names. Histograms are not needed here.
void fold_registry(const obs::Registry& registry, Counts& counts) {
  for (const auto& [name, m] : registry.snapshot().metrics) {
    if (m.kind == obs::MetricKind::kCounter) {
      counts[name] += static_cast<double>(m.count);
    } else if (m.kind == obs::MetricKind::kGauge) {
      double& hw = counts[name];
      hw = std::max(hw, static_cast<double>(m.high_water));
    }
  }
}

// ---------------------------------------------------------------------------
// Ops

/// One unit of closed-loop work. run() is what the user pays for and is
/// timed; check() verifies the outputs of the run() just made, untimed.
struct Op {
  std::string name;
  /// Deterministic fingerprint of the last run's outputs; must be equal
  /// across passes and processes, and equal to expected/seed1.json.
  std::uint64_t digest = 0;
  // Contributions to workload-level numbers (from the last run).
  long sim_events = 0;
  long stored_bytes = 0;
  long stored_records = 0;
  long rollbacks = 0;
  double lost_work = 0.0;
  /// Costed simulate ops: makespan at the paper's (o, l) and at o = 0.
  double costed_makespan = 0.0;
  double base_makespan = 0.0;

  virtual ~Op() = default;
  /// Untimed per-execution preparation (e.g. a cold cache).
  virtual void prepare() {}
  virtual void run(Tracer& tracer) = 0;
  /// Returns "" when the outputs are right, else what is wrong.
  virtual std::string check(Tracer& tracer, Counts& counts,
                            bool first_pass) = 0;
};

using OpList = std::vector<std::unique_ptr<Op>>;

std::uint64_t fold_final_digest(const sim::SimResult& r) {
  Hash h;
  for (const auto d : r.trace.final_digest) h.u64(d);
  return h.h;
}

/// Every instanced straight cut of a failure-free trace must be a
/// recovery line (Theorem 3.2). Returns "" or the first inconsistency.
std::string check_straight_cuts(Tracer& tracer, const trace::Trace& trace) {
  const auto cuts = traced(tracer, "trace.all_straight_cuts",
                           [&] { return trace::all_straight_cuts(trace); });
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const auto analysis = traced(tracer, "trace.analyze_cut", [&] {
      return trace::analyze_cut(trace, cuts[i]);
    });
    if (!analysis.consistent)
      return "straight cut " + std::to_string(i) + " of " +
             std::to_string(cuts.size()) + " is inconsistent";
  }
  return {};
}

// ---------------------------------------------------------------------------
// The placement pipeline: `acfc analyze` followed by `acfc place`

/// Phase I interval for checkpoint-free inputs: generated programs run for
/// tens of seconds, far below Young's interval for the paper's λ, so the
/// default rule would insert nothing.
constexpr double kInsertInterval = 4.0;

struct Placement {
  std::string text;  ///< the repaired program, printed
  std::optional<std::string> unbalanced;
  place::RepairReport report;
  int inserted = 0;
  long message_edges = 0;
  long violations = 0;
  long violations_hard = 0;
};

Placement place_text(const std::string& source, Tracer& tracer) {
  Placement out;
  mp::Program program =
      traced(tracer, "mp.parse", [&] { return mp::parse(source); });
  if (mp::checkpoint_count(program) == 0) {
    place::InsertOptions iopts;
    iopts.target_interval = kInsertInterval;
    out.inserted = traced(tracer, "place.insert_checkpoints", [&] {
      return place::insert_checkpoints(program, iopts);
    });
    traced(tracer, "place.equalize_checkpoints",
           [&] { return place::equalize_checkpoints(program); });
  }
  const cfg::Cfg graph =
      traced(tracer, "cfg.build_cfg", [&] { return cfg::build_cfg(program); });
  out.unbalanced = traced(tracer, "cfg.check_balance",
                          [&] { return graph.check_balance(); });
  if (out.unbalanced) return out;
  {
    const match::ExtendedCfg ext = traced(
        tracer, "match.build_extended_cfg",
        [&] { return match::build_extended_cfg(program); });
    const place::CheckResult check = traced(
        tracer, "place.check_condition1",
        [&] { return place::check_condition1(ext); });
    out.message_edges = static_cast<long>(ext.message_edges().size());
    out.violations = static_cast<long>(check.violations.size());
    out.violations_hard = check.hard_count();
  }
  out.report = traced(tracer, "place.repair_placement",
                      [&] { return place::repair_placement(program); });
  out.text = traced(tracer, "mp.print", [&] { return mp::print(program); });
  return out;
}

std::string placement_problem(const Placement& p) {
  if (p.unbalanced) return "unbalanced placement: " + *p.unbalanced;
  if (!p.report.success ||
      !p.report.final_check.ok(place::RepairPolicy::kAlignedInstances))
    return "repair left hard violations";
  return {};
}

/// True if some communication or loop bound is data-dependent.
bool has_irregular(const mp::Program& program) {
  bool found = false;
  mp::for_each_stmt(program, [&found](const mp::Stmt& s) {
    switch (s.kind()) {
      case mp::StmtKind::kSend:
        found |= static_cast<const mp::SendStmt&>(s).dest.has_irregular();
        break;
      case mp::StmtKind::kRecv: {
        const auto& recv = static_cast<const mp::RecvStmt&>(s);
        found |= recv.any_source || recv.src.has_irregular();
        break;
      }
      case mp::StmtKind::kIf:
        found |= static_cast<const mp::IfStmt&>(s).cond.has_irregular();
        break;
      case mp::StmtKind::kLoop: {
        const auto& loop = static_cast<const mp::LoopStmt&>(s);
        found |= loop.lo.has_irregular() || loop.hi.has_irregular();
        break;
      }
      case mp::StmtKind::kBcast:
        found |= static_cast<const mp::BcastStmt&>(s).root.has_irregular();
        break;
      case mp::StmtKind::kReduce:
        found |= static_cast<const mp::ReduceStmt&>(s).root.has_irregular();
        break;
      default:
        break;
    }
  });
  return found;
}

/// Whether the analysis claims every instanced straight cut of `program`
/// (placed as reported) is a recovery line: Condition 1 holds outright
/// after repair (Theorem 3.2), or only loop-carried violations remain and
/// no pattern is data-dependent, so loop instances stay aligned — the
/// scope of RepairPolicy::kAlignedInstances. Irregular programs with
/// loop-carried residue do produce inconsistent instanced cuts (README.md).
bool straight_cuts_claimed(const place::RepairReport& report,
                           const mp::Program& program) {
  return report.final_check.violations.empty() || !has_irregular(program);
}

struct PlacedProgram {
  std::shared_ptr<const mp::Program> program;
  bool cuts_claimed = false;
};

/// Set-up form of the pipeline: place, then parse the placed text — what
/// `acfc place -o f.mp && acfc run f.mp` does. Throws if placement fails.
PlacedProgram placed_program(const std::string& source, Tracer& tracer) {
  const Placement placed = place_text(source, tracer);
  if (const std::string problem = placement_problem(placed); !problem.empty())
    throw util::ProgramError("set-up placement failed: " + problem);
  auto program = std::make_shared<const mp::Program>(
      traced(tracer, "mp.parse", [&] { return mp::parse(placed.text); }));
  const bool claimed = straight_cuts_claimed(placed.report, *program);
  return {std::move(program), claimed};
}

/// Generator options for op `index` of a corpus: two thirds misaligned, a
/// quarter irregular, a seventh checkpoint-free, collectives on.
mp::GenerateOptions corpus_options(std::uint64_t seed, long index,
                                   int segments) {
  mp::GenerateOptions g;
  g.seed = sim::run_seed(seed, index);
  g.segments = segments;
  g.misalign_checkpoints = index % 3 != 2;
  g.allow_irregular = index % 4 == 0;
  g.allow_collectives = true;
  if (index % 7 == 3) g.checkpoint_probability = 0.0;
  return g;
}

std::string generated_text(const mp::GenerateOptions& g, Tracer& tracer) {
  const mp::Program program = traced(tracer, "mp.generate_program",
                                     [&] { return mp::generate_program(g); });
  return traced(tracer, "mp.print", [&] { return mp::print(program); });
}

// ---------------------------------------------------------------------------
// analyze

struct AnalyzeOp final : Op {
  std::string source;
  Placement placed;

  void prepare() override {
    // Every CLI process starts with a cold sat cache.
    attr::global_sat_cache().clear();
  }

  void run(Tracer& tracer) override {
    placed = place_text(source, tracer);
    digest = Hash().str(placed.text).h;
  }

  std::string check(Tracer& tracer, Counts& counts, bool first_pass) override {
    const attr::SatCache::Stats sat = attr::global_sat_cache().stats();
    counts["attr.sat_cache.hits"] += static_cast<double>(sat.hits);
    counts["attr.sat_cache.misses"] += static_cast<double>(sat.misses);
    counts["place.moves"] += placed.report.moves;
    counts["place.merges"] += placed.report.merges;
    counts["place.hoists"] += placed.report.hoists;
    counts["place.violations"] += static_cast<double>(placed.violations);
    counts["place.violations_hard"] +=
        static_cast<double>(placed.violations_hard);
    counts["match.message_edges"] += static_cast<double>(placed.message_edges);
    counts["place.inserted"] += placed.inserted;
    if (std::string problem = placement_problem(placed); !problem.empty())
      return problem;
    if (!first_pass) return {};
    // Independent dynamic witness: run the repaired program and check every
    // instanced straight cut on the execution, where the analysis claims it.
    const mp::Program repaired =
        traced(tracer, "mp.parse", [&] { return mp::parse(placed.text); });
    if (!straight_cuts_claimed(placed.report, repaired)) return {};
    sim::SimOptions opts;
    opts.nprocs = 4;
    const sim::SimResult result = traced(tracer, "sim.engine_run", [&] {
      sim::Engine engine(repaired, opts);
      return engine.run();
    });
    if (!result.trace.completed) return "witness run did not complete";
    return check_straight_cuts(tracer, result.trace);
  }
};

OpList build_analyze(std::uint64_t seed, const std::string& root,
                     Tracer& tracer) {
  OpList ops;
  auto add = [&ops](std::string name, std::string source) {
    auto op = std::make_unique<AnalyzeOp>();
    op->name = std::move(name);
    op->source = std::move(source);
    ops.push_back(std::move(op));
  };
  // Size classes, smallest first: most programs are small, and the few
  // large ones put repair's superlinear growth into the latency tail.
  // Counts per class are fixed, so every seed draws the same size mix. The
  // counts keep the seed's share of the spread between runs small: p90
  // falls inside the 16-segment class, and the heaviest classes, whose
  // programs' costs vary most, are few.
  const std::vector<std::pair<int, int>> classes = {
      {4, 256}, {6, 256}, {8, 256}, {12, 192}, {16, 128}, {20, 32}, {24, 24},
      {32, 4}};
  long index = 0;
  for (const auto& [segments, count] : classes) {
    for (int k = 0; k < count; ++k, ++index) {
      const auto g = corpus_options(seed, index, segments);
      char name[48];
      std::snprintf(name, sizeof name, "gen%03ld-s%d", index, segments);
      add(name, generated_text(g, tracer));
    }
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(root) / "examples" / "programs"))
    if (entry.path().extension() == ".mp") files.push_back(entry.path());
  if (files.empty())
    throw util::ProgramError("no examples/programs/*.mp under " + root);
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    add("example:" + path.stem().string(), text.str());
  }
  for (const auto& workload : mp::workload_names()) {
    const mp::Program program = mp::workload_by_name(workload);
    add("canonical:" + workload,
        traced(tracer, "mp.print", [&] { return mp::print(program); }));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// simulate

/// The paper's measured checkpoint overhead o and latency l (Starfish).
constexpr double kPaperOverhead = 1.78;
constexpr double kPaperLatency = 4.292;

struct SimulateOp final : Op {
  PlacedProgram placed;
  sim::SimOptions opts;
  /// The same config at o = 0, run earlier in the pass; null for that one.
  const SimulateOp* baseline = nullptr;
  sim::SimResult result;
  double makespan = 0.0;
  std::unique_ptr<obs::Registry> registry;

  void run(Tracer& tracer) override {
    if (tracer.enabled()) {
      registry = std::make_unique<obs::Registry>();
      opts.obs = registry.get();
    }
    result = traced(tracer, "sim.engine_run", [&] {
      sim::Engine engine(*placed.program, opts);
      return engine.run();
    });
    sim_events = result.stats.events_processed;
    makespan = result.trace.end_time;
    digest = Hash()
                 .u64(fold_final_digest(result))
                 .f64(makespan)
                 .u64(result.trace.completed ? 1 : 0)
                 .h;
  }

  std::string check(Tracer& tracer, Counts& counts, bool first_pass) override {
    const sim::SimResult r = std::move(result);
    result = {};
    if (registry) {
      fold_registry(*registry, counts);
      opts.obs = nullptr;
      registry.reset();
    }
    if (!r.trace.completed) return "failure-free run did not complete";
    if (baseline != nullptr) {
      costed_makespan = makespan;
      base_makespan = baseline->makespan;
    }
    // Straight-cut consistency once per distinct program/n/seed config.
    if (first_pass && baseline == nullptr && placed.cuts_claimed)
      return check_straight_cuts(tracer, r.trace);
    return {};
  }
};

OpList build_simulate(std::uint64_t seed, Tracer& tracer) {
  struct Config {
    std::string name;
    PlacedProgram placed;
    int nprocs;
    std::uint64_t sim_seed;
  };
  std::vector<Config> configs;
  long index = 0;
  // The canonical workloads as `acfc place` leaves them: jacobi_misaligned
  // and master_worker ship with hard violations.
  for (const auto& workload : mp::workload_names()) {
    const mp::Program program = mp::workload_by_name(workload);
    const auto placed = placed_program(
        traced(tracer, "mp.print", [&] { return mp::print(program); }),
        tracer);
    for (const int n : {8, 32, 64})
      for (int rep = 0; rep < 2; ++rep, ++index)
        configs.push_back({workload + "/n" + std::to_string(n) + "/r" +
                               std::to_string(rep),
                           placed, n, sim::run_seed(seed, index)});
  }
  // Most ops and their spread from seed to seed come from the generated
  // programs; 192 of them keep that spread to a few percent.
  for (int k = 0; k < 192; ++k) {
    const auto g = corpus_options(seed ^ 0x51u, k, 6 + k % 5);
    const auto placed = placed_program(generated_text(g, tracer), tracer);
    for (const int n : {8, 32}) {
      char name[48];
      std::snprintf(name, sizeof name, "gen%02d-s%d/n%d", k, g.segments, n);
      configs.push_back({name, placed, n, sim::run_seed(seed, ++index)});
    }
  }
  OpList ops;
  for (const Config& c : configs) {
    auto base = std::make_unique<SimulateOp>();
    base->name = c.name + "/o0";
    base->placed = c.placed;
    base->opts.nprocs = c.nprocs;
    base->opts.seed = c.sim_seed;
    base->opts.compute_jitter = 0.2;
    auto costed = std::make_unique<SimulateOp>();
    costed->name = c.name + "/paper-o";
    costed->placed = c.placed;
    costed->opts = base->opts;
    costed->opts.checkpoint_overhead = kPaperOverhead;
    costed->opts.checkpoint_latency = kPaperLatency;
    costed->baseline = base.get();
    ops.push_back(std::move(base));
    ops.push_back(std::move(costed));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// recover

struct RecoverOp final : Op {
  std::shared_ptr<const mp::Program> program;
  sim::SimOptions opts;  ///< fault plan, delay model and costs included
  sim::DriverFactory driver_factory;
  store::StorageFaultPlan storage_faults;
  // The failure-free reference, computed during set-up.
  std::vector<std::uint64_t> ref_digest;
  std::vector<long> ref_sends;
  std::vector<long> ref_recvs;
  std::string verdict;
  std::unique_ptr<obs::Registry> registry;

  void run(Tracer& tracer) override {
    if (tracer.enabled()) registry = std::make_unique<obs::Registry>();
    store::StableStore store(store::StorageModel{},
                             store::CheckpointMode::kIncremental, opts.nprocs,
                             storage_faults);
    store.set_obs(registry.get());
    store::AsyncPersistOptions popts;
    popts.obs = registry.get();
    store::AsyncPersister persister(store, popts);

    sim::SimOptions o = opts;
    o.obs = registry.get();
    o.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
    if (tracer.enabled())
      o.checkpoint_capture_fn =
          [&tracer, inner = std::move(o.checkpoint_capture_fn)](
              int proc, const sim::VmSnapshot& state) {
            Tracer::Scope scope(tracer, "store.capture");
            inner(proc, state);
          };
    o.checkpoint_verify_fn = store::checkpoint_verify_fn(store);
    const std::unique_ptr<sim::ProtocolDriver> driver = driver_factory();
    const sim::SimResult result = traced(tracer, "sim.engine_run", [&] {
      sim::Engine engine(*program, o, driver.get());
      return engine.run();
    });
    traced(tracer, "store.drain", [&] { persister.drain(); });
    verdict = traced(tracer, "bench.verdict",
                     [&] { return judge(tracer, result, store); });

    sim_events = result.stats.events_processed;
    stored_bytes = store.bytes_stored();
    stored_records = 0;
    for (int p = 0; p < opts.nprocs; ++p)
      stored_records += store.write_count(p);
    rollbacks = static_cast<long>(result.recoveries.size());
    lost_work = 0.0;
    for (const auto& rec : result.recoveries) lost_work += rec.lost_work;
    digest = Hash().str(verdict).u64(fold_final_digest(result)).h;
  }

  std::string check(Tracer&, Counts& counts, bool) override {
    if (registry) {
      fold_registry(*registry, counts);
      registry.reset();
    }
    return verdict == "ok" ? std::string() : verdict;
  }

 private:
  /// The recovery verdict: completion, every restored cut consistent, no
  /// orphans, no corrupt record restored, every store chain restorable,
  /// and a replay equal to the failure-free reference.
  std::string judge(Tracer& tracer, const sim::SimResult& r,
                    const store::StableStore& store) const {
    if (!r.trace.completed) return "fault-injected run did not complete";
    // Trace checkpoint index → (process, take ordinal): takes append to
    // the trace in order, so a process's k-th record is its k-th take.
    std::vector<long> ordinal(r.trace.checkpoints.size());
    std::vector<long> takes(static_cast<std::size_t>(opts.nprocs), 0);
    for (std::size_t c = 0; c < ordinal.size(); ++c)
      ordinal[c] = ++takes[static_cast<std::size_t>(
          r.trace.checkpoints[c].proc)];
    for (std::size_t i = 0; i < r.recoveries.size(); ++i) {
      const trace::Cut& cut = r.recoveries[i].cut;
      const auto analysis = traced(tracer, "trace.analyze_cut", [&] {
        return trace::analyze_cut(r.trace, cut);
      });
      if (!analysis.consistent)
        return "rollback " + std::to_string(i) + " restored an inconsistent cut";
      for (const int member : cut.member) {
        if (member < 0) continue;
        const auto& ckpt = r.trace.checkpoints[static_cast<std::size_t>(member)];
        if (!store.chain_verifies(ckpt.proc,
                                  ordinal[static_cast<std::size_t>(member)]))
          return "rollback " + std::to_string(i) +
                 " restored a corrupt record of process " +
                 std::to_string(ckpt.proc);
      }
    }
    const auto n = static_cast<std::size_t>(opts.nprocs);
    if (r.final_sends.size() != n * n || r.final_recvs.size() != n * n)
      return "final channel counters missing";
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t d = 0; d < n; ++d)
        if (r.final_recvs[d * n + s] > r.final_sends[s * n + d])
          return "orphan messages on channel " + std::to_string(s) + "->" +
                 std::to_string(d);
    for (int p = 0; p < opts.nprocs; ++p) {
      const auto scan = traced(tracer, "store.scan_restore",
                               [&] { return store.scan_restore(p); });
      if (scan.ordinal > 0 && !store.restore_payload(p, scan.ordinal))
        return "process " + std::to_string(p) +
               ": newest verifiable record does not decode";
    }
    if (r.trace.final_digest != ref_digest)
      return "replay diverged from the failure-free reference digest";
    if (r.final_sends != ref_sends || r.final_recvs != ref_recvs)
      return "replay diverged from the reference channel counters";
    return "ok";
  }
};

constexpr long kRecoverOps = 360;

OpList build_recover(std::uint64_t seed, Tracer& tracer) {
  // App-driven and supervised runs use placed programs: canonical ones and
  // generated ones, all placed during set-up. No program here has
  // any-source receives, whose arrival order legitimately changes under
  // faults and would void the digest oracle, or collectives, which a
  // degraded rollback to a process's initial state can wedge on (README.md,
  // findings). Baseline protocols run the checkpoint-free canonical
  // variants and checkpoint through their driver.
  struct Source {
    std::string name;
    PlacedProgram prog;
  };
  std::vector<Source> placed_sources, plain_sources;
  // Runs long enough that engine work, not the persister thread's start,
  // hand-off and join, dominates an op.
  mp::WorkloadParams params;
  params.iterations = 12;
  for (const std::string workload :
       {"ring", "jacobi_aligned", "pipeline", "butterfly"}) {
    params.checkpoints = true;
    const mp::Program program = mp::workload_by_name(workload, params);
    placed_sources.push_back(
        {workload,
         placed_program(
             traced(tracer, "mp.print", [&] { return mp::print(program); }),
             tracer)});
    params.checkpoints = false;
    plain_sources.push_back(
        {workload,
         {std::make_shared<const mp::Program>(
              mp::workload_by_name(workload, params)),
          false}});
  }
  for (int k = 0; k < 11; ++k) {
    auto g = corpus_options(seed ^ 0x7ecu, k, 8 + k % 5);
    g.allow_irregular = false;
    g.allow_collectives = false;
    placed_sources.push_back({"gen" + std::to_string(k),
                              placed_program(generated_text(g, tracer), tracer)});
  }
  // Programs that send about one message per channel per iteration. Over
  // the lossy shim, a channel that carries more than 15 messages within a
  // retransmit timeout after a loss can trip the receiver's sequence-ring
  // check, failure-free or not (README.md, findings) — the pipeline and
  // generated programs do.
  std::vector<Source> lossy_sources;
  for (const Source& s : placed_sources)
    if (s.name == "ring" || s.name == "jacobi_aligned" || s.name == "butterfly")
      lossy_sources.push_back(s);

  const std::vector<std::string> baselines = {"sync-and-stop",
                                              "chandy-lamport", "cic",
                                              "koo-toueg"};
  OpList ops;
  std::size_t next_placed = 0, next_plain = 0, next_lossy = 0;
  long app_driven = 0;
  for (long i = 0; i < kRecoverOps; ++i) {
    util::Rng rng(sim::run_seed(seed ^ 0x4ec0ULL, i));
    // Half app-driven, a third baselines, the rest supervised.
    const long mode = i % 6;
    const bool baseline = mode == 3 || mode == 4;
    const bool supervised = mode == 5;
    std::string driver = "app-driven";
    if (baseline)
      driver = baselines[static_cast<std::size_t>(i / 6) % baselines.size()];
    else if (supervised)
      driver = "supervised";
    // Every other app-driven op runs over a lossy wire — a quarter of all.
    // The baselines stay on the reliable wire: over the lossy shim their
    // rollbacks trip the same sequence-ring check, and Koo–Toueg's
    // failure-free runs can wedge (README.md, findings).
    const bool lossy = driver == "app-driven" && app_driven++ % 2 == 1;
    const auto& pool = baseline ? plain_sources
                       : lossy  ? lossy_sources
                                : placed_sources;
    std::size_t& next = baseline ? next_plain : lossy ? next_lossy : next_placed;
    const Source& src = pool[next % pool.size()];

    auto op = std::make_unique<RecoverOp>();
    op->program = src.prog.program;
    // The supervisor (heartbeats) and Chandy–Lamport (markers) send
    // messages between every ordered pair, so their runs stay at n = 8:
    // at n = 16 a handful of them, picked by the fault plans, would set
    // both the latency tail and the peak RSS.
    const bool all_pairs = supervised || driver == "chandy-lamport";
    op->opts.nprocs = all_pairs || next % 2 == 0 ? 8 : 16;
    ++next;
    op->opts.seed = rng.next_u64();
    op->opts.checkpoint_overhead = 0.5;
    op->opts.recovery_overhead = 1.0;
    if (lossy) op->opts.delay.drop = 0.02;
    proto::ProtocolOptions popts;
    popts.interval = 20.0;
    op->driver_factory = proto::driver_factory_by_name(driver, popts);

    // Failure-free reference (set-up): same program, options and driver.
    const sim::SimResult ref = traced(tracer, "sim.engine_run", [&] {
      const auto ref_driver = op->driver_factory();
      sim::Engine engine(*op->program, op->opts, ref_driver.get());
      return engine.run();
    });
    if (!ref.trace.completed)
      throw util::ProgramError("recover set-up: reference run of " +
                               src.name + " did not complete");
    if (driver == "app-driven" && src.prog.cuts_claimed) {
      if (const std::string bad = check_straight_cuts(tracer, ref.trace);
          !bad.empty())
        throw util::ProgramError("recover set-up: " + src.name + ": " + bad);
    }
    op->ref_digest = ref.trace.final_digest;
    op->ref_sends = ref.final_sends;
    op->ref_recvs = ref.final_recvs;
    op->opts.fault_plan = sim::random_fault_plan(
        rng.next_u64(), op->opts.nprocs, ref.trace.end_time, 2,
        supervised ? 1 : 0, supervised ? 1 : 0);
    op->storage_faults = sim::random_storage_fault_plan(
        rng.next_u64(), op->opts.nprocs, 6, 2);

    char name[96];
    std::snprintf(name, sizeof name, "r%03ld-%s-n%d-%s%s", i, src.name.c_str(),
                  op->opts.nprocs, driver.c_str(),
                  op->opts.delay.drop > 0.0 ? "-lossy" : "");
    op->name = name;
    ops.push_back(std::move(op));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// explore

struct ExploreOp final : Op {
  explore::Scenario scenario;
  explore::ExploreOptions options;
  /// Negative control: a seeded bug the search must find and shrink.
  bool negative = false;
  explore::ExploreResult result;
  explore::ShrinkResult shrunk;
  std::string verdict;

  void run(Tracer& tracer) override {
    result = traced(tracer, "explore.explore",
                    [&] { return explore::explore(scenario, options); });
    shrunk = {};
    verdict = "clean";
    if (!result.violations.empty()) {
      shrunk = traced(tracer, "explore.shrink", [&] {
        return explore::shrink(scenario, options, result.violations.front());
      });
      verdict = "violation:" + shrunk.minimal.property;
    }
    digest = Hash().str(verdict).h;
  }

  std::string check(Tracer&, Counts& counts, bool) override {
    counts["explore.schedules_run"] += static_cast<double>(result.schedules_run);
    counts["explore.states_pruned"] += static_cast<double>(result.states_pruned);
    counts["explore.choice_points"] += static_cast<double>(result.choice_points);
    counts["explore.shrink.runs"] += static_cast<double>(shrunk.runs);
    if (!negative)
      return verdict == "clean" ? std::string()
                                : "genuine driver " + scenario.driver +
                                      " reported " + verdict;
    if (verdict == "clean")
      return "negative control " + scenario.driver + " was not caught";
    if (shrunk.minimal.property != result.violations.front().property ||
        shrunk.final_choices > shrunk.initial_choices)
      return "shrinking changed the violated property or grew the plan";
    return {};
  }
};

/// The explored programs must be safe placements for the app-driven
/// verdicts to mean anything: Condition 1 has no hard violation (repair
/// is a no-op) and every straight cut of a plain run is consistent.
void certify_scenario_program(const explore::Scenario& sc, Tracer& tracer) {
  const mp::Program program = sc.program();
  const std::string text =
      traced(tracer, "mp.print", [&] { return mp::print(program); });
  const Placement placed = place_text(text, tracer);
  std::string problem = placement_problem(placed);
  if (problem.empty() && placed.report.moves + placed.report.merges +
                                 placed.report.hoists != 0)
    problem = "repair moved a checkpoint";
  if (problem.empty()) {
    const mp::Program reparsed =
        traced(tracer, "mp.parse", [&] { return mp::parse(placed.text); });
    sim::SimOptions opts;
    opts.nprocs = sc.nprocs;
    const sim::SimResult run = traced(tracer, "sim.engine_run", [&] {
      sim::Engine engine(reparsed, opts);
      return engine.run();
    });
    problem = run.trace.completed ? check_straight_cuts(tracer, run.trace)
                                  : "plain run did not complete";
  }
  if (!problem.empty())
    throw util::ProgramError("explore set-up: " + sc.workload + ": " + problem);
}

OpList build_explore(std::uint64_t seed, Tracer& tracer) {
  OpList ops;
  const std::vector<std::string> workloads = {"ring", "jacobi_aligned",
                                              "pipeline"};
  const std::vector<std::string> drivers = {
      "app-driven", "sync-and-stop", "chandy-lamport", "koo-toueg",
      "cic",        "uncoordinated", "supervised"};
  std::set<std::pair<std::string, int>> certified;
  long index = 0;
  for (const auto& workload : workloads) {
    for (const auto& driver : drivers) {
      for (int k = 0; k < 11; ++k, ++index) {
        util::Rng rng(sim::run_seed(seed ^ 0xe7b1ULL, index));
        auto op = std::make_unique<ExploreOp>();
        explore::Scenario& sc = op->scenario;
        sc.workload = workload;
        sc.params.iterations = static_cast<int>(rng.uniform_int(2, 3));
        sc.driver = driver;
        sc.nprocs = 3;
        sc.seed = rng.next_u64();
        sc.proto.interval = 20.0;
        explore::ExploreOptions& eo = op->options;
        eo.max_choice_points = static_cast<int>(rng.uniform_int(8, 12));
        eo.max_schedules = 150;
        // One dimension family per scenario, cycling: tie-break + delivery
        // delay, failure points, partition points, stall points.
        const char* dims = "delay";
        switch (k % 4) {
          case 0:
            eo.perturb.delay_steps = 2;
            break;
          case 1:
            eo.perturb.failure_points = true;
            dims = "fail";
            break;
          case 2:
            eo.perturb.tie_cap = 1;
            eo.perturb.partition_points = true;
            eo.perturb.partition_window = 2.0;
            dims = "partition";
            break;
          default:
            eo.perturb.tie_cap = 1;
            eo.perturb.stall_points = true;
            eo.perturb.stall_window = 2.0;
            dims = "stall";
            break;
        }
        char name[96];
        std::snprintf(name, sizeof name, "x%03ld-%s-%s-i%d-d%d-%s", index,
                      workload.c_str(), driver.c_str(), sc.params.iterations,
                      eo.max_choice_points, dims);
        op->name = name;
        if (certified.emplace(workload, sc.params.iterations).second)
          certify_scenario_program(sc, tracer);
        ops.push_back(std::move(op));
      }
    }
  }
  // Negative controls, configured as tests/test_explore.cpp configures
  // them — the broken CIC driver under delivery-delay perturbation, and the
  // fragile supervisor under stall injection — over rings of 3 and more
  // iterations.
  for (int k = 0; k < 5; ++k, ++index) {
    auto op = std::make_unique<ExploreOp>();
    op->negative = true;
    op->scenario.workload = "ring";
    op->scenario.params.iterations = 3 + k;
    op->scenario.nprocs = 3;
    op->scenario.driver = "cic-broken";
    op->scenario.proto.interval = 22.0;
    op->scenario.proto.cic_stagger = 0.5;
    op->scenario.seed = sim::run_seed(seed ^ 0xc1cULL, k);
    op->options.max_choice_points = 8;
    op->options.max_schedules = 4000;
    op->options.check_cic_index = true;
    op->options.perturb.delay_steps = 3;
    op->options.perturb.delay_quantum = 2.0;
    op->name = "x" + std::to_string(index) + "-negative-cic-broken-i" +
               std::to_string(op->scenario.params.iterations);
    ops.push_back(std::move(op));
  }
  for (int k = 0; k < 4; ++k, ++index) {
    auto op = std::make_unique<ExploreOp>();
    op->negative = true;
    op->scenario.workload = "ring";
    op->scenario.params.iterations = 3 + k;
    op->scenario.nprocs = 3;
    op->scenario.driver = "supervised-fragile";
    op->scenario.proto.interval = 20.0;
    op->scenario.seed = sim::run_seed(seed ^ 0xf4a9ULL, k);
    op->options.max_choice_points = 6;
    op->options.max_schedules = 3000;
    op->options.perturb.tie_cap = 1;
    op->options.perturb.stall_points = true;
    op->options.perturb.stall_window = 10.0;
    op->name = "x" + std::to_string(index) + "-negative-supervised-fragile-i" +
               std::to_string(op->scenario.params.iterations);
    ops.push_back(std::move(op));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 4.0;
  std::string root = ".";
  bool trace = false;
  std::string trace_out;
};

int usage() {
  std::cerr << "usage: acfc_bench --workload analyze|simulate|recover|explore"
               " [--seed S] [--seconds T] [--root DIR]"
               " [--trace --trace-out FILE]\n";
  return 2;
}

/// Peak resident set of this program. VmHWM belongs to the address space
/// exec created; getrusage's ru_maxrss would carry over the high-water
/// mark of the process that forked us (the Python runner).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

/// Timed passes a process always makes, so every op's best time has ≥ 3
/// samples; a traced process makes exactly these, which bounds the trace
/// size.
constexpr int kMinTimedPasses = 3;
/// Seconds between the set-ups of an untraced process. Before a timed pass,
/// once this long has gone by since the last set-up, the process sets up
/// again and the fresh op set (the same seed, so the same ops) replaces the
/// old one, so peak_rss_mb still holds one op set. The set-up times, whose
/// median run.py reports, then sample the whole run: on a shared host the
/// speed moves over seconds (README.md, Noise).
constexpr double kSetupInterval = 1.0;
/// The timed pass a traced process records; the timed passes before and
/// after it run untraced and give the tracing overhead.
constexpr int kTracedPass = 2;

OpList build_ops(const Args& args, Tracer& tracer,
                 std::vector<double>& setup_s) {
  // Every set-up starts with a cold sat cache, as every CLI process does.
  attr::global_sat_cache().clear();
  const auto t0 = Clock::now();
  Tracer::Scope scope(tracer, "bench.setup");
  OpList ops;
  if (args.workload == "analyze")
    ops = build_analyze(args.seed, args.root, tracer);
  else if (args.workload == "simulate")
    ops = build_simulate(args.seed, tracer);
  else if (args.workload == "recover")
    ops = build_recover(args.seed, tracer);
  else
    ops = build_explore(args.seed, tracer);
  setup_s.push_back(seconds_since(t0));
  return ops;
}

int run(const Args& args) {
  Tracer tracer(args.trace);
  std::vector<double> setup_s;
  OpList ops = build_ops(args, tracer, setup_s);
  auto last_setup = Clock::now();

  const std::size_t n = ops.size();
  std::vector<std::uint64_t> first_digest(n, 0);
  std::vector<long> execs(n, 0), failed(n, 0);
  std::vector<std::string> failure(n);
  std::vector<std::vector<double>> op_us;  // [timed pass][op]
  std::vector<double> pass_seconds;
  Counts counts;
  double events_per_pass = 0.0, lost_work = 0.0;
  double costed_makespan = 0.0, base_makespan = 0.0;
  long stored_bytes = 0, stored_records = 0, rollbacks = 0;

  // Set-up placed programs from a cold sat cache on every workload but
  // analyze, which clears it before each op and counts its own.
  const attr::SatCache::Stats setup_sat = attr::global_sat_cache().stats();
  counts["attr.sat_cache.hits"] += static_cast<double>(setup_sat.hits);
  counts["attr.sat_cache.misses"] += static_cast<double>(setup_sat.misses);

  // A traced process records set-up, the first-pass checks of the warm-up
  // pass (one-time verification, reported apart) and the whole of timed
  // pass kTracedPass; the untraced timed passes around it measure the
  // tracing overhead in the same process. Other counts come from that
  // timed pass only.
  std::vector<int> traced_pass;  // per timed pass
  int traced_passes = 0;
  Counts unrecorded;
  auto timed_t0 = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool first = pass == 0;
    if (!first && static_cast<int>(pass_seconds.size()) >= kMinTimedPasses &&
        (args.trace || seconds_since(timed_t0) >= args.seconds))
      break;
    if (!first && !args.trace && seconds_since(last_setup) >= kSetupInterval) {
      ops.clear();
      ops = build_ops(args, tracer, setup_s);
      last_setup = Clock::now();
    }
    const bool record = args.trace && pass == kTracedPass;
    const bool record_checks = record || (args.trace && first);
    tracer.set_pass(pass);
    traced_passes += record ? 1 : 0;
    Counts& sink = record ? counts : unrecorded;
    std::vector<double> times(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      Op& op = *ops[i];
      tracer.set_op(static_cast<int>(i));
      tracer.set_enabled(record);
      std::string problem;
      op.prepare();
      const auto t0 = Clock::now();
      try {
        Tracer::Scope scope(tracer, "bench.op");
        op.run(tracer);
      } catch (const std::exception& e) {
        problem = std::string("exception: ") + e.what();
      }
      times[i] = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count();
      tracer.set_enabled(record_checks);
      if (problem.empty()) {
        Tracer::Scope scope(tracer, "bench.check");
        try {
          problem = op.check(tracer, sink, first);
        } catch (const std::exception& e) {
          problem = std::string("exception in check: ") + e.what();
        }
      }
      if (first) {
        first_digest[i] = op.digest;
        events_per_pass += static_cast<double>(op.sim_events);
        stored_bytes += op.stored_bytes;
        stored_records += op.stored_records;
        rollbacks += op.rollbacks;
        lost_work += op.lost_work;
        costed_makespan += op.costed_makespan;
        base_makespan += op.base_makespan;
      } else if (problem.empty() && op.digest != first_digest[i]) {
        problem = "output differs between passes";
      }
      ++execs[i];
      if (!problem.empty()) {
        ++failed[i];
        if (failure[i].empty()) failure[i] = problem;
      }
    }
    if (!first) {
      double total = 0.0;
      for (const double t : times) total += t;
      pass_seconds.push_back(total * 1e-6);
      op_us.push_back(std::move(times));
      traced_pass.push_back(record ? 1 : 0);
    } else {
      timed_t0 = Clock::now();  // the run length counts timed passes only
    }
  }
  tracer.set_enabled(false);
  tracer.set_op(-1);
  tracer.set_pass(-1);

  const double peak_rss_mb = peak_rss_mib();

  std::ostringstream out;
  out << "{\"workload\":" << json_string(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"setup_s\":[";
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    out << (k ? "," : "") << json_number(setup_s[k]);
  out << "],\"traced_passes\":" << traced_passes << ",\"traced_pass\":[";
  for (std::size_t p = 0; p < traced_pass.size(); ++p)
    out << (p ? "," : "") << traced_pass[p];
  out << "]"
      << ",\"peak_rss_mb\":" << json_number(peak_rss_mb)
      << ",\"events_per_pass\":" << json_number(events_per_pass)
      << ",\"stored_bytes\":" << stored_bytes
      << ",\"stored_records\":" << stored_records
      << ",\"rollbacks\":" << rollbacks
      << ",\"lost_work_s\":" << json_number(lost_work)
      << ",\"costed_makespan\":" << json_number(costed_makespan)
      << ",\"base_makespan\":" << json_number(base_makespan)
      << ",\"pass_seconds\":[";
  for (std::size_t p = 0; p < pass_seconds.size(); ++p)
    out << (p ? "," : "") << json_number(pass_seconds[p]);
  out << "],\"op_us\":[";
  for (std::size_t p = 0; p < op_us.size(); ++p) {
    out << (p ? ",[" : "[");
    for (std::size_t i = 0; i < n; ++i) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%.3f", op_us[p][i]);
      out << (i ? "," : "") << buf;
    }
    out << "]";
  }
  out << "],\"ops\":[";
  for (std::size_t i = 0; i < n; ++i)
    out << (i ? "," : "") << "{\"name\":" << json_string(ops[i]->name)
        << ",\"digest\":\"" << hex64(first_digest[i])
        << "\",\"execs\":" << execs[i] << ",\"failed\":" << failed[i]
        << (failure[i].empty() ? ""
                               : ",\"failure\":" + json_string(failure[i]))
        << "}";
  out << "],\"counts\":{";
  bool comma = false;
  for (const auto& [name, v] : counts) {
    out << (comma ? "," : "") << json_string(name) << ":" << json_number(v);
    comma = true;
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;

  if (args.trace && !args.trace_out.empty())
    tracer.write_chrome_trace(args.trace_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        args.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        args.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        args.seconds = std::stod(argv[++i]);
      } else if (arg == "--root" && has_value) {
        args.root = argv[++i];
      } else if (arg == "--trace-out" && has_value) {
        args.trace_out = argv[++i];
      } else if (arg == "--trace") {
        args.trace = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.workload != "analyze" && args.workload != "simulate" &&
      args.workload != "recover" && args.workload != "explore")
    return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "acfc_bench: " << e.what() << '\n';
    return 1;
  }
}

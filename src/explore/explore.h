// Schedule-space exploration: systematic model checking of the protocol
// drivers over the deterministic engine (docs/testing.md, "Explorer").
//
// The engine plus a sim::ScheduleHook defines a finite choice tree: every
// same-time tie-break, bounded delivery delay, and failure point is a node
// whose out-edges are the alternatives. explore() walks that tree
// depth-first to a bounded horizon, runs EVERY visited schedule to
// completion, and judges each with the recovery oracle's verdict
// (sim/recovery.h): sim::check_run (completion, restored-cut consistency,
// corrupt members, zero orphans), optionally the CIC index invariant
// (proto::check_cic_index_invariant), then sim::check_replay — digest
// schedule-independence against the baseline. State-hash memoization
// (Engine::schedule_state_hash) prunes subtrees rooted at states the
// search has already expanded.
//
// Everything is bit-deterministic: given a Scenario + ExploreOptions the
// visit order, counts, and violations are reproducible; random-walk mode
// derives per-walk RNGs from (strategy_seed, walk index) via
// sim::run_seed; parallel mode shards the root's children round-robin
// across sim::parallel_map workers with worker-local memo sets and merges
// in shard order. Each shard keeps one engine and re-arms it for every
// schedule it runs (sim::Engine::rearm).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "explore/strategy.h"
#include "proto/protocols.h"
#include "sim/engine.h"
#include "workloads/workloads.h"

namespace acfc::explore {

/// A closed-world description of what to explore: everything needed to
/// rebuild the program, driver, and engine options from scratch — which
/// is exactly what a repro artifact must carry (explore/artifact.h).
struct Scenario {
  std::string workload = "ring";  ///< mp::workload_by_name
  mp::WorkloadParams params;
  std::string driver = "app-driven";  ///< proto::driver_factory_by_name
  proto::ProtocolOptions proto;
  int nprocs = 3;
  std::uint64_t seed = 1;
  sim::DelayModel delay;
  double checkpoint_overhead = 0.0;
  double checkpoint_latency = 0.0;

  mp::Program program() const {
    return mp::workload_by_name(workload, params);
  }
  sim::DriverFactory driver_factory() const {
    return proto::driver_factory_by_name(driver, proto);
  }
};

struct ExploreOptions {
  /// Branching horizon — bounds search depth AND counterexample length.
  int max_choice_points = 10;
  /// Schedule budget; the search reports complete=false when it runs out.
  long max_schedules = 5000;
  /// Failure injections per schedule.
  int max_failures = 1;
  /// Partition / stall injections per schedule (used only when the
  /// matching perturb.partition_points / perturb.stall_points are on).
  int max_partitions = 1;
  int max_stalls = 1;
  /// Prune via Engine::schedule_state_hash memoization.
  bool memoize = true;
  /// Worker threads for the sharded parallel search (1 = serial).
  int threads = 1;
  /// > 0: random-walk mode — this many independent seeded walks instead
  /// of the exhaustive DFS (never "complete"; good for big scenarios).
  long random_walks = 0;
  std::uint64_t strategy_seed = 1;
  /// Check digest schedule-independence / recovery replay against the
  /// all-defaults failure-free baseline. Turn OFF for workloads with
  /// any-source receives (master_worker), whose digests legitimately
  /// depend on message arrival order.
  bool check_digest = true;
  /// Check proto::check_cic_index_invariant (CIC-family drivers only).
  bool check_cic_index = false;
  sim::PerturbOptions perturb;
};

/// One oracle violation, with everything needed to reproduce it.
struct Violation {
  std::string property;  ///< completion | cut-consistency |
                         ///< corrupt-member | orphans | cic-index | digest
  std::string detail;    ///< human-readable specifics
  std::vector<int> plan; ///< trimmed choice plan that reproduces it
  std::uint64_t digest = 0;  ///< fold_digest of the violating run
};

/// Cap on violations RECORDED in an ExploreResult (all are counted).
inline constexpr std::size_t kMaxRecordedViolations = 16;

struct ExploreResult {
  long schedules_run = 0;
  long choice_points = 0;     ///< total consulted across schedules
  long states_recorded = 0;   ///< distinct frontier states memoized
  long states_pruned = 0;     ///< schedules cut short by a memo hit
  long max_plan_length = 0;   ///< deepest plan the search enqueued
  /// True iff the bounded tree was fully enumerated within budget (always
  /// false in random-walk mode).
  bool complete = false;
  long violations_found = 0;
  std::vector<Violation> violations;  ///< first kMaxRecordedViolations
};

/// Replay outcome of a single plan (no search).
struct ReplayReport {
  bool completed = false;
  std::uint64_t digest = 0;  ///< fold_digest of the run
  sim::SimStats stats;
  std::optional<Violation> violation;
};

/// Explores `scenario`'s schedule tree and oracle-checks every schedule.
/// The program, its sim::Model and the baseline run are built once per
/// search and shared read-only by every schedule and shard.
ExploreResult explore(const Scenario& scenario, const ExploreOptions& opts);

namespace detail {
struct Ctx;
class Runner;
}  // namespace detail

/// A scenario prepared for many replays: the program, its sim::Model and
/// the all-defaults baseline run are built once, not once per plan, and
/// one engine is re-armed for every replay (sim::Engine::rearm). Owning
/// that engine, a Replayer is not for concurrent use: give each thread
/// its own. `scenario` and `opts` must outlive the replayer.
class Replayer {
 public:
  Replayer(const Scenario& scenario, const ExploreOptions& opts);
  ~Replayer();

  /// Same report as replay_plan(scenario, opts, plan).
  ReplayReport replay(const std::vector<int>& plan);

 private:
  std::unique_ptr<const detail::Ctx> ctx_;
  std::unique_ptr<detail::Runner> runner_;
};

/// Replays one plan under the same semantics the search used and returns
/// its oracle verdict. Bit-deterministic: same scenario/options/plan →
/// same digest.
ReplayReport replay_plan(const Scenario& scenario,
                         const ExploreOptions& opts,
                         const std::vector<int>& plan);

/// Order-sensitive FNV-1a fold of per-process digests — the whole-run
/// fingerprint stored in artifacts and compared on replay.
std::uint64_t fold_digest(const std::vector<std::uint64_t>& parts);

}  // namespace acfc::explore

// The end-to-end recovery oracle: runs a program twice — once failure-free
// (the reference) and once under a FaultPlan — and checks that rollback
// recovery actually worked. The verdict is two pure functions over a
// SimResult, shared with the schedule explorer (explore/explore.h):
//
//  * check_run — the run completes; every rollback restored a
//    *consistent* cut (re-validated post-hoc with trace::analyze_cut,
//    independently of the engine's own check) holding no corrupt stored
//    image; and the final channel counters show no orphan messages;
//  * check_replay — (deterministic schemes, including the paper's
//    coordination-free placement) the run ends bit-identical to the
//    reference: same per-process digests and per-channel counters.
//
// A protocol driver factory lets the same oracle exercise the baselines in
// src/proto/ without a sim→proto layering inversion: the caller supplies
// fresh drivers, the oracle runs reference and faulty executions with
// independent instances.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "mp/stmt.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace acfc::sim {

/// Aggregate rollback-recovery cost over a batch of fault-injected runs —
/// the per-protocol comparison axes of bench/ablate_recovery.
struct RecoveryMetrics {
  long runs = 0;
  long completed = 0;
  long failures = 0;  ///< rollbacks actually executed (a fault landing
                      ///< after completion is a no-op)
  /// Mean over rollbacks of (latest restart − fail time).
  double mean_recovery_latency = 0.0;
  /// Mean over rollbacks of Σ_p (fail time − cut member completion).
  double mean_lost_work = 0.0;
  /// Mean over rollbacks of Σ_p demotions below the latest checkpoint —
  /// 0 means coordinated-quality recovery (the paper's claim); > 0 is the
  /// domino effect.
  double mean_rollback_distance = 0.0;
  long replayed_messages = 0;
  // Degraded-recovery axes (all zero when storage never rots):
  long degraded_rollbacks = 0;        ///< rollbacks that skipped ≥1 record
  long corrupt_records_skipped = 0;   ///< unverifiable records stepped over
  /// Mean over rollbacks of the deepest per-process fallback (consistency
  /// demotions + corrupt skips). App-driven placements keep this O(1) per
  /// corrupt record; uncoordinated ones let it grow with the domino chain.
  double mean_fallback_depth = 0.0;
  // Reliable-transport overhead (all zero on a loss-free wire):
  long transport_sends = 0;
  long transport_retransmits = 0;
  long transport_give_ups = 0;
  /// retransmits / payload sends — the wire-level overhead of reliability.
  double retransmit_overhead = 0.0;
  // Supervised-mode detection axes (all zero under engine-omniscient
  // recovery, where rollback is instantaneous at the fault):
  long suspicions = 0;         ///< detector verdicts reached
  long false_suspicions = 0;   ///< verdicts against live processes
  long supervised_restarts = 0;
  long quarantines = 0;        ///< processes retired on budget exhaustion
  /// Mean over detected crashes of (verdict time − crash time).
  double mean_detection_latency = 0.0;
  /// Mean over detected crashes of (resume time − crash time).
  double mean_downtime = 0.0;
};

RecoveryMetrics recovery_metrics(const std::vector<SimResult>& runs);

/// A deterministic pseudo-random fault plan: 1..max_faults faults over
/// mixed triggers (absolute time within `horizon`, after-k-th-checkpoint,
/// after-n-events), derived purely from `seed`. With max_partitions /
/// max_stalls > 0 the plan additionally draws 0..max single-process
/// partition windows and 0..max stall windows from the SAME seed stream —
/// the extra draws happen strictly after the crash draws, so any
/// (seed, max_faults) pair yields a crash schedule bit-identical to the
/// crash-only plans earlier releases produced.
FaultPlan random_fault_plan(std::uint64_t seed, int nprocs, double horizon,
                            int max_faults = 2, int max_partitions = 0,
                            int max_stalls = 0);

/// A deterministic pseudo-random storage-corruption plan: 1..max_faults
/// faults over mixed kinds (torn write, bit flip, lost manifest entry,
/// stale manifest) landing on write ordinals in [1, max_ordinal], derived
/// purely from `seed`. Pair with random_fault_plan to sweep crash ×
/// corruption jointly.
store::StorageFaultPlan random_storage_fault_plan(std::uint64_t seed,
                                                  int nprocs,
                                                  long max_ordinal,
                                                  int max_faults = 2);

/// The first recovery property a run violates: `property` names it
/// (completion | cut-consistency | corrupt-member | orphans | digest),
/// `detail` says where.
struct Verdict {
  std::string property;
  std::string detail;
};

/// The properties a finished run must hold on its own, checked in this
/// order: `completion` (every process reached exit), `cut-consistency`
/// (every restored cut re-validates under trace::analyze_cut),
/// `corrupt-member` (no restored cut holds one of
/// SimResult::corrupt_checkpoints — the teeth against an engine that
/// trusts rotten storage) and `orphans` (no channel's receiver consumed
/// more than its sender's final incarnation sent, self channels
/// included). nullopt when all hold.
std::optional<Verdict> check_run(const SimResult& run);

/// `digest`: the run's final per-process digests and per-channel
/// send/recv counters equal `reference`'s. Sound for deterministic
/// schemes under every protocol driver here: checkpoints and control
/// traffic never fold into the application digest.
std::optional<Verdict> check_replay(const SimResult& run,
                                    const SimResult& reference);

struct OracleReport {
  bool ok = false;
  /// Empty when ok; otherwise "<property>: <detail>" of the first
  /// violation.
  std::string failure;
  int restarts = 0;
  RecoveryMetrics metrics;
};

using DriverFactory = std::function<std::unique_ptr<ProtocolDriver>()>;

/// Runs the oracle: a failure-free reference and a fault-injected run of
/// the same program/options, each with a fresh driver from
/// `driver_factory` (null: coordination-free runtime). The reference must
/// complete; then check_run, then check_replay against the reference.
OracleReport check_recovery(const mp::Program& program,
                            const SimOptions& base, const FaultPlan& plan,
                            const DriverFactory& driver_factory = nullptr);

}  // namespace acfc::sim

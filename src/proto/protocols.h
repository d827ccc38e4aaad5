// Runnable baseline checkpointing protocols (Section 4.1 comparators).
//
// Each protocol is a sim::ProtocolDriver over the same application program
// and the same simulated network, so control-message counts, forced
// checkpoints, and blocked time are measured rather than assumed:
//
//  * AppDriven       — the paper's approach: checkpoints are the program's
//                      own statements (after Phase III placement); ZERO
//                      control messages, zero blocking. Realized by passing
//                      no driver at all; run_protocol wires this up.
//  * SyncAndStop     — the coordinator stops all processes, everyone
//                      checkpoints, then resumes: 3 coordinator waves and
//                      2 reply waves = 5(n−1) control messages per
//                      checkpoint round, matching the paper's M(SaS).
//  * ChandyLamport   — marker-based distributed snapshots: n(n−1) markers
//                      plus n(n−1) marker acknowledgements = 2n(n−1)
//                      messages per snapshot, matching M(C-L); in-flight
//                      application messages between a process's snapshot
//                      and the channel's marker are logged as channel
//                      state.
//  * Cic (BCS-style) — uncoordinated timer checkpoints plus a checkpoint
//                      index piggybacked on application messages; delivery
//                      of a message with a higher index forces a
//                      checkpoint first. Zero control messages, but forced
//                      checkpoints and piggyback bytes.
//  * Uncoordinated   — fully independent timer checkpoints; zero overhead
//                      at runtime but recovery may cascade (domino), which
//                      trace::max_recovery_line quantifies.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mp/stmt.h"
#include "sim/engine.h"
#include "sim/recovery.h"

namespace acfc::proto {

enum class Protocol {
  kAppDriven,
  kSyncAndStop,
  kChandyLamport,
  kKooToueg,
  kCic,
  kUncoordinated,
};

const char* protocol_name(Protocol protocol);

struct ProtocolOptions {
  /// Checkpoint period T (seconds) for the timer-driven protocols.
  double interval = 300.0;
  /// Coordinator / initiator rank.
  int coordinator = 0;
  /// Control-message size (the paper uses an 8-bit program message).
  int control_bytes = 1;
  /// Uncoordinated: per-process phase stagger as a fraction of the
  /// interval (process p starts its timer at interval·(1 + stagger·p/n)).
  double stagger = 0.25;
  /// First round fires at this time (defaults to one interval in).
  double first_round_at = -1.0;
  /// CIC: per-process basic-timer stagger, same formula as `stagger`.
  /// 0 (the default, bit-identical to previous releases) means every
  /// process's basic timer fires at the same instants, so checkpoint
  /// indices never diverge and the BCS forcing rule is vacuous; > 0 models
  /// independent clocks, where index skew makes the rule load-bearing —
  /// which is what the schedule explorer's negative control needs.
  double cic_stagger = 0.0;
};

struct ProtocolRunResult {
  sim::SimResult sim;
  Protocol protocol = Protocol::kAppDriven;
  /// Completed coordinated rounds (SaS / C-L).
  int rounds_completed = 0;
};

/// Creates the driver for `protocol` (nullptr for kAppDriven).
std::unique_ptr<sim::ProtocolDriver> make_driver(Protocol protocol,
                                                 const ProtocolOptions& opts);

/// Runs `program` under `protocol`. For kAppDriven the program's own
/// checkpoint statements fire; for the other protocols the program is
/// typically checkpoint-free and the driver provides all checkpoints.
ProtocolRunResult run_protocol(const mp::Program& program, Protocol protocol,
                               const sim::SimOptions& sim_opts,
                               const ProtocolOptions& proto_opts = {});

/// A factory of fresh `protocol` drivers (make_driver per call) — the
/// form sim::check_recovery and the explorer take.
sim::DriverFactory driver_factory(Protocol protocol,
                                  const ProtocolOptions& opts = {});

/// Closed-form per-checkpoint coordination message count from the paper:
/// M(SaS) = 5(n−1)·(w_m + 8·w_b), M(C-L) = 2n(n−1)·(w_m + 8·w_b), and 0
/// for the app-driven, CIC (no control messages), and uncoordinated
/// protocols. Koo–Toueg's count depends on the dependency closure; the
/// returned 3(n−1) is its dense-communication worst case. Returned here
/// as the raw message COUNT (the time weighting happens in the perf
/// model).
long expected_control_messages(Protocol protocol, int nprocs);

/// Driver factory keyed by a stable wire name — the form schedule-space
/// repro artifacts store. Accepts every protocol ("app-driven",
/// "sync-and-stop", "chandy-lamport", "koo-toueg", "cic", "uncoordinated"),
/// the supervised control plane "supervised" (a sim::Supervisor with
/// detector geometry derived from `interval`: timeout = interval,
/// heartbeats 5x faster, restart budget 3), plus two deliberately broken
/// negative-control variants: "cic-broken" (a CicDriver that skips the
/// first BCS-forced checkpoint) and "supervised-fragile" (timeout =
/// interval/4 and a zero restart budget, so one false suspicion
/// quarantines a healthy process) — the seeded bugs the explorer must
/// catch. Each factory call returns a FRESH driver (drivers are stateful;
/// one engine run each). The app-driven factory returns nullptr drivers.
/// Throws util::ProgramError on unknown names.
sim::DriverFactory driver_factory_by_name(const std::string& name,
                                          const ProtocolOptions& opts = {});

/// All names driver_factory_by_name accepts, genuine protocols first.
std::vector<std::string> explorable_driver_names();

/// The CIC index invariant (the BCS safety argument): replays the trace in
/// event order maintaining per-process checkpoint counts — rewound through
/// each recorded rollback via the restored cut — and checks that every
/// application receive lands on a process whose count is >= the message's
/// piggybacked index. A correct CIC driver forces checkpoints in
/// before_delivery precisely to maintain this; "cic-broken" violates it.
/// Returns a violation description, or nullopt if the invariant holds.
/// Meaningful only for runs driven by a CIC-family driver.
std::optional<std::string> check_cic_index_invariant(
    const sim::SimResult& result);

}  // namespace acfc::proto

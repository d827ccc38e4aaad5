// Schedule perturbation: the engine's one extension point for systematic
// schedule-space exploration (src/explore/).
//
// The engine is deterministic — events are totally ordered by (time, seq)
// and popped in exactly that order — which makes its schedule REPLAYABLE
// but also means a single seed visits a single interleaving. A ScheduleHook
// turns the fixed schedule into a tree of schedules by surfacing three
// kinds of decision the deterministic order otherwise hard-codes:
//
//  * kTieBreak — several queued events share the same timestamp (barrier
//    releases, same-time timer rounds, a delivery racing a timer). The
//    default (time, seq) order always picks the earliest-pushed one; the
//    hook may pick any of the simultaneous candidates. Only the dispatch
//    ORDER changes — every candidate still runs at the same instant, so
//    perturbed schedules stay legal executions of the system model.
//  * kDeliveryDelay — a message is about to be scheduled for delivery; the
//    hook may add 0..arity-1 quanta of extra latency BEFORE the per-channel
//    FIFO floor is applied, so FIFO channels stay FIFO but a delivery can
//    slide past an independent timer or checkpoint boundary.
//  * kFailurePoint — a process just crossed a send / receive / checkpoint
//    boundary; the hook may inject a crash of that process right there
//    (choice 1) or decline (choice 0). This enumerates exactly the "failure
//    between a send and its checkpoint" interleavings that seed-randomized
//    fault plans only sample.
//
// Contract: choice 0 is ALWAYS the unperturbed default, so a hook that
// returns 0 everywhere reproduces the hook-free run bit-for-bit. The hook
// is consulted at deterministic points in a deterministic order; given the
// same sequence of answers the engine replays the same schedule, which is
// what makes recorded choice vectors replayable artifacts (explore/
// artifact.h). Hooks require the reliable fast path (the lossy shim
// explores timing through its own seeds).
#pragma once

#include <cstdint>

namespace acfc::sim {

class Engine;

enum class ChoiceKind {
  kTieBreak,       ///< pick among same-timestamp queue candidates
  kDeliveryDelay,  ///< extra delivery latency, in quanta
  kFailurePoint,   ///< inject a crash at an action boundary (1) or not (0)
  kPartitionPoint, ///< isolate the process for a window (1) or not (0)
  kStallPoint,     ///< stall the process for a window (1) or not (0)
};

/// Where a kFailurePoint sits in the process's action stream.
enum class BoundaryKind {
  kNone,        ///< not a failure point
  kSend,        ///< immediately after a send was queued
  kRecv,        ///< immediately after a receive completed
  kCheckpoint,  ///< immediately after a checkpoint take
};

/// One decision offered to the hook. `arity` alternatives exist; the hook
/// must answer in [0, arity). `engine` is the live engine, so strategies
/// can hash its state for memoization (Engine::schedule_state_hash).
struct ChoicePoint {
  ChoiceKind kind = ChoiceKind::kTieBreak;
  int arity = 1;
  int proc = -1;  ///< the process at a failure point; -1 otherwise
  BoundaryKind boundary = BoundaryKind::kNone;
  const Engine* engine = nullptr;
};

class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;
  /// Must return a value in [0, cp.arity); out-of-range answers are
  /// clamped to the default 0. Called synchronously from the event loop —
  /// the hook must not re-enter the engine.
  virtual int choose(const ChoicePoint& cp) = 0;
};

/// Bounds on how much nondeterminism the hook is offered. All defaults
/// keep the choice tree small; arity-1 dimensions generate no choice
/// points at all.
struct PerturbOptions {
  /// Max simultaneous events offered per tie-break (≤ kMaxTieBreak).
  int tie_cap = 3;
  /// Delivery-delay alternatives per send: steps 0..delay_steps-1 quanta.
  /// 1 ⇒ deliveries are never perturbed.
  int delay_steps = 1;
  /// Seconds per delay quantum; ≤ 0 uses DelayModel::setup (one extra
  /// network setup time per step — enough to slide past a same-scale race
  /// without distorting the schedule wholesale).
  double delay_quantum = 0.0;
  /// Offer kFailurePoint choices at send/recv/checkpoint boundaries.
  bool failure_points = false;
  /// Offer kPartitionPoint choices at the same boundaries: choice 1
  /// symmetrically isolates the process for `partition_window` seconds.
  bool partition_points = false;
  double partition_window = 0.5;
  /// Offer kStallPoint choices at the same boundaries: choice 1 stalls the
  /// process (alive but not executing) for `stall_window` seconds.
  bool stall_points = false;
  double stall_window = 0.5;

  static constexpr int kMaxTieBreak = 8;
};

}  // namespace acfc::sim

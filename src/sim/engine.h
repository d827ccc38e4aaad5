// The discrete-event simulation engine: asynchronous reliable FIFO message
// passing between n interpreted processes, exactly the system model of
// Section 2 of the paper (blocking receives, per-channel FIFO delivery,
// deterministic per-process automata).
//
// Capabilities beyond plain execution:
//  * vector-clock instrumentation of every event → trace::Trace;
//  * checkpoint statements snapshot the full process state into a
//    checkpoint store;
//  * failure injection with whole-application rollback to the maximal
//    recovery line, sender-based message logging for in-transit replay,
//    and deterministic re-execution (validated by execution digests);
//  * protocol-driver hooks (timers, control messages, forced checkpoints,
//    pause/resume, piggybacking) for the baseline protocols.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mp/stmt.h"
#include "sim/driver.h"
#include "sim/event.h"
#include "sim/fault.h"
#include "sim/model.h"
#include "sim/schedule_hook.h"
#include "sim/seqring.h"
#include "sim/vm.h"
#include "store/fault.h"
#include "trace/analysis.h"
#include "trace/trace.h"

namespace acfc::obs {
class Registry;
}  // namespace acfc::obs

namespace acfc::sim {

/// Message latency: setup + per_byte·bytes (the w_m and w_b of Section 4),
/// plus optional uniform jitter in [0, jitter).
///
/// The loss knobs make the network unreliable: each transmission attempt
/// is independently dropped with probability `drop`, duplicated with
/// probability `dup`, and detoured (an extra uniform delay of up to 50 ms
/// that lets later attempts overtake it) with probability `reorder`.
/// Any of them > 0 switches the engine onto the reliable-transport shim
/// (per-channel sequence numbers, ack + timeout retransmit, duplicate
/// suppression), which restores exactly-once FIFO delivery to the layers
/// above — application receives AND protocol control traffic, so
/// Chandy–Lamport markers and CIC piggybacks survive loss. With all three
/// at 0 the engine runs the perfectly-reliable fast path.
struct DelayModel {
  double setup = 1e-3;
  double per_byte = 1e-6;
  double jitter = 0.0;
  double drop = 0.0;           ///< P(attempt lost), per transmission
  double dup = 0.0;            ///< P(attempt arrives twice)
  double reorder = 0.0;        ///< P(attempt takes a detour)

  double base(int bytes) const {
    return setup + per_byte * static_cast<double>(bytes);
  }
  bool lossy() const { return drop > 0.0 || dup > 0.0 || reorder > 0.0; }
};

/// Reliable-transport shim tuning (active only when DelayModel::lossy()).
/// The retransmit timeout starts at 50 ms and doubles per retry; a
/// cumulative ack is 8 bytes on the wire.
struct TransportOptions {
  int max_retries = 16;  ///< retry cap; past it the message is abandoned
                         ///< (stats.transport_give_ups) and the run may
                         ///< end incomplete — exactly like a real channel
                         ///< declaring its peer unreachable
};

struct SimOptions {
  int nprocs = 4;
  std::uint64_t seed = 1;
  DelayModel delay;
  TransportOptions transport;
  /// o: time a process is blocked while taking one checkpoint.
  double checkpoint_overhead = 0.0;
  /// l: time until the checkpoint is durable on stable storage (commit).
  /// The process resumes after o; recovery can only use checkpoints whose
  /// commit time precedes the failure. 0 means l = o.
  double checkpoint_latency = 0.0;
  /// Per-checkpoint cost override: (proc) → {overhead o, latency l}.
  /// When set, it takes precedence over the constants above — e.g. a
  /// store::StableStore deriving costs from state size and incremental
  /// chains. Must be deterministic for replay.
  std::function<std::pair<double, double>(int proc)> checkpoint_cost_fn;
  /// R: restart delay applied to all processes on recovery.
  double recovery_overhead = 0.0;
  /// Multiplicative jitter on compute durations, uniform in [0, x).
  double compute_jitter = 0.0;
  /// Per-process relative compute speed (duration /= speed); empty means
  /// homogeneous 1.0. Models heterogeneous grid nodes.
  std::vector<double> compute_speed;
  /// Declarative failure-injection schedule: crashes (time /
  /// after-checkpoint / after-events triggers) plus gray-failure windows.
  /// Validated in the Engine constructor.
  FaultPlan fault_plan;
  /// Declarative storage corruption: each entry lands on one process's
  /// n-th checkpoint take (1-based, counting re-takes after rollback).
  /// Torn writes / bit flips / lost manifest entries make that image
  /// permanently unusable; a stale manifest hides it only until the next
  /// successful take publishes over it. No StableStore needed — this is
  /// the cheap path for large sweeps.
  store::StorageFaultPlan storage_faults;
  /// Store-wired integrity: (proc, take ordinal) → does that record's
  /// restore chain verify RIGHT NOW? Consulted at rollback time, so
  /// transient faults heal exactly when the backing store says they do
  /// (see store::checkpoint_verify_fn). Combined (AND) with
  /// `storage_faults` when both are set.
  std::function<bool(int proc, long ordinal)> checkpoint_verify_fn;
  /// Degraded-mode selection switch. True: rollback restores the deepest
  /// consistent cut whose every member verifies. False: the deliberately
  /// weakened no-verify mode — rollback trusts corrupt images, which the
  /// recovery oracle must catch (negative control).
  bool verify_stored_checkpoints = true;
  /// Capture hook fired on every checkpoint take with the process's full
  /// VM state — the bridge to real stored payloads. sim::store_capture_fn
  /// serializes it into a StableStore inline; sim::async_store_capture_fn
  /// hands a pooled copy to a store::AsyncPersister, whose writer thread
  /// serializes and stores it off the simulation critical path (see
  /// sim/snapshot_codec.h). Independent of keep_snapshots. Must be
  /// deterministic for replay.
  std::function<void(int proc, const VmSnapshot& state)> checkpoint_capture_fn;
  /// Retain VM snapshots for checkpoints (needed for failures/restart).
  bool keep_snapshots = true;
  /// Schedule-perturbation hook (sim/schedule_hook.h): when set, the
  /// engine offers tie-break / delivery-delay / failure-point choices at
  /// deterministic points and follows the hook's answers. Requires the
  /// reliable fast path; nullptr costs nothing on the hot paths.
  ScheduleHook* schedule_hook = nullptr;
  /// How much nondeterminism the hook is offered (ignored when the hook
  /// is null).
  PerturbOptions perturb;
  /// Supervised failure mode: crashes mark the process dead (events
  /// targeting it are dropped) instead of triggering immediate rollback;
  /// recovery waits for an in-model verdict (Engine::supervised_restart /
  /// Engine::quarantine, normally issued by sim::Supervisor). Forced on
  /// automatically when the driver's wants_supervised_failures() is true.
  bool supervised = false;
  /// Runaway guard.
  long max_events = 5'000'000;
  /// Resolver for irregular expressions; when empty, the VMs call the
  /// deterministic hash sim::default_irregular() (values in [0, nprocs)).
  mp::IrregularResolver irregular;
  /// Observability sink (docs/observability.md). nullptr ⇒ fully inert:
  /// the engine keeps its plain SimStats counters and never touches the
  /// registry, so the common uninstrumented run pays nothing.
  /// When set, the engine flushes end-of-run totals, per-recovery
  /// histograms, and checkpoint/rollback spans (in simulated time) into it
  /// — one registry per run (the per-run-resources rule of run_batch).
  obs::Registry* obs = nullptr;
};

struct SimStats {
  long app_messages = 0;
  long app_bytes = 0;
  long control_messages = 0;
  long control_bytes = 0;
  long statement_checkpoints = 0;
  long forced_checkpoints = 0;
  long events_processed = 0;
  int restarts = 0;
  /// Time processes spent paused by a protocol (summed over processes).
  double paused_time = 0.0;
  /// Messages recorded as channel state by a C-L-style protocol.
  long channel_logged_messages = 0;
  // Reliable-transport shim counters (all 0 on the reliable fast path).
  long transport_sends = 0;        ///< payloads handed to the shim
  long transport_retransmits = 0;  ///< RTO-triggered re-sends
  long transport_dropped = 0;      ///< attempts (data or ack) the wire lost
  long transport_dup_arrivals = 0; ///< arrivals suppressed as duplicates
  long transport_acks = 0;         ///< cumulative acks sent
  long transport_give_ups = 0;     ///< payloads abandoned at the retry cap
  long transport_rto_backoffs = 0; ///< retransmits past the first per
                                   ///< payload (RTO grew exponentially)
  /// Largest out-of-order arrival backlog any one channel buffered.
  long transport_reorder_high_water = 0;
  // Partition / gray-failure / supervision counters (all 0 unless the
  // fault plan carries windows or the run is supervised).
  long suspicions = 0;          ///< detector suspect verdicts reported
  long false_suspicions = 0;    ///< ...where the subject was in fact alive
  int supervised_restarts = 0;  ///< rollbacks triggered by a supervisor
  long quarantines = 0;         ///< processes retired at budget exhaustion
  long crash_dropped_events = 0;    ///< events dropped at a dead process
  long partition_deferred_sends = 0;    ///< fast-path departures held to heal
  long partition_dropped_attempts = 0;  ///< lossy-wire attempts a cut ate
  long stall_deferred_events = 0;       ///< events pushed past a stall window
};

/// One whole-application rollback, recorded as it happened: which process
/// failed, the recovery line the engine restored, and what the rollback
/// cost. The recovery oracle (sim/recovery.h) replays these post-hoc.
struct RecoveryRec {
  int failed_proc = -1;
  double fail_time = 0.0;
  /// Restart time of every restored process: fail_time plus the restart
  /// delay R (SimOptions::recovery_overhead).
  double resume_time = 0.0;
  trace::Cut cut;               ///< the restored recovery line
  std::vector<int> rollbacks;   ///< per-process demotion below its latest
                                ///< USABLE checkpoint
  double lost_work = 0.0;       ///< Σ_p (fail_time − cut member completion)
  long replayed_messages = 0;   ///< in-transit messages re-injected from log
  /// Degraded-recovery accounting (all zero/false for clean rollbacks):
  /// deepest per-process fallback counting both consistency demotions and
  /// corrupt records stepped over (the ISSUE's fallback depth)...
  int fallback_depth = 0;
  /// ...total unverifiable records the selection skipped across processes,
  long corrupt_records_skipped = 0;
  /// ...and whether this rollback had to skip any at all.
  bool degraded = false;
  // Supervised-recovery accounting (negative / false when the rollback was
  // engine-triggered rather than detector-triggered):
  /// crash → detector suspicion latency (-1 when not supervisor-driven).
  double detection_latency = -1.0;
  /// crash → resume_time outage span (-1 when not supervisor-driven).
  double downtime = -1.0;
  /// The supervisor restarted a process that had never crashed (false
  /// suspicion under partition/stall — safe, but costs a rollback).
  bool false_suspicion = false;
};

struct SimResult {
  trace::Trace trace;
  SimStats stats;
  std::vector<RecoveryRec> recoveries;
  /// Final per-channel counters, flattened src·n+dst / dst·n+src. The
  /// zero-orphan recovery invariant is final_recvs[d·n+s] ≤
  /// final_sends[s·n+d] for every channel: no process ends the run having
  /// consumed a message its sender's final incarnation never sent.
  std::vector<long> final_sends;
  std::vector<long> final_recvs;
  /// Trace checkpoint indices whose stored images are permanently corrupt
  /// (torn / bit-flipped / manifest-lost under SimOptions::storage_faults).
  /// The recovery oracle asserts no restored cut ever contains one.
  std::vector<int> corrupt_checkpoints;
};

class Engine {
 public:
  /// `model` (and its program) must outlive the engine; many engines may
  /// share one model, also across threads. `driver` may be nullptr (the
  /// coordination-free app-driven runtime).
  Engine(const Model& model, SimOptions opts,
         ProtocolDriver* driver = nullptr);
  /// Builds a private Model of `program`, which must outlive the engine
  /// and stay unmutated.
  Engine(const mp::Program& program, SimOptions opts,
         ProtocolDriver* driver = nullptr);
  ~Engine();

  /// Runs to completion (all processes finish) or until max_events.
  SimResult run();

  // -- Driver API ----------------------------------------------------------
  double now() const { return now_; }
  int nprocs() const { return opts_.nprocs; }
  void schedule_timer(int proc, double time, int timer_id);
  void send_control(int src, int dst, int bytes, int kind, long payload = 0);
  /// Snapshots `proc` immediately (a protocol-forced checkpoint).
  void force_checkpoint(int proc);
  /// Number of checkpoints `proc` has completed (the CIC index).
  long checkpoint_count(int proc) const;
  /// Asks `proc` to halt at its next action boundary (on_paused fires).
  void request_pause(int proc);
  void resume(int proc);
  bool is_paused(int proc) const;
  /// True once `proc` reached program exit.
  bool is_done(int proc) const;
  /// True once every process reached program exit — protocol drivers must
  /// stop rescheduling timers then, or the event loop never drains.
  bool all_done() const;
  /// Lets a C-L driver account a logged channel-state message.
  void note_channel_logged() { ++stats_.channel_logged_messages; }

  // -- Supervised failure mode (SimOptions::supervised) --------------------
  /// True while `proc` is crashed (supervised mode) and not yet restored.
  bool is_crashed(int proc) const;
  /// True once `proc` was retired by quarantine(); never restored.
  bool is_quarantined(int proc) const;
  /// True while `proc` is blocked in a receive or collective.
  bool is_blocked(int proc) const;
  /// Crash time of a currently-crashed `proc` (meaningless otherwise).
  double crash_time(int proc) const;
  /// Retires `proc` permanently: it stays dead, its events are dropped,
  /// and rollbacks stop restoring it. The supervisor calls this when the
  /// restart budget is exhausted so the rest of the run can degrade
  /// gracefully instead of thrashing.
  void quarantine(int proc);
  /// Detector-verdict recovery: rolls the application back exactly like an
  /// engine-triggered failure of `proc` would have, then stamps the
  /// resulting RecoveryRec with detection latency / downtime (crashed
  /// subject) or marks it a false suspicion (live subject). `detected_at`
  /// is when the detector first suspected the process (-1 ⇒ now).
  void supervised_restart(int proc, double detected_at = -1.0);
  /// Detector bookkeeping: a suspect verdict was reached (the engine only
  /// counts; suspicion itself lives in the detector).
  void note_detector_suspicion(bool false_positive);
  /// Monotone progress measure: Σ_p own vector-clock component. The
  /// supervisor uses successive stamps to detect a wedged (quarantine-
  /// starved) run and go dormant so the event queue can drain.
  std::uint64_t progress_stamp() const;

  /// Digest of the engine's entire schedule-relevant state: per-process VM
  /// digests / clocks / statuses, undelivered inbox contents, checkpoint
  /// history, and the live event queue with event times quantized RELATIVE
  /// to now. Two engines with equal hashes are (modulo the 64-bit digest)
  /// in the same logical state and will unfold identical schedule
  /// subtrees, which is what the explorer's memoization prunes on.
  std::uint64_t schedule_state_hash() const;

 private:
  struct Process;

  /// Exactly one of `model` / `program` is non-null; a program gets a
  /// private Model.
  Engine(const Model* model, const mp::Program* program, SimOptions opts,
         ProtocolDriver* driver);

  /// A fresh VM for process `p` over the model and its invariant row.
  std::unique_ptr<Vm> make_vm(int p);
  void bootstrap();
  void dispatch(const Ev& ev);
  /// Drives `proc` forward from the current time until it blocks.
  void advance(int proc);
  void complete_recv(int proc, long msg_index);
  std::optional<long> find_matching(int proc, const ActionRecv& want);
  void deliver(long msg_index);
  /// Returns the blocking overhead charged to the process.
  double take_checkpoint(int proc, int ckpt_id, bool forced);
  void start_collective(int proc, const Action& action);
  void handle_failure(int proc);
  /// Supervised mode: mark `proc` crashed without rolling anything back —
  /// recovery waits for a detector verdict (supervised_restart/quarantine).
  void supervised_crash(int proc);
  /// The whole-application rollback machinery (recovery-line selection,
  /// restore, message replay). handle_failure delegates here directly in
  /// engine-omniscient mode; supervised_restart reuses it for verdicts.
  void perform_rollback(int failed_proc);
  // -- Message departure -----------------------------------------------------
  /// Flattened index of the ordered channel src→dst (src·n + dst).
  std::size_t chan_of(int src, int dst) const {
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(opts_.nprocs) +
           static_cast<std::size_t>(dst);
  }
  /// The one departure path of every message — application send, protocol
  /// control send, or sender-log replay — leaving msg.src at time `at`.
  /// Assigns msg.id and appends the record to the trace. On the lossy wire
  /// the message goes to the reliable shim (xport_send); otherwise its
  /// departure is deferred past any partition on the link, it takes
  /// p2p_delay and the hook's delivery perturbation, and the per-channel
  /// FIFO floor (app or control, by msg.control) orders its kDeliver.
  /// Returns the id.
  long post(trace::MsgRec msg, double at);

  // -- Partition / stall / slow-link window evaluation ---------------------
  /// True if src→dst traffic is cut at time `t`.
  bool link_blocked(int src, int dst, double t) const;
  /// Earliest time ≥ t at which src→dst is unblocked (fixed point over
  /// overlapping windows; t itself when clear).
  double link_clear_time(int src, int dst, double t) const;
  /// Product of active slow-link factors on src→dst at `t`.
  double slow_factor(int src, int dst, double t) const;
  /// message_delay(bytes) scaled by the channel's slow factor at `at`.
  double p2p_delay(int src, int dst, int bytes, double at);
  /// Earliest time ≥ t at which `proc` is not stalled.
  double stall_clear_time(int proc, double t) const;
  /// Fires any pending after-checkpoint fault of `proc` that its tally
  /// just satisfied.
  void check_checkpoint_faults(int proc);
  /// Fires any pending after-events fault the processed count satisfied.
  void check_event_faults();
  /// Rebuilds collective-round join state after a rollback so processes
  /// re-execute exactly the rounds their restored counters precede.
  void reset_collectives_for_rollback();
  double message_delay(int bytes);
  void push_event(double time, EvKind kind, int proc, long a = -1,
                  long b = -1);
  /// Parks `proc` in kComputing until a wake at `time` makes it kReady
  /// again: the end of a compute (`compute_uid` = its statement; the wake
  /// records the kCompute event), a checkpoint overhead, or a collective
  /// release (-1: nothing to record).
  void wake_at(int proc, double time, int compute_uid = -1);
  /// Appends a trace event of `kind` about `proc` at `time`, stamped with
  /// proc's current vector clock; the caller fills the kind-specific
  /// fields. Valid until the next event is appended.
  trace::EventRec& note(trace::EventKind kind, int proc, double time);
  // -- Schedule-perturbation hook plumbing (sim/schedule_hook.h) -----------
  /// Pops the next event; with a hook attached, gathers same-time
  /// candidates and lets the hook permute the tie-break.
  Ev next_event();
  /// Offers the hook a bounded delivery-delay choice for a send scheduled
  /// at `deliver_at`; returns the (possibly postponed) delivery time.
  /// post() applies the per-channel FIFO floor AFTER this, so perturbed
  /// channels stay FIFO.
  double perturb_delivery(double deliver_at);
  /// Offers the hook a crash of `proc` at an action boundary.
  void offer_failure_point(BoundaryKind boundary, int proc);
  /// True if `ev` will be dispatched (failure events survive epochs).
  bool event_live(const Ev& ev) const {
    return ev.kind == EvKind::kFailure || ev.epoch == epoch_;
  }
  /// Degraded selection: is trace checkpoint `ckpt_index` restorable right
  /// now? Combines the declarative storage_faults marks (stale entries
  /// heal once overwritten by a later take) with checkpoint_verify_fn.
  bool checkpoint_usable(int ckpt_index) const;
  /// Whether rollback must run degraded selection at all.
  bool degraded_selection_active() const;
  /// End-of-run observability flush: copies SimStats and the event
  /// queue's high-water mark into opts_.obs, emits checkpoint/rollback
  /// spans stamped with simulated time, and records per-recovery
  /// rollback-distance/lost-work histograms. No-op when opts_.obs is
  /// nullptr; called once before the trace is moved into the SimResult.
  void flush_obs();

  // -- Reliable transport over a lossy wire (DelayModel::lossy()) ----------
  /// Hands trace message `msg_index` to the shim at time `at`: assigns the
  /// channel sequence number, sends the first attempt, arms the RTO.
  void xport_send(long msg_index, double at);
  /// One wire attempt (initial or retransmission) of `seq` on `chan`.
  void xport_transmit(std::size_t chan, long seq, double at);
  /// Arrival time of one wire attempt (data or ack) of `bytes` leaving
  /// src at `at`: p2p_delay plus a possible reorder detour, no earlier
  /// than dst's restart.
  double wire_arrival(int src, int dst, int bytes, double at);
  void handle_net_arrive(long msg_index);
  void handle_ack(std::size_t chan, long upto);
  void handle_rto(std::size_t chan, long seq);
  void send_xport_ack(std::size_t chan);
  /// Clears every channel (unacked windows, reorder buffers, sequence
  /// counters) after a rollback; in-flight transport events die via the
  /// epoch bump.
  void reset_transport_for_rollback();

  const Model* model_;  ///< set by the end of construction
  std::unique_ptr<const Model> owned_model_;  ///< null when shared
  SimOptions opts_;
  ProtocolDriver* driver_;
  /// Values of the model's rank-pure roots, nprocs rows of
  /// model_->slot_count() slots, filled on first use. One allocation per
  /// engine; survives VM re-creation on rollback.
  std::vector<InvariantSlot> invariants_;

  /// A restorable checkpoint image: VM state plus any outstanding blocking
  /// receive (a protocol may force a checkpoint while a process is blocked,
  /// in which case the receive is still pending in the restored state).
  /// The VM state is an immutable shared image — rollbacks and repeated
  /// restores alias it instead of copying.
  struct EngineSnapshot {
    std::shared_ptr<const VmSnapshot> vm;
    std::optional<ActionRecv> pending_recv;
  };

  double now_ = 0.0;
  long event_seq_ = 0;
  int epoch_ = 0;
  SimStats stats_;
  trace::Trace trace_;
  std::vector<RecoveryRec> recoveries_;
  struct PendingFault {
    FaultSpec spec;
    bool fired = false;
  };
  std::vector<PendingFault> pending_faults_;
  // Supervised-mode liveness (all-false unless opts_.supervised):
  std::vector<char> crashed_;
  std::vector<char> quarantined_;
  std::vector<double> crash_time_;
  /// Gray-failure windows: the fault plan's, moved here after validation,
  /// followed by explorer-injected ones (kPartitionPoint/kStallPoint
  /// choices) in injection order. Never cleared — windows expire by time.
  std::vector<PartitionSpec> partitions_;
  std::vector<StallSpec> stalls_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<EngineSnapshot> snapshots_;
  /// Per-process completed-checkpoint tally — checkpoint_count() is on the
  /// CIC piggyback path (one call per app message), so it must be O(1).
  std::vector<long> ckpt_counts_;
  /// Per-process take ordinal (1-based, increments on EVERY take including
  /// post-rollback re-takes, never rewinds) — the key joining trace
  /// checkpoints to stable-storage records and StorageFault::ckpt_ordinal.
  std::vector<long> take_counts_;
  // Parallel to trace_.checkpoints (appended in take_checkpoint):
  std::vector<long> ckpt_take_ordinal_;  ///< take ordinal of each trace ckpt
  std::vector<char> ckpt_corrupt_;       ///< permanently unusable image
  std::vector<char> ckpt_stale_;         ///< manifest publish failed; heals
                                         ///< when a later take publishes

  // Channels: (src, dst) → FIFO bookkeeping.
  std::vector<double> channel_last_deliver_;   // app channels
  std::vector<double> control_last_deliver_;
  std::vector<std::vector<long>> inbox_;       // delivered, unconsumed (msg idx)

  // Collective rounds (sequence-matched like MPI).
  struct CollRound;
  std::vector<std::unique_ptr<CollRound>> rounds_;

  // Reliable-transport channel state, flattened (src·n + dst); allocated
  // only when opts_.delay.lossy().
  struct XportChan {
    long next_seq = 0;       ///< sender: next sequence number to assign
    long next_expected = 0;  ///< receiver: next in-order sequence number
    long acked_upto = 0;     ///< sender: highest cumulative ack seen
    struct Unacked {
      long msg_index = -1;
      int retries = 0;
      double rto = 0.0;  ///< current timeout (doubles per retry)
    };
    SeqRing<Unacked> unacked;     ///< sender window, keyed by seq
    SeqRing<long> reorder_buf;    ///< receiver: seq → msg index
  };
  std::vector<XportChan> xport_;

  /// The event core: pops events in their unique (time, seq) order.
  EventQueue queue_;
  util::Rng net_rng_{0x5eedULL};
};

/// Convenience: simulate `program` on `nprocs` processes with default
/// options (no failures, no protocol) and return the trace.
SimResult simulate(const mp::Program& program, int nprocs,
                   std::uint64_t seed = 1);

}  // namespace acfc::sim

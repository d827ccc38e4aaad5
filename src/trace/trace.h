// Execution traces: the event, message, and checkpoint records produced by
// the simulator, consumed by the recovery-line analyses in analysis.h.
//
// Vector clocks are kept only where the analyses read them: a checkpoint
// record holds its process's full clock, a message its sender's full clock
// and the receiver's own component at the receive. Event records carry no
// clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/vclock.h"

namespace acfc::trace {

enum class EventKind {
  kCompute,
  kSend,
  kRecv,
  kCheckpoint,   ///< checkpoint completion
  kCollective,   ///< barrier/bcast completion
  kControlSend,  ///< protocol control message sent
  kControlRecv,
  kFailure,
  kRestart,
  kFinish,       ///< process reached program exit
};

const char* event_kind_name(EventKind kind);

struct EventRec {
  EventKind kind = EventKind::kCompute;
  int proc = -1;
  double time = 0.0;
  /// Originating statement uid; -1 for protocol/system events.
  int stmt_uid = -1;
  /// Message id for send/recv events; -1 otherwise.
  long msg_id = -1;
  /// Peer process for send/recv; -1 otherwise.
  int peer = -1;
  int tag = 0;
  /// Checkpoint identity for kCheckpoint events.
  int ckpt_id = -1;
  long ckpt_instance = -1;
  bool forced = false;  ///< protocol-forced checkpoint
};

struct MsgRec {
  long id = -1;
  int src = -1;
  int dst = -1;
  int tag = 0;
  int bytes = 0;
  /// Per-(src,dst) channel sequence number, 1-based.
  long seq = 0;
  double send_time = 0.0;
  double deliver_time = 0.0;
  double recv_time = -1.0;  ///< -1 while unconsumed
  int send_stmt_uid = -1;
  int recv_stmt_uid = -1;
  VClock send_vc;
  /// The receiver's own clock component at the receive event (it orders
  /// the receive against the receiver's checkpoints); meaningful only when
  /// consumed.
  std::uint64_t recv_tick = 0;
  bool consumed = false;
  bool control = false;  ///< protocol control message (not an app message)
  /// Protocol piggyback value on app messages; payload on control ones.
  long piggyback = 0;
  /// True for messages re-injected from the sender log after a rollback.
  bool replayed = false;
  /// Reliable-transport sequence number on the (src, dst) channel; -1 on
  /// the reliable fast path (no shim involved).
  long xport_seq = -1;
};

struct CkptRec {
  int proc = -1;
  int ckpt_id = -1;      ///< static checkpoint identity (-1 for protocol ckpts)
  int static_index = -1; ///< the i of S_i, when known
  long instance = 0;     ///< dynamic occurrence ordinal within the process
  double t_begin = 0.0;
  double t_end = 0.0;    ///< process resumes (after the overhead o)
  /// Checkpoint durable on stable storage (after the latency l ≥ o);
  /// recovery may only use checkpoints committed by the failure time.
  double t_commit = 0.0;
  VClock vc;             ///< clock at completion
  bool forced = false;
  /// Index into the simulator's snapshot store; -1 if state not retained.
  int snapshot = -1;
};

struct Trace {
  int nprocs = 0;
  std::vector<EventRec> events;
  std::vector<MsgRec> messages;
  std::vector<CkptRec> checkpoints;
  double end_time = 0.0;
  bool completed = false;  ///< all processes reached kFinish
  /// Deterministic per-process execution digest for replay validation.
  std::vector<std::uint64_t> final_digest;

  /// Pre-sizes the event/message/checkpoint stores so steady-state appends
  /// amortize to plain stores (the simulator calls this once at start-up).
  void reserve(std::size_t events_cap, std::size_t messages_cap,
               std::size_t checkpoints_cap);

  /// Checkpoints of one process in completion order.
  std::vector<CkptRec> checkpoints_of(int proc) const;
  /// App messages only.
  std::vector<MsgRec> app_messages() const;
  std::string summary() const;
};

}  // namespace acfc::trace

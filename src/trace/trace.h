// Execution traces: the event, message, checkpoint, collective and
// restore records produced by the simulator, consumed by the recovery-line
// analyses in analysis.h.
//
// Each process keeps one local tick, not a vector clock: the count of its
// clocked events (send, receive, checkpoint, collective join, all-merge
// release) along its live history. A restore sets the tick back to the
// restored checkpoint's and starts a new incarnation of the process. A
// record keeps the tick and incarnation of its process at the record;
// causality between processes is read off the message and collective
// records (analysis.h). Event records carry no tick.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace acfc::trace {

/// A process's local tick (see the file comment).
using Tick = std::uint64_t;
/// No tick: a collective member that is no source or no sink of a round.
inline constexpr Tick kNoTick = std::numeric_limits<Tick>::max();

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
  /// The sender's tick and incarnation at the send (zero on control
  /// messages; a replayed message keeps its original send's).
  Tick send_tick = 0;
  int send_incarnation = 0;
  /// The receiver's tick and incarnation at the receive; meaningful only
  /// when consumed.
  int recv_incarnation = 0;
  Tick recv_tick = 0;
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
  Tick tick = 0;         ///< the process's tick at the take
  int incarnation = 0;   ///< the process's incarnation at the take
  bool forced = false;
  /// Index into the simulator's snapshot store; -1 if state not retained.
  int snapshot = -1;
};

/// One member's part in a released native collective round.
struct CollMember {
  /// The member's tick and incarnation at its join; kNoTick when its join
  /// is no source of this release.
  Tick join = kNoTick;
  int join_incarnation = 0;
  int release_incarnation = 0;
  /// The first tick of the member that sees the round: one past its tick
  /// at the merge point. kNoTick when the round releases no state into it.
  Tick release = kNoTick;
};

/// One release of a native collective round, as causal edges from every
/// source's join to every sink's release: barrier and allreduce from every
/// member to every live member, reduce from the contributors to the root,
/// bcast from the root to each receiver. A round re-released after a
/// rollback gets a new record.
struct CollRec {
  /// kNone marks only the simulator's rounds that no member has joined.
  enum class Kind { kNone, kBarrier, kBcast, kReduce, kAllreduce };
  Kind kind = Kind::kNone;
  int root = -1;
  /// Offset of the round's nprocs members in Trace::coll_members.
  std::size_t members = 0;
};

/// A process restored by a rollback: it starts incarnation `incarnation`
/// from `checkpoint` (-1: the initial state) at that checkpoint's tick.
struct RestoreRec {
  int proc = -1;
  int incarnation = 0;
  int checkpoint = -1;
  Tick tick = 0;
};

struct Trace {
  int nprocs = 0;
  std::vector<EventRec> events;
  std::vector<MsgRec> messages;
  std::vector<CkptRec> checkpoints;
  std::vector<CollRec> collectives;
  std::vector<CollMember> coll_members;
  std::vector<RestoreRec> restores;
  double end_time = 0.0;
  bool completed = false;  ///< all processes reached kFinish
  /// Deterministic per-process execution digest for replay validation.
  std::vector<std::uint64_t> final_digest;

  /// Pre-sizes the event/message/checkpoint stores so steady-state appends
  /// amortize to plain stores (the simulator calls this once at start-up).
  void reserve(std::size_t events_cap, std::size_t messages_cap,
               std::size_t checkpoints_cap);

  /// The nprocs members of a collective record.
  const CollMember* members_of(const CollRec& round) const {
    return coll_members.data() + round.members;
  }

  /// Checkpoints of one process in completion order.
  std::vector<CkptRec> checkpoints_of(int proc) const;
  /// App messages only.
  std::vector<MsgRec> app_messages() const;
  std::string summary() const;
};

}  // namespace acfc::trace

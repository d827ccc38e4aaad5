// One byte dump of a whole simulation result, for tests that hold two
// runs to byte identity: every trace event, message, checkpoint,
// collective and restore field,
// every SimStats counter, every RecoveryRec and the final channel
// counters, doubles as exact bit patterns.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "sim/engine.h"

namespace acfc::sim {

/// Every field of `r`, doubles by bit pattern.
inline std::string run_bytes(const SimResult& r) {
  std::ostringstream out;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const trace::Trace& t = r.trace;
  out << "trace " << t.nprocs << ' ' << t.completed << ' ' << bits(t.end_time)
      << '\n';
  for (const std::uint64_t d : t.final_digest) out << "digest " << d << '\n';
  for (const trace::EventRec& e : t.events)
    out << "ev " << static_cast<int>(e.kind) << ' ' << e.proc << ' '
        << bits(e.time) << ' ' << e.stmt_uid << ' ' << e.msg_id << ' '
        << e.peer << ' ' << e.tag << ' ' << e.ckpt_id << ' '
        << e.ckpt_instance << ' ' << e.forced << '\n';
  for (const trace::MsgRec& m : t.messages)
    out << "msg " << m.id << ' ' << m.src << ' ' << m.dst << ' ' << m.tag
        << ' ' << m.bytes << ' ' << m.seq << ' ' << bits(m.send_time) << ' '
        << bits(m.deliver_time) << ' ' << bits(m.recv_time) << ' '
        << m.send_stmt_uid << ' ' << m.recv_stmt_uid << ' '
        << m.send_tick << ' ' << m.send_incarnation << ' ' << m.recv_tick
        << ' ' << m.recv_incarnation << ' '
        << m.consumed << ' ' << m.control << ' ' << m.piggyback << ' '
        << m.replayed << ' ' << m.xport_seq << '\n';
  for (const trace::CkptRec& c : t.checkpoints)
    out << "ckpt " << c.proc << ' ' << c.ckpt_id << ' ' << c.static_index
        << ' ' << c.instance << ' ' << bits(c.t_begin) << ' ' << bits(c.t_end)
        << ' ' << bits(c.t_commit) << ' ' << c.tick << ' ' << c.incarnation
        << ' ' << c.forced << ' ' << c.snapshot << '\n';
  for (const trace::CollRec& round : t.collectives) {
    out << "coll " << static_cast<int>(round.kind) << ' ' << round.root;
    const trace::CollMember* members = t.members_of(round);
    for (int q = 0; q < t.nprocs; ++q)
      out << ' ' << members[q].join << ' ' << members[q].join_incarnation
          << ' ' << members[q].release << ' '
          << members[q].release_incarnation;
    out << '\n';
  }
  for (const trace::RestoreRec& rs : t.restores)
    out << "restore " << rs.proc << ' ' << rs.incarnation << ' '
        << rs.checkpoint << ' ' << rs.tick << '\n';
  const SimStats& s = r.stats;
  out << "stats " << s.app_messages << ' ' << s.app_bytes << ' '
      << s.control_messages << ' ' << s.control_bytes << ' '
      << s.statement_checkpoints << ' ' << s.forced_checkpoints << ' '
      << s.events_processed << ' ' << s.restarts << ' ' << bits(s.paused_time)
      << ' ' << s.channel_logged_messages << ' ' << s.transport_sends << ' '
      << s.transport_retransmits << ' ' << s.transport_dropped << ' '
      << s.transport_dup_arrivals << ' ' << s.transport_acks << ' '
      << s.transport_give_ups << ' ' << s.transport_rto_backoffs << ' '
      << s.transport_reorder_high_water << ' ' << s.suspicions << ' '
      << s.false_suspicions << ' ' << s.supervised_restarts << ' '
      << s.quarantines << ' ' << s.crash_dropped_events << ' '
      << s.partition_deferred_sends << ' ' << s.partition_dropped_attempts
      << ' ' << s.stall_deferred_events << '\n';
  for (const RecoveryRec& rec : r.recoveries) {
    out << "rec " << rec.failed_proc << ' ' << bits(rec.fail_time) << ' '
        << bits(rec.resume_time) << ' ' << bits(rec.lost_work) << ' '
        << rec.replayed_messages << ' ' << rec.fallback_depth << ' '
        << rec.corrupt_records_skipped << ' ' << rec.degraded << ' '
        << bits(rec.detection_latency) << ' ' << bits(rec.downtime) << ' '
        << rec.false_suspicion << " cut";
    for (const int m : rec.cut.member) out << ' ' << m;
    out << " rollbacks";
    for (const int b : rec.rollbacks) out << ' ' << b;
    out << '\n';
  }
  out << "sends";
  for (const long v : r.final_sends) out << ' ' << v;
  out << "\nrecvs";
  for (const long v : r.final_recvs) out << ' ' << v;
  out << "\ncorrupt";
  for (const int c : r.corrupt_checkpoints) out << ' ' << c;
  out << '\n';
  return out.str();
}

}  // namespace acfc::sim

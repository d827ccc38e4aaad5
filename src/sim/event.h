// The scheduler's unit of work: one timestamped event, totally ordered by
// (time, seq). `seq` is the engine's global push counter, so among
// simultaneous events FIFO push order wins — the tie-break the scheduler
// must preserve for bit-identical replays.
#pragma once

namespace acfc::sim {

enum class EvKind {
  kWake,
  kDeliver,
  kTimer,
  kFailure,
  kNetArrive,  ///< lossy path: a transmission attempt reaches the receiver
  kAck,        ///< lossy path: a cumulative ack reaches the data sender
  kRto,        ///< lossy path: retransmission timer fires at the sender
};

struct Ev {
  double time = 0.0;
  long seq = 0;  ///< tie-break: FIFO among simultaneous events
  EvKind kind = EvKind::kWake;
  int proc = -1;
  long a = -1;    ///< msg index / timer id / channel
  long b = -1;    ///< transport: ack upto / RTO sequence number
  int epoch = 0;  ///< wake/deliver events from pre-rollback epochs drop
};

/// Heap comparator (max-heap inverted): a std heap over it pops the event
/// with the smallest (time, seq). (time, seq) is a UNIQUE total order —
/// seq never repeats — so any correct priority queue pops the exact same
/// sequence; tests/test_scheduler.cpp holds the calendar queue to the
/// std::priority_queue order under this comparator.
struct EvCmp {
  bool operator()(const Ev& x, const Ev& y) const {
    if (x.time != y.time) return x.time > y.time;
    return x.seq > y.seq;
  }
};

/// (x pops before y)?  — the strict-weak order EvCmp inverts.
inline bool ev_before(const Ev& x, const Ev& y) {
  if (x.time != y.time) return x.time < y.time;
  return x.seq < y.seq;
}

}  // namespace acfc::sim

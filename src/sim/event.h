// The scheduler's unit of work: one timestamped event, totally ordered by
// (time, seq). `seq` is the engine's global push counter, so among
// simultaneous events FIFO push order wins — the tie-break the scheduler
// must preserve for bit-identical replays.
#pragma once

#include <cstddef>
#include <vector>

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
/// sequence; tests/test_scheduler.cpp holds EventQueue to the
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

/// The engine's event core: an implicit 4-ary min-heap under ev_before in
/// one vector. The engine's queues stay small (a few hundred events), so
/// the shallow tree and the four adjacent children a sift-down compares
/// beat a binary heap's extra levels. push and pop move a hole instead of
/// swapping, one Ev copy per level. pop() walks the hole down to a leaf
/// along the least children and only then sifts the last event up: that
/// event was pushed late, so it rarely climbs, and the walk down skips a
/// compare per level.
///
/// Determinism: pop() always extracts the (time, seq)-minimum, a unique
/// total order, so the pop sequence is exactly std::priority_queue<Ev,
/// EvCmp>'s whatever the array layout.
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Most events ever resident at once.
  long size_high_water() const { return high_water_; }

  /// Takes `ev` by value: growing the vector must not invalidate it.
  void push(Ev ev) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, ev);
    if (static_cast<long>(heap_.size()) > high_water_)
      high_water_ = static_cast<long>(heap_.size());
  }

  /// The (time, seq)-minimum, left in place. Precondition: !empty(). The
  /// reference is valid until the next push() or pop().
  const Ev& top() const { return heap_.front(); }

  /// Extracts the (time, seq)-minimum. Precondition: !empty().
  Ev pop() {
    const Ev min = heap_.front();
    const Ev last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return min;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t least = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (ev_before(heap_[c], heap_[least])) least = c;
      heap_[hole] = heap_[least];
      hole = least;
    }
    sift_up(hole, last);
    return min;
  }

  /// Visits every queued event in unspecified (array) order. Consumers
  /// needing a layout-independent result must combine per-event values
  /// commutatively — see Engine::schedule_state_hash.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Ev& ev : heap_) fn(ev);
  }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t hole, const Ev& ev) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!ev_before(ev, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = ev;
  }

  std::vector<Ev> heap_;
  long high_water_ = 0;
};

}  // namespace acfc::sim

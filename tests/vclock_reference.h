// The vector-clock reference for the tick-based cut analyses.
//
// The simulator keeps one local tick per process and decides cut
// consistency from the trace's message and collective records
// (trace/analysis.h). This header keeps the clock-based analyses they
// replaced, fed by full vector clocks that a Fidge–Mattern replay rebuilds
// offline from the trace:
//
//  1. per-process tick order and message pairs: a receive merges the
//     clock of its send;
//  2. the collective records: a release merges the clock of every
//     source's join;
//  3. the restores: incarnation k of a process starts from the clock of
//     the checkpoint it was restored to.
//
// The replay also checks that a merge never moves a process's own
// component: the own component of every rebuilt clock is the record's
// local tick. tests/test_tick_differential.cpp runs the old and the new
// analyses side by side over the corpora.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/analysis.h"
#include "trace/trace.h"

namespace acfc::trace::reference {

/// A plain vector clock: e happened before f iff VC(e) < VC(f)
/// componentwise.
class VClock {
 public:
  VClock() = default;
  explicit VClock(int nprocs) : c_(static_cast<size_t>(nprocs), 0) {}

  int size() const { return static_cast<int>(c_.size()); }
  std::uint64_t operator[](int i) const { return c_.at(static_cast<size_t>(i)); }
  std::uint64_t& operator[](int i) { return c_.at(static_cast<size_t>(i)); }

  void merge(const VClock& other) {
    for (size_t i = 0; i < c_.size(); ++i)
      c_[i] = std::max(c_[i], other.c_.at(i));
  }

  bool happened_before(const VClock& other) const {
    bool strictly_less = false;
    for (size_t i = 0; i < c_.size(); ++i) {
      if (c_[i] > other.c_.at(i)) return false;
      if (c_[i] < other.c_[i]) strictly_less = true;
    }
    return strictly_less;
  }

  bool concurrent_with(const VClock& other) const {
    return !happened_before(other) && !other.happened_before(*this) &&
           c_ != other.c_;
  }

  bool operator==(const VClock&) const = default;

 private:
  std::vector<std::uint64_t> c_;
};

/// Full clocks rebuilt from a trace.
struct Clocks {
  std::vector<VClock> checkpoint;  ///< per trace.checkpoints entry
  std::vector<VClock> send;        ///< per trace.messages entry (app only)
  /// Merges that moved a process's own component, and replay faults.
  std::vector<std::string> errors;
};

namespace detail {

/// Fidge–Mattern over (process, incarnation) lineages. Only receives and
/// collective releases merge; every other record's clock is its lineage's
/// clock at the record's tick.
class Replay {
 public:
  explicit Replay(const Trace& trace) : trace_(trace) {
    for (size_t i = 0; i < trace.restores.size(); ++i) {
      const RestoreRec& r = trace.restores[i];
      restore_[{r.proc, r.incarnation}] = i;
    }
    for (size_t i = 0; i < trace.messages.size(); ++i) {
      const MsgRec& m = trace.messages[i];
      if (m.control || !m.consumed) continue;
      stream(m.dst, m.recv_incarnation)
          .points.push_back({m.recv_tick, static_cast<long>(i)});
    }
    for (size_t r = 0; r < trace.collectives.size(); ++r) {
      const CollMember* members = trace.members_of(trace.collectives[r]);
      for (int q = 0; q < trace.nprocs; ++q)
        if (members[q].release != kNoTick)
          stream(q, members[q].release_incarnation)
              .points.push_back({members[q].release, ~static_cast<long>(r)});
    }
    // A release merges at tick - 1, before a receive at its tick.
    for (auto& [key, s] : streams_)
      std::sort(s.points.begin(), s.points.end(),
                [](const Point& a, const Point& b) {
                  return a.tick != b.tick ? a.tick < b.tick : a.ref < b.ref;
                });
  }

  /// The clock of `proc`'s incarnation `incarnation` at `tick`: every
  /// merge at or before the tick applied, own component = tick.
  VClock clock_at(int proc, int incarnation, Tick tick) {
    Stream& s = stream(proc, incarnation);
    if (!s.based) base(proc, incarnation, s);
    while (s.done < s.points.size() && s.points[s.done].tick <= tick) {
      if (s.busy) throw std::logic_error("causal cycle in the trace");
      s.busy = true;
      apply(proc, incarnation, s);
      s.busy = false;
    }
    VClock c = s.base_clock;
    for (size_t k = s.done; k-- > 0;)
      if (s.points[k].tick <= tick) {
        c = s.points[k].after;
        break;
      }
    if (c[proc] > tick) fail(proc, incarnation, tick, "tick runs backwards");
    c[proc] = tick;
    return c;
  }

  std::vector<std::string> errors;

 private:
  struct Point {
    Tick tick;
    long ref;  ///< receive: message index; release: ~round index
    VClock after = {};
  };
  struct Stream {
    std::vector<Point> points;
    size_t done = 0;
    bool based = false;
    bool busy = false;
    VClock base_clock;
  };

  Stream& stream(int proc, int incarnation) {
    return streams_[{proc, incarnation}];
  }

  void fail(int proc, int incarnation, Tick tick, const char* what) {
    std::ostringstream os;
    os << "process " << proc << " incarnation " << incarnation << " tick "
       << tick << ": " << what;
    errors.push_back(os.str());
  }

  void base(int proc, int incarnation, Stream& s) {
    s.based = true;
    s.base_clock = VClock(trace_.nprocs);
    if (incarnation == 0) return;
    const auto it = restore_.find({proc, incarnation});
    if (it == restore_.end()) {
      fail(proc, incarnation, 0, "no restore record");
      return;
    }
    const RestoreRec& r = trace_.restores[it->second];
    if (r.checkpoint < 0) {
      if (r.tick != 0) fail(proc, incarnation, r.tick, "reset to a tick");
      return;
    }
    const CkptRec& c = trace_.checkpoints.at(static_cast<size_t>(r.checkpoint));
    if (c.proc != proc || c.tick != r.tick)
      fail(proc, incarnation, r.tick, "restore tick is not its checkpoint's");
    s.base_clock = clock_at(proc, c.incarnation, c.tick);
  }

  void apply(int proc, int incarnation, Stream& s) {
    Point& pt = s.points[s.done];
    VClock c = s.done == 0 ? s.base_clock : s.points[s.done - 1].after;
    if (pt.ref >= 0) {
      // A receive ticks, then merges its send's clock.
      const MsgRec& m = trace_.messages[static_cast<size_t>(pt.ref)];
      c[proc] = pt.tick;
      c.merge(clock_at(m.src, m.send_incarnation, m.send_tick));
      if (c[proc] != pt.tick)
        fail(proc, incarnation, pt.tick, "a receive moved the own component");
    } else {
      // A release merges every source's join clock; the first record that
      // sees it is at pt.tick.
      const auto r = static_cast<size_t>(~pt.ref);
      const CollMember* members = trace_.members_of(trace_.collectives[r]);
      for (int q = 0; q < trace_.nprocs; ++q)
        if (members[q].join != kNoTick)
          c.merge(clock_at(q, members[q].join_incarnation, members[q].join));
      // The merge point is at tick pt.tick - 1: no join may have seen more
      // of this process than that.
      if (c[proc] >= pt.tick)
        fail(proc, incarnation, pt.tick, "a release moved the own component");
    }
    pt.after = std::move(c);
    ++s.done;
  }

  const Trace& trace_;
  std::map<std::pair<int, int>, Stream> streams_;
  std::map<std::pair<int, int>, size_t> restore_;
};

}  // namespace detail

/// Rebuilds every checkpoint's and every app send's full clock. Events
/// drive the replay in execution order, which keeps the recursion of the
/// lazy lineages shallow.
inline Clocks replay_clocks(const Trace& trace) {
  detail::Replay replay(trace);
  Clocks out;
  out.checkpoint.resize(trace.checkpoints.size());
  out.send.resize(trace.messages.size());
  size_t next_ckpt = 0;
  for (const EventRec& e : trace.events) {
    if (e.kind == EventKind::kCheckpoint) {
      const CkptRec& c = trace.checkpoints.at(next_ckpt);
      out.checkpoint[next_ckpt++] =
          replay.clock_at(c.proc, c.incarnation, c.tick);
    } else if (e.kind == EventKind::kSend || e.kind == EventKind::kRecv) {
      const MsgRec& m = trace.messages.at(static_cast<size_t>(e.msg_id));
      if (e.kind == EventKind::kSend)
        out.send[static_cast<size_t>(m.id)] =
            replay.clock_at(m.src, m.send_incarnation, m.send_tick);
      else
        replay.clock_at(m.dst, m.recv_incarnation, m.recv_tick);
    }
  }
  if (next_ckpt != trace.checkpoints.size())
    replay.errors.push_back("checkpoint events and records disagree");
  for (size_t i = 0; i < trace.messages.size(); ++i) {
    const MsgRec& m = trace.messages[i];
    if (!m.control && m.replayed)
      out.send[i] = replay.clock_at(m.src, m.send_incarnation, m.send_tick);
  }
  out.errors = std::move(replay.errors);
  return out;
}

// ---------------------------------------------------------------------------
// The clock-based analyses, as the engine ran them before local ticks.

inline VClock member_vc(const Trace& trace, const Clocks& clocks,
                        int member) {
  if (member < 0) return VClock(trace.nprocs);
  return clocks.checkpoint.at(static_cast<size_t>(member));
}

/// Consistent iff for every ordered pair (p, q), VC(C_q)[p] ≤ VC(C_p)[p].
inline bool cut_consistent(const Trace& trace, const Clocks& clocks,
                           const Cut& cut) {
  std::vector<VClock> vcs;
  for (int p = 0; p < trace.nprocs; ++p)
    vcs.push_back(
        member_vc(trace, clocks, cut.member[static_cast<size_t>(p)]));
  for (int p = 0; p < trace.nprocs; ++p)
    for (int q = 0; q < trace.nprocs; ++q)
      if (p != q &&
          vcs[static_cast<size_t>(q)][p] > vcs[static_cast<size_t>(p)][p])
        return false;
  return true;
}

/// The maximal recovery line by greedy demotion: while some q has seen
/// more of some p than p checkpointed, demote q.
inline Cut max_recovery_line(const Trace& trace, const Clocks& clocks,
                             double at_time,
                             const CkptUsableFn& usable = nullptr) {
  std::vector<std::vector<int>> candidates(
      static_cast<size_t>(trace.nprocs));
  for (size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const auto& c = trace.checkpoints[i];
    if (std::max(c.t_end, c.t_commit) > at_time) continue;
    if (usable && !usable(static_cast<int>(i))) continue;
    candidates[static_cast<size_t>(c.proc)].push_back(static_cast<int>(i));
  }
  std::vector<int> cursor(static_cast<size_t>(trace.nprocs));
  for (int p = 0; p < trace.nprocs; ++p)
    cursor[static_cast<size_t>(p)] =
        static_cast<int>(candidates[static_cast<size_t>(p)].size()) - 1;
  const auto member_of = [&](int p) {
    const int c = cursor[static_cast<size_t>(p)];
    return c < 0 ? -1
                 : candidates[static_cast<size_t>(p)][static_cast<size_t>(c)];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int p = 0; p < trace.nprocs && !changed; ++p) {
      const VClock vp = member_vc(trace, clocks, member_of(p));
      for (int q = 0; q < trace.nprocs && !changed; ++q) {
        if (p == q) continue;
        const VClock vq = member_vc(trace, clocks, member_of(q));
        if (vq[p] > vp[p]) {
          if (cursor[static_cast<size_t>(q)] < 0)
            throw std::logic_error("initial state is an orphan receiver");
          --cursor[static_cast<size_t>(q)];
          changed = true;
        }
      }
    }
  }
  Cut cut;
  for (int p = 0; p < trace.nprocs; ++p) cut.member.push_back(member_of(p));
  return cut;
}

}  // namespace acfc::trace::reference

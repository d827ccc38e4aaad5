#include "trace/analysis.h"

#include <algorithm>

#include "util/error.h"

namespace acfc::trace {

namespace {

/// Where a cut member sits in its process's history (-1 → the initial
/// state: tick 0 of incarnation 0, whose history is empty).
struct Point {
  Tick tick = 0;
  int incarnation = 0;
};

Point member_point(const Trace& trace, int member) {
  if (member < 0) return {};
  const CkptRec& c = trace.checkpoints.at(static_cast<size_t>(member));
  return {c.tick, c.incarnation};
}

/// Completion time of a cut member (-1 → 0).
double member_time(const Trace& trace, int member) {
  if (member < 0) return 0.0;
  return trace.checkpoints.at(static_cast<size_t>(member)).t_end;
}

/// The restore ticks of every process, by incarnation: what decides
/// whether a record is in a member's history.
class Histories {
 public:
  explicit Histories(const Trace& trace)
      : restored_(static_cast<size_t>(trace.nprocs)) {
    for (const RestoreRec& r : trace.restores)
      restored_[static_cast<size_t>(r.proc)].push_back(r.tick);
  }

  /// Incarnations of `proc` in the trace (restores + 1).
  size_t incarnations(int proc) const {
    return restored_[static_cast<size_t>(proc)].size() + 1;
  }

  /// True iff the record of `proc` at (`incarnation`, `tick`) is in the
  /// history of `at`: no later in tick, and no restore between the two
  /// went below the record's tick.
  bool contains(int proc, Point at, int incarnation, Tick tick) const {
    if (incarnation > at.incarnation || tick > at.tick) return false;
    const auto& restored = restored_[static_cast<size_t>(proc)];
    for (int k = incarnation; k < at.incarnation; ++k)
      if (restored[static_cast<size_t>(k)] < tick) return false;
    return true;
  }

 private:
  std::vector<std::vector<Tick>> restored_;
};

}  // namespace

CutAnalysis analyze_cut(const Trace& trace, const Cut& cut) {
  ACFC_CHECK_MSG(static_cast<int>(cut.member.size()) == trace.nprocs,
                 "cut must have one member per process");
  const Histories histories(trace);
  std::vector<Point> at(static_cast<size_t>(trace.nprocs));
  for (int p = 0; p < trace.nprocs; ++p)
    at[static_cast<size_t>(p)] =
        member_point(trace, cut.member[static_cast<size_t>(p)]);

  CutAnalysis out;
  // Classify app messages relative to the cut. Send/checkpoint and
  // recv/checkpoint comparisons are within a single process, where ticks
  // order events exactly (times can tie when actions are instantaneous).
  for (const auto& m : trace.messages) {
    if (m.control || m.src < 0 || m.dst < 0) continue;
    const bool sent_pre_cut =
        m.send_tick <= at[static_cast<size_t>(m.src)].tick;
    const bool received_pre_cut =
        m.consumed && histories.contains(m.dst, at[static_cast<size_t>(m.dst)],
                                         m.recv_incarnation, m.recv_tick);
    if (!sent_pre_cut && received_pre_cut) out.orphan_msgs.push_back(m.id);
    if (sent_pre_cut && !received_pre_cut) out.in_transit_msgs.push_back(m.id);
  }

  // A round is an orphan when some source joined past its member and the
  // round released into another member's history. O(nprocs) per round.
  for (size_t r = 0; r < trace.collectives.size(); ++r) {
    const CollMember* members = trace.members_of(trace.collectives[r]);
    int past = 0;
    int first_past = -1;
    for (int s = 0; s < trace.nprocs; ++s) {
      const Tick join = members[s].join;
      if (join == kNoTick || join <= at[static_cast<size_t>(s)].tick)
        continue;
      if (past++ == 0) first_past = s;
    }
    if (past == 0) continue;
    for (int q = 0; q < trace.nprocs; ++q) {
      const CollMember& sink = members[q];
      if (sink.release == kNoTick || (past == 1 && q == first_past))
        continue;
      if (histories.contains(q, at[static_cast<size_t>(q)],
                             sink.release_incarnation, sink.release)) {
        out.orphan_rounds.push_back(static_cast<long>(r));
        break;
      }
    }
  }
  out.consistent = out.orphan_msgs.empty() && out.orphan_rounds.empty();
  return out;
}

std::optional<Cut> straight_cut(const Trace& trace, int static_index,
                                long instance) {
  Cut cut;
  cut.member.assign(static_cast<size_t>(trace.nprocs), -1);
  std::vector<long> seen(static_cast<size_t>(trace.nprocs), 0);
  for (size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const auto& c = trace.checkpoints[i];
    if (c.static_index != static_index) continue;
    if (seen[static_cast<size_t>(c.proc)]++ == instance)
      cut.member[static_cast<size_t>(c.proc)] = static_cast<int>(i);
  }
  for (const int m : cut.member)
    if (m < 0) return std::nullopt;
  return cut;
}

std::vector<Cut> all_straight_cuts(const Trace& trace) {
  // Determine max static index and, per (index, proc), instance counts.
  int max_index = 0;
  for (const auto& c : trace.checkpoints)
    max_index = std::max(max_index, c.static_index);
  std::vector<Cut> out;
  for (int i = 1; i <= max_index; ++i) {
    for (long k = 0;; ++k) {
      auto cut = straight_cut(trace, i, k);
      if (!cut) break;
      out.push_back(std::move(*cut));
    }
  }
  return out;
}

std::optional<Cut> latest_straight_cut_at(const Trace& trace,
                                          int static_index, double t) {
  Cut cut;
  cut.member.assign(static_cast<size_t>(trace.nprocs), -1);
  for (size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const auto& c = trace.checkpoints[i];
    if (c.static_index != static_index || c.t_end > t) continue;
    const int cur = cut.member[static_cast<size_t>(c.proc)];
    if (cur < 0 || trace.checkpoints[static_cast<size_t>(cur)].instance <
                       c.instance)
      cut.member[static_cast<size_t>(c.proc)] = static_cast<int>(i);
  }
  for (const int m : cut.member)
    if (m < 0) return std::nullopt;
  return cut;
}

RecoveryLine max_recovery_line(const Trace& trace, double at_time,
                               const CkptUsableFn& usable) {
  // Per-process stack of candidate checkpoints — only ones durable on
  // stable storage (committed) by the failure time AND verifiable (when a
  // usability predicate is supplied) are restorable. Unusable committed
  // checkpoints are counted per process so degraded recovery can report
  // what it had to step over.
  std::vector<std::vector<int>> candidates(
      static_cast<size_t>(trace.nprocs));
  std::vector<std::vector<int>> unusable_at(
      static_cast<size_t>(trace.nprocs));
  for (size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const auto& c = trace.checkpoints[i];
    const double durable_at = std::max(c.t_end, c.t_commit);
    if (durable_at > at_time) continue;
    if (usable && !usable(static_cast<int>(i))) {
      unusable_at[static_cast<size_t>(c.proc)].push_back(
          static_cast<int>(i));
      continue;
    }
    candidates[static_cast<size_t>(c.proc)].push_back(static_cast<int>(i));
  }
  // cursor[p] = index into candidates[p] of the current member; -1 = initial.
  std::vector<int> cursor(static_cast<size_t>(trace.nprocs));
  for (int p = 0; p < trace.nprocs; ++p)
    cursor[static_cast<size_t>(p)] =
        static_cast<int>(candidates[static_cast<size_t>(p)].size()) - 1;

  auto member_of = [&](int p) {
    const int c = cursor[static_cast<size_t>(p)];
    return c < 0 ? -1 : candidates[static_cast<size_t>(p)][static_cast<size_t>(c)];
  };
  const Histories histories(trace);

  // Every edge leaves its source at a tick: a message at its send, a
  // collective round at each source's join. Per source process, latest
  // first, so a member's drop activates a prefix, each edge once.
  struct Edge {
    Tick tick;
    long ref;  ///< message index, or ~round index
  };
  const auto n = static_cast<size_t>(trace.nprocs);
  std::vector<std::vector<Edge>> edges(n);
  for (size_t i = 0; i < trace.messages.size(); ++i) {
    const MsgRec& m = trace.messages[i];
    if (m.control || !m.consumed) continue;
    edges[static_cast<size_t>(m.src)].push_back(
        {m.send_tick, static_cast<long>(i)});
  }
  for (size_t r = 0; r < trace.collectives.size(); ++r) {
    const CollMember* members = trace.members_of(trace.collectives[r]);
    for (size_t s = 0; s < n; ++s)
      if (members[s].join != kNoTick)
        edges[s].push_back({members[s].join, ~static_cast<long>(r)});
  }
  for (auto& e : edges)
    std::sort(e.begin(), e.end(),
              [](const Edge& a, const Edge& b) { return a.tick > b.tick; });
  std::vector<size_t> active(n, 0);  ///< edges[p][0, active[p]) are active

  // Per sink process and incarnation, the smallest tick an active edge
  // arrives at: the sink's member must not have it in its history.
  std::vector<std::vector<Tick>> bound(n);
  for (size_t q = 0; q < n; ++q)
    bound[q].assign(histories.incarnations(static_cast<int>(q)), kNoTick);
  const auto orphaned = [&](int q) {
    const Point at = member_point(trace, member_of(q));
    const auto& mine = bound[static_cast<size_t>(q)];
    for (size_t i = 0; i < mine.size(); ++i)
      if (histories.contains(q, at, static_cast<int>(i), mine[i]))
        return true;
    return false;
  };

  // Rounds activate per source: one past source bounds every other sink;
  // a second one bounds the first's sink too.
  std::vector<int> past(trace.collectives.size(), 0);
  std::vector<int> first_past(trace.collectives.size(), -1);
  std::vector<int> work(n);
  std::vector<char> queued(n, 1);
  for (size_t p = 0; p < n; ++p) work[p] = static_cast<int>(p);
  const auto arrive = [&](int q, int incarnation, Tick tick) {
    Tick& b = bound[static_cast<size_t>(q)][static_cast<size_t>(incarnation)];
    if (tick >= b) return;
    b = tick;
    if (!queued[static_cast<size_t>(q)]) {
      queued[static_cast<size_t>(q)] = 1;
      work.push_back(q);
    }
  };
  while (!work.empty()) {
    const int p = work.back();
    work.pop_back();
    queued[static_cast<size_t>(p)] = 0;
    while (orphaned(p)) {
      ACFC_CHECK_MSG(cursor[static_cast<size_t>(p)] >= 0,
                     "initial state cannot be an orphan receiver");
      --cursor[static_cast<size_t>(p)];
    }
    const Tick t = member_point(trace, member_of(p)).tick;
    const auto& out_edges = edges[static_cast<size_t>(p)];
    size_t& next = active[static_cast<size_t>(p)];
    for (; next < out_edges.size() && out_edges[next].tick > t; ++next) {
      const long ref = out_edges[next].ref;
      if (ref >= 0) {
        const MsgRec& m = trace.messages[static_cast<size_t>(ref)];
        arrive(m.dst, m.recv_incarnation, m.recv_tick);
        continue;
      }
      const auto r = static_cast<size_t>(~ref);
      const CollMember* members = trace.members_of(trace.collectives[r]);
      const auto reach = [&](int q) {
        if (members[q].release != kNoTick)
          arrive(q, members[q].release_incarnation, members[q].release);
      };
      if (past[r]++ == 0) {
        first_past[r] = p;
        for (int q = 0; q < trace.nprocs; ++q)
          if (q != p) reach(q);
      } else if (past[r] == 2) {
        reach(first_past[r]);
      }
    }
  }

  RecoveryLine out;
  out.cut.member.resize(static_cast<size_t>(trace.nprocs));
  out.rollbacks.resize(static_cast<size_t>(trace.nprocs));
  out.skipped_unusable.assign(static_cast<size_t>(trace.nprocs), 0);
  for (int p = 0; p < trace.nprocs; ++p) {
    const int member = member_of(p);
    out.cut.member[static_cast<size_t>(p)] = member;
    out.rollbacks[static_cast<size_t>(p)] =
        static_cast<int>(candidates[static_cast<size_t>(p)].size()) - 1 -
        cursor[static_cast<size_t>(p)];
    // Unusable checkpoints above the chosen member: what a degraded
    // restore stepped over. Same-process trace indices are in completion
    // order, so a plain index comparison orders them.
    for (const int u : unusable_at[static_cast<size_t>(p)])
      if (u > member) ++out.skipped_unusable[static_cast<size_t>(p)];
    out.lost_work += at_time - member_time(trace, member);
  }
  out.consistent = analyze_cut(trace, out.cut).consistent;
  return out;
}

RGraph build_rgraph(const Trace& trace) {
  RGraph g;
  g.nprocs = trace.nprocs;
  // Per-process checkpoint boundaries identified by the process's tick
  // (exact local event ordering).
  std::vector<std::vector<std::uint64_t>> boundaries(
      static_cast<size_t>(trace.nprocs));
  for (const auto& c : trace.checkpoints)
    boundaries[static_cast<size_t>(c.proc)].push_back(c.tick);
  for (auto& b : boundaries) std::sort(b.begin(), b.end());
  g.intervals_per_proc.resize(static_cast<size_t>(trace.nprocs));
  for (int p = 0; p < trace.nprocs; ++p)
    g.intervals_per_proc[static_cast<size_t>(p)] =
        static_cast<int>(boundaries[static_cast<size_t>(p)].size()) + 1;

  // The interval of an event = number of checkpoints that locally precede
  // it (checkpoint ticks are < the event's tick).
  auto interval_at = [&](int proc, Tick tick) {
    const auto& b = boundaries[static_cast<size_t>(proc)];
    return static_cast<int>(
        std::lower_bound(b.begin(), b.end(), tick) - b.begin());
  };

  for (const auto& m : trace.messages) {
    if (m.control || !m.consumed) continue;
    g.edges.push_back({m.src, interval_at(m.src, m.send_tick), m.dst,
                       interval_at(m.dst, m.recv_tick)});
  }
  return g;
}

std::vector<int> useless_checkpoints(const Trace& trace) {
  const RGraph g = build_rgraph(trace);
  // Flatten interval ids.
  std::vector<int> base(static_cast<size_t>(g.nprocs) + 1, 0);
  for (int p = 0; p < g.nprocs; ++p)
    base[static_cast<size_t>(p) + 1] =
        base[static_cast<size_t>(p)] +
        g.intervals_per_proc[static_cast<size_t>(p)];
  const int total = base[static_cast<size_t>(g.nprocs)];
  auto node_of = [&](int p, int k) { return base[static_cast<size_t>(p)] + k; };

  // Zigzag reachability graph: message edges + intra-process forward edges
  // (a later interval of the receiving process may also continue a Z-path).
  std::vector<std::vector<int>> adj(static_cast<size_t>(total));
  for (const auto& e : g.edges)
    adj[static_cast<size_t>(node_of(e.from_proc, e.from_interval))].push_back(
        node_of(e.to_proc, e.to_interval));
  for (int p = 0; p < g.nprocs; ++p)
    for (int k = 0; k + 1 < g.intervals_per_proc[static_cast<size_t>(p)]; ++k)
      adj[static_cast<size_t>(node_of(p, k))].push_back(node_of(p, k + 1));

  // For each checkpoint instance c of process p (boundary between interval
  // c and c+1, 0-based instance), the checkpoint is useless iff a Z-path
  // leads from interval (p, c+1) back to an interval (p, k) with k ≤ c.
  auto reaches_back = [&](int p, int c) {
    std::vector<char> seen(static_cast<size_t>(total), 0);
    std::vector<int> work{node_of(p, c + 1)};
    seen[static_cast<size_t>(work[0])] = 1;
    while (!work.empty()) {
      const int n = work.back();
      work.pop_back();
      for (const int s : adj[static_cast<size_t>(n)]) {
        if (seen[static_cast<size_t>(s)]) continue;
        if (s >= node_of(p, 0) && s <= node_of(p, c)) return true;
        seen[static_cast<size_t>(s)] = 1;
        work.push_back(s);
      }
    }
    return false;
  };

  // Map (proc, instance-in-completion-order) → trace.checkpoints index.
  std::vector<int> out;
  std::vector<std::vector<std::pair<Tick, int>>> per_proc(
      static_cast<size_t>(g.nprocs));
  for (size_t i = 0; i < trace.checkpoints.size(); ++i)
    per_proc[static_cast<size_t>(trace.checkpoints[i].proc)].emplace_back(
        trace.checkpoints[i].tick,
        static_cast<int>(i));
  for (auto& v : per_proc) std::sort(v.begin(), v.end());
  for (int p = 0; p < g.nprocs; ++p) {
    for (size_t c = 0; c < per_proc[static_cast<size_t>(p)].size(); ++c) {
      if (reaches_back(p, static_cast<int>(c)))
        out.push_back(per_proc[static_cast<size_t>(p)][c].second);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace acfc::trace

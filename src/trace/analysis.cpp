#include "trace/analysis.h"

#include <algorithm>
#include <map>

#include "util/error.h"

namespace acfc::trace {

namespace {

/// The vector clock of a cut member (-1 → all-zero initial clock).
VClock member_vc(const Trace& trace, int member, int nprocs) {
  if (member < 0) return VClock(nprocs);
  return trace.checkpoints.at(static_cast<size_t>(member)).vc;
}

/// Completion time of a cut member (-1 → 0).
double member_time(const Trace& trace, int member) {
  if (member < 0) return 0.0;
  return trace.checkpoints.at(static_cast<size_t>(member)).t_end;
}

}  // namespace

CutAnalysis analyze_cut(const Trace& trace, const Cut& cut) {
  ACFC_CHECK_MSG(static_cast<int>(cut.member.size()) == trace.nprocs,
                 "cut must have one member per process");
  CutAnalysis out;
  std::vector<VClock> vcs;
  vcs.reserve(cut.member.size());
  for (int p = 0; p < trace.nprocs; ++p)
    vcs.push_back(member_vc(trace, cut.member[static_cast<size_t>(p)],
                            trace.nprocs));

  out.consistent = true;
  for (int p = 0; p < trace.nprocs; ++p) {
    for (int q = 0; q < trace.nprocs; ++q) {
      if (p == q) continue;
      // q must not have seen more of p than p had executed at its cut.
      if (vcs[static_cast<size_t>(q)][p] > vcs[static_cast<size_t>(p)][p]) {
        out.consistent = false;
        out.orphan_pairs.emplace_back(p, q);
      }
    }
  }

  // Classify app messages relative to the cut. Send/checkpoint and
  // recv/checkpoint comparisons are within a single process, where the
  // process's own vector-clock component orders events exactly (times can
  // tie when actions are instantaneous).
  for (const auto& m : trace.messages) {
    if (m.control || m.src < 0 || m.dst < 0) continue;
    const bool sent_pre_cut =
        m.send_vc[m.src] <= vcs[static_cast<size_t>(m.src)][m.src];
    const bool received_pre_cut =
        m.consumed &&
        m.recv_tick <= vcs[static_cast<size_t>(m.dst)][m.dst];
    if (!sent_pre_cut && received_pre_cut) out.orphan_msgs.push_back(m.id);
    if (sent_pre_cut && !received_pre_cut) out.in_transit_msgs.push_back(m.id);
  }
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

  RecoveryLine out;
  // Greedy demotion: while some q has seen more of some p than p
  // checkpointed, demote q.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int p = 0; p < trace.nprocs && !changed; ++p) {
      const VClock vp = member_vc(trace, member_of(p), trace.nprocs);
      for (int q = 0; q < trace.nprocs && !changed; ++q) {
        if (p == q) continue;
        const VClock vq = member_vc(trace, member_of(q), trace.nprocs);
        if (vq[p] > vp[p]) {
          ACFC_CHECK_MSG(cursor[static_cast<size_t>(q)] >= 0,
                         "initial state cannot be an orphan receiver");
          --cursor[static_cast<size_t>(q)];
          changed = true;
        }
      }
    }
  }

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
  // Per-process checkpoint boundaries identified by the process's own
  // vector-clock component (exact local event ordering).
  std::vector<std::vector<std::uint64_t>> boundaries(
      static_cast<size_t>(trace.nprocs));
  for (const auto& c : trace.checkpoints)
    boundaries[static_cast<size_t>(c.proc)].push_back(
        c.vc[c.proc]);
  for (auto& b : boundaries) std::sort(b.begin(), b.end());
  g.intervals_per_proc.resize(static_cast<size_t>(trace.nprocs));
  for (int p = 0; p < trace.nprocs; ++p)
    g.intervals_per_proc[static_cast<size_t>(p)] =
        static_cast<int>(boundaries[static_cast<size_t>(p)].size()) + 1;

  // The interval of an event = number of checkpoints that locally precede
  // it (checkpoint components are < the event's own component).
  auto interval_at = [&](int proc, std::uint64_t component) {
    const auto& b = boundaries[static_cast<size_t>(proc)];
    return static_cast<int>(
        std::lower_bound(b.begin(), b.end(), component) - b.begin());
  };

  for (const auto& m : trace.messages) {
    if (m.control || !m.consumed) continue;
    g.edges.push_back({m.src, interval_at(m.src, m.send_vc[m.src]), m.dst,
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
  std::vector<std::vector<std::pair<std::uint64_t, int>>> per_proc(
      static_cast<size_t>(g.nprocs));
  for (size_t i = 0; i < trace.checkpoints.size(); ++i)
    per_proc[static_cast<size_t>(trace.checkpoints[i].proc)].emplace_back(
        trace.checkpoints[i].vc[trace.checkpoints[i].proc],
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

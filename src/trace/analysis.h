// Recovery-line analyses over execution traces.
//
// Consistency of a cut of checkpoints {C_p} is the paper's Section 2
// definition, read off the trace's records: the cut is consistent iff no
// edge crosses it backwards. An edge is an app message or a native
// collective round's join → release (trace::CollRec). It crosses
// backwards when it leaves its source after the source's member (its tick
// is past the member's) and arrives in the history of the sink's member.
// A record of process q is in the history of q's member when it is no
// later in tick and no restore between the two set q below the record's
// tick — re-execution after a rollback reuses the ticks of the rolled-back
// epoch, whose records stay in the trace.
//
// Also provided:
//  * straight cuts (Definition 2.3 instanced per iteration),
//  * the maximal recovery line at a failure time via orphan propagation
//    (the classic rollback-propagation computation; on app-driven
//    placements it stops at the latest checkpoints, on uncoordinated ones
//    it may cascade — the domino effect, which we quantify),
//  * Wang-style rollback-dependency graphs, and
//  * Netzer–Xu zigzag-cycle detection of useless checkpoints.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "trace/trace.h"

namespace acfc::trace {

/// One checkpoint per process, as indices into trace.checkpoints;
/// -1 denotes the process's initial state.
struct Cut {
  std::vector<int> member;
};

struct CutAnalysis {
  /// No orphan message and no orphan collective round.
  bool consistent = false;
  /// App messages received before the receiver's cut but sent after the
  /// sender's cut (the witnesses of inconsistency).
  std::vector<long> orphan_msgs;
  /// Indices into trace.collectives of rounds joined after a member's cut
  /// by one process and released before the cut into another.
  std::vector<long> orphan_rounds;
  /// App messages sent before the sender's cut and not received before the
  /// receiver's cut — lost on rollback unless sender-logged.
  std::vector<long> in_transit_msgs;
};

/// Analyzes an arbitrary cut. The cut must have one entry per process.
CutAnalysis analyze_cut(const Trace& trace, const Cut& cut);

/// The straight cut R_i at dynamic instance k: each process's k-th
/// completion of a static-index-i checkpoint. nullopt if some process
/// never completed that instance.
std::optional<Cut> straight_cut(const Trace& trace, int static_index,
                                long instance);

/// All fully-populated straight cuts (every static index × instance).
std::vector<Cut> all_straight_cuts(const Trace& trace);

/// Per-process latest completion of a static-index-`static_index`
/// checkpoint at or before `t`; nullopt unless every process has one.
/// Under the strict placement policy this cut is always a recovery line,
/// regardless of instance skew between processes.
std::optional<Cut> latest_straight_cut_at(const Trace& trace,
                                          int static_index, double t);

struct RecoveryLine {
  Cut cut;
  bool consistent = false;
  /// Per process: how many USABLE checkpoints it was demoted below its
  /// latest usable one — 0 everywhere means "roll back to the latest
  /// checkpoint", the paper's coordinated-quality recovery.
  std::vector<int> rollbacks;
  /// Per process: committed-but-unusable checkpoints (corrupt images,
  /// unpublished manifests) above the chosen member that the selection had
  /// to skip. All-zero unless a usability predicate was supplied.
  std::vector<int> skipped_unusable;
  /// Σ_p (t_fail − completion time of p's cut member); the work lost.
  double lost_work = 0.0;
};

/// True when the checkpoint at this trace index is restorable (verifiable
/// on stable storage). Degraded recovery passes one of these to exclude
/// rotten images from the candidate set.
using CkptUsableFn = std::function<bool(int ckpt_index)>;

/// Computes the maximal consistent cut dominated by the latest checkpoints
/// at `at_time` by orphan propagation (standard rollback propagation):
/// when a member drops, every edge leaving its process past the new member
/// becomes active once, and each active edge demotes its sink's member
/// until the edge's arrival leaves that member's history. Always
/// terminates — the all-initial cut is consistent. When `usable` is supplied, unusable checkpoints are excluded
/// from the candidate set entirely (degraded-mode selection: the deepest
/// consistent cut whose every member verifies) and skipped_unusable counts
/// what was stepped over.
RecoveryLine max_recovery_line(const Trace& trace, double at_time,
                               const CkptUsableFn& usable = nullptr);

/// Rollback-dependency graph over checkpoint intervals. Interval (p, k)
/// covers events after p's (k-1)-th checkpoint completion and before its
/// k-th (k ranges 0..K_p, where K_p = number of checkpoints of p; interval
/// K_p is the open tail).
struct RGraph {
  int nprocs = 0;
  std::vector<int> intervals_per_proc;  ///< K_p + 1
  /// Edges (p, k) → (q, l): a message sent in (p,k) was received in (q,l).
  struct REdge {
    int from_proc, from_interval, to_proc, to_interval;
  };
  std::vector<REdge> edges;
};

RGraph build_rgraph(const Trace& trace);

/// Indices (into trace.checkpoints) of checkpoints lying on a zigzag cycle
/// — Netzer–Xu "useless" checkpoints that can belong to no consistent cut.
std::vector<int> useless_checkpoints(const Trace& trace);

}  // namespace acfc::trace

// Phases I and III of the paper's offline analysis (Sections 3.1, 3.3).
//
// Phase I — static checkpoint insertion. For code without checkpoint
// statements, inserts them at an approximately optimal interval (Young's
// first-order rule T* = sqrt(2·o/λ), the closed-form descendant of the
// Chandy–Ramamoorthy formulation the paper cites), accounting for estimated
// message delay, then *equalizes* so every entry→exit path carries the same
// number of checkpoint nodes (the precondition of the enumeration of
// Definition 2.2/2.3).
//
// Phase III — ensuring recovery lines. Condition 1 / Theorem 3.2: every
// straight cut R_i is a recovery line in every execution iff the extended
// CFG Ĝ has no path between members of S_i. Because inter-process causality
// needs a message, only Ĝ-paths containing a message edge matter; we
// classify them:
//
//  * HARD — some violating path uses no back edge: checkpoints of the SAME
//    instance frame are causally ordered (the paper's Figures 2 and 5).
//    These always break straight cuts and must be repaired.
//  * LOOP-CARRIED — every violating path crosses a back edge: the causality
//    couples different loop iterations (the paper's Figures 1 and 6). The
//    paper's Section 3.3 "optimization" keeps such checkpoints in the loop
//    and relies on runtime completion ordering; we expose both choices.
//
// RepairPolicy::kAlignedInstances (default, the paper's optimized variant)
// repairs hard violations only — afterwards, instance-aligned straight cuts
// are recovery lines for structurally aligned loops.
// RepairPolicy::kStrict repairs every violation — afterwards no Ĝ message
// path connects any two members of any S_i, so arbitrary "latest
// checkpoint" cuts are recovery lines (checkpoints may get hoisted out of
// loops, the drawback the paper notes).
//
// Algorithm 3.2 is realized as a small-step fixpoint on the AST: the target
// checkpoint of a violating path is moved one structural position backward
// (swap with the previous sibling; at an if-arm boundary, the same-index
// checkpoints of both arms merge into one checkpoint hoisted before the
// branch, preserving path balance; at a loop-body boundary the checkpoint
// hoists before the loop). Condition 1 is rechecked after each move, on a
// skeleton of the first Ĝ that no move can change (see repair_placement).
// The entry position is always violation-free, so the fixpoint terminates.
#pragma once

#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "match/match.h"
#include "mp/stmt.h"

namespace acfc::place {

// -- Phase I -----------------------------------------------------------------

struct InsertOptions {
  /// Per-process failure rate λ (1/s) used for the interval rule.
  double lambda = 1.23e-6;
  /// Single-checkpoint overhead o (s).
  double checkpoint_overhead = 1.78;
  /// If positive, use this interval directly instead of Young's rule.
  double target_interval = 0.0;
  /// Estimated one-way message delay added per send/recv statement (s),
  /// the paper's Phase-I network-delay estimation step.
  double est_message_delay = 1e-3;
};

/// Trip count the Phase-I cost model assumes for a loop whose bounds are
/// not compile-time constants.
inline constexpr int kAssumedTripCount = 10;

/// The interval actually used by insert_checkpoints for these options.
double optimal_interval(const InsertOptions& opts);

/// Inserts checkpoint statements into a program (which should not contain
/// any yet) so that the expected execution time between checkpoints is
/// roughly the optimal interval. Insertions happen only at unconditional
/// statement boundaries (top level and loop bodies), so the result is
/// balanced by construction. Loop blocking: a constant-bound loop whose
/// body is cheap but whose total cost spans several intervals is split
/// into checkpointed blocks of ⌊interval / body-cost⌋ iterations (the loop
/// variable is rewritten as an affine expression of the block/offset
/// variables), rather than checkpointing every iteration or not at all.
/// Returns the number of checkpoints inserted. The program is renumbered
/// and checkpoint ids are assigned.
int insert_checkpoints(mp::Program& program, const InsertOptions& opts = {});

/// Pads the checkpoint-poorer arm of every if statement (recursively) so
/// both arms carry equal checkpoint counts — the paper's "we may add/remove
/// some of the checkpoints" normalization. Returns the number added.
int equalize_checkpoints(mp::Program& program);

/// Expected failure-free execution cost of the program (s) under the
/// Phase-I cost model; used to pick checkpoint positions and by tests.
double estimated_cost(const mp::Program& program, const InsertOptions& opts = {});

// -- Phase III ---------------------------------------------------------------

enum class RepairPolicy {
  kAlignedInstances,  ///< repair hard violations only (paper's optimization)
  kStrict,            ///< repair loop-carried violations too
};

/// One Condition-1 violation: a Ĝ message path from checkpoint node `from`
/// to checkpoint node `to`, both members of S_index.
struct Violation {
  int index = 0;  ///< i of S_i (1-based)
  cfg::NodeId from = cfg::kNoNode;
  cfg::NodeId to = cfg::kNoNode;
  int from_ckpt_id = -1;
  int to_ckpt_id = -1;
  /// True if some violating path avoids all back edges (same-instance).
  bool hard = false;
};

struct CheckResult {
  std::vector<Violation> violations;

  bool ok(RepairPolicy policy) const {
    for (const auto& v : violations)
      if (v.hard || policy == RepairPolicy::kStrict) return false;
    return true;
  }
  int hard_count() const {
    int n = 0;
    for (const auto& v : violations) n += v.hard ? 1 : 0;
    return n;
  }
};

struct CheckOptions {
  /// Attribute-aware path-feasibility refinement (see
  /// match::ExtendedCfg::refine_classification): discards violations whose
  /// every witnessing path requires one process to satisfy contradictory
  /// branch attributes. Off by default — the paper's Algorithm 3.2 uses
  /// plain graph paths. It enumerates the bounds Ĝ was matched under
  /// (RepairOptions::match for a repair).
  bool attribute_refinement = false;
  match::ExtendedCfg::RefineOptions refine;
};

/// Evaluates Condition 1 on an extended CFG: examines every ordered pair of
/// members of every S_i (including a node with itself), BOTH orientations
/// (a,b) and (b,a). The message edges' hop closure answers every target of
/// a source in one reachability pass, on the same skeleton repair_placement
/// checks its later rounds on. Throws util::ProgramError (the diagnostic of
/// cfg::Cfg::index_checkpoints) if checkpoint counts are unbalanced.
/// Violations are ordered by (index, from node, to node).
CheckResult check_condition1(const match::ExtendedCfg& ext,
                             const CheckOptions& opts = {});

struct RepairOptions {
  RepairPolicy policy = RepairPolicy::kAlignedInstances;
  match::MatchOptions match;
  /// Violation checking options (attribute refinement etc.).
  CheckOptions check;
  /// Fixpoint guard: at most this many structural moves. With 0 (or less)
  /// the repair only checks, and succeeds iff no violation needs a move.
  int max_iterations = 10'000;
};

struct RepairReport {
  bool success = false;
  int moves = 0;          ///< single-position backward moves
  int merges = 0;         ///< if-arm merge-hoists
  int hoists = 0;         ///< loop-body hoists
  int initial_hard = 0;   ///< hard violations before repair
  int initial_total = 0;  ///< all violations before repair
  std::vector<std::string> log;  ///< one line per move, stuck or cap
  CheckResult final_check;
};

/// Runs Algorithm 3.2 to a fixpoint, mutating `program` (moving checkpoint
/// statements backward). On success, check_condition1 on the rebuilt Ĝ has
/// no violations of the policy's class.
///
/// Ĝ is built once per repair. Checkpoint nodes are pass-through and no
/// back edge touches one, and repair moves only checkpoints, so the
/// non-checkpoint nodes, their full and acyclic reachability, the message
/// edges and their hop closure are fixed for the whole repair. Every round
/// tracks each checkpoint as a slot on that skeleton (the checkpoint-free
/// CFG edge it sits on) and derives indexing, balance and Condition 1 from
/// slots and statement order alone. After a move, final_check comes from
/// check_condition1 on one fresh Ĝ, which must agree with the skeleton's
/// last verdict.
RepairReport repair_placement(mp::Program& program,
                              const RepairOptions& opts = {});

/// Convenience: the full offline pipeline of the paper. If the program has
/// no checkpoints, Phase I inserts them; arms are equalized; Phase III
/// repairs the placement. Returns the repair report.
RepairReport analyze_and_place(mp::Program& program,
                               const InsertOptions& insert_opts = {},
                               const RepairOptions& repair_opts = {});

}  // namespace acfc::place

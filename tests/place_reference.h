// Reference implementations of Condition 1 and Algorithm 3.2: the
// product-graph BFS over Ĝ, answered one ordered checkpoint pair at a time,
// and the fixpoint that rebuilds Ĝ and rechecks everything after every
// move. src/place/place.cpp answers the same questions from the message
// edges' hop closure and a move-invariant skeleton of the first Ĝ;
// tests/test_fastpath.cpp holds the two to equal violation lists, repair
// reports (log line for line) and repaired programs. Test-only.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cfg/cfg.h"
#include "match/match.h"
#include "mp/stmt.h"
#include "place/place.h"
#include "util/error.h"

namespace acfc::place::reference {

/// Classifies Ĝ-paths from `from` to `to` (BFS over the product of the
/// graph with {message-edge-used} × {back-edge-used} flags).
inline match::PathClass classify_paths(const match::ExtendedCfg& ext,
                                       cfg::NodeId from, cfg::NodeId to) {
  // Product-graph BFS: state = (node, used_message_edge, used_back_edge).
  // We start at `from` with both flags clear and look for `to` with the
  // message flag set; among those, whether a state with the back flag clear
  // is reachable distinguishes hard from loop-carried violations.
  const cfg::Cfg& graph = ext.graph();
  const int n = graph.node_count();
  auto state_index = [](cfg::NodeId id, bool msg, bool back) {
    return (static_cast<size_t>(id) << 2) | (static_cast<size_t>(msg) << 1) |
           static_cast<size_t>(back);
  };
  std::vector<char> seen(static_cast<size_t>(n) << 2, 0);
  std::deque<std::tuple<cfg::NodeId, bool, bool>> queue;

  auto push = [&](cfg::NodeId id, bool msg, bool back) {
    const size_t idx = state_index(id, msg, back);
    if (seen[idx]) return;
    seen[idx] = 1;
    queue.emplace_back(id, msg, back);
  };

  push(from, false, false);
  match::PathClass out;
  while (!queue.empty()) {
    const auto [id, msg, back] = queue.front();
    queue.pop_front();
    if (id == to && msg) {
      out.has_message_path = true;
      if (!back) {
        out.message_path_without_back_edge = true;
        return out;  // strongest classification reached
      }
    }
    for (const cfg::NodeId s : graph.succs(id))
      push(s, msg, back || graph.is_back_edge(id, s));
    for (const auto& e : ext.edges_from(id)) push(e.recv, true, back);
  }
  return out;
}

/// classify_paths followed by the attribute-aware refinement.
inline match::PathClass classify_paths_refined(
    const match::ExtendedCfg& ext, cfg::NodeId from, cfg::NodeId to,
    const match::ExtendedCfg::RefineOptions& opts = {}) {
  return ext.refine_classification(from, to, classify_paths(ext, from, to),
                                   opts);
}

/// Condition 1 with one product-graph BFS per ordered pair of members of
/// every S_i. Violations are ordered by (index, from node, to node).
inline CheckResult check_condition1(const match::ExtendedCfg& ext,
                                    const CheckOptions& opts = {}) {
  const cfg::Cfg& graph = ext.graph();
  const cfg::CheckpointIndexing indexing = graph.index_checkpoints();
  CheckResult out;
  for (int i = 1; i <= indexing.max_index(); ++i) {
    const std::vector<cfg::NodeId>& collection =
        indexing.collections[static_cast<size_t>(i - 1)];
    for (const cfg::NodeId a : collection) {
      for (const cfg::NodeId b : collection) {
        match::PathClass pc = classify_paths(ext, a, b);
        if (opts.attribute_refinement)
          pc = ext.refine_classification(a, b, pc, opts.refine);
        if (!pc.has_message_path) continue;
        Violation v;
        v.index = i;
        v.from = a;
        v.to = b;
        v.from_ckpt_id =
            static_cast<const mp::CheckpointStmt*>(graph.node(a).stmt)->ckpt_id;
        v.to_ckpt_id =
            static_cast<const mp::CheckpointStmt*>(graph.node(b).stmt)->ckpt_id;
        v.hard = pc.message_path_without_back_edge;
        out.violations.push_back(v);
      }
    }
  }
  return out;
}

/// The classification `check` gives the ordered pair (from, to) of
/// members of one S_i: no message path unless it lists the pair.
inline match::PathClass path_class_in(const CheckResult& check,
                                      cfg::NodeId from, cfg::NodeId to) {
  for (const Violation& v : check.violations)
    if (v.from == from && v.to == to) return {true, v.hard};
  return {};
}

struct MoveOutcome {
  bool moved = false;
  bool merged = false;
  bool hoisted = false;
  std::string description;
};

/// Applies one backward structural move to the checkpoint `target`, whose
/// index is `target_index`. `index_of` gives the current index of any
/// checkpoint statement (-1 if unknown); arm merges use it to find the
/// same-index counterpart in the sibling arm.
inline MoveOutcome move_back_one(
    mp::Program& program, const mp::Stmt& target, int target_index,
    const std::function<int(const mp::Stmt&)>& index_of) {
  MoveOutcome out;
  const int ckpt_uid = target.uid();
  auto loc = mp::locate(program, ckpt_uid);
  ACFC_CHECK_MSG(loc.has_value(), "checkpoint to move has vanished");

  if (loc->index > 0) {
    // Swap with the previous sibling.
    auto& stmts = loc->block->stmts;
    const mp::Stmt& prev = *stmts[loc->index - 1];
    std::swap(stmts[loc->index - 1], stmts[loc->index]);
    out.moved = true;
    out.description = "moved checkpoint back across '" +
                      std::string(mp::stmt_kind_name(prev.kind())) + "'";
    return out;
  }

  if (loc->ancestors.empty()) {
    out.description = "checkpoint already at program start; cannot move";
    return out;
  }

  mp::Stmt* enclosing = loc->ancestors.back();
  if (auto* loop = mp::stmt_cast<mp::LoopStmt>(enclosing)) {
    // Hoist out of the loop body.
    auto stmt = mp::remove_stmt(program, ckpt_uid);
    program.renumber();
    mp::insert_before(program, loop->uid(), std::move(stmt));
    out.hoisted = true;
    out.description = "hoisted checkpoint out of loop over '" + loop->var + "'";
    return out;
  }

  auto* iff = mp::stmt_cast<mp::IfStmt>(enclosing);
  ACFC_CHECK_MSG(iff != nullptr, "enclosing statement is neither loop nor if");

  // Merge: the target and its same-index counterpart in the sibling arm
  // both retract to a single checkpoint before the branch.
  bool in_then = false;
  mp::for_each_stmt(iff->then_body, [&](const mp::Stmt& s) {
    if (s.uid() == ckpt_uid) in_then = true;
  });
  const mp::Block& other_arm = in_then ? iff->else_body : iff->then_body;
  const mp::Stmt* counterpart = nullptr;
  mp::for_each_stmt(other_arm, [&](const mp::Stmt& s) {
    if (counterpart == nullptr && s.kind() == mp::StmtKind::kCheckpoint &&
        index_of(s) == target_index)
      counterpart = &s;
  });

  auto stmt = mp::remove_stmt(program, ckpt_uid);
  program.renumber();
  mp::insert_before(program, iff->uid(), std::move(stmt));
  program.renumber();

  if (counterpart != nullptr) {
    mp::remove_stmt(program, counterpart->uid());
    program.renumber();
    out.merged = true;
    out.description =
        "merged same-index arm checkpoints into one before the branch";
  } else {
    out.moved = true;
    out.description = "hoisted checkpoint out of if-arm";
  }
  return out;
}

/// The violation to repair next: the first hard one, else (kStrict only)
/// the first of any class; nullptr when the policy is satisfied.
inline const Violation* pick(const CheckResult& check, RepairPolicy policy) {
  const Violation* chosen = nullptr;
  for (const auto& v : check.violations) {
    if (v.hard) return &v;
    if (policy == RepairPolicy::kStrict && chosen == nullptr) chosen = &v;
  }
  return chosen;
}

/// Books one move in `report`; false (logged as stuck) if the checkpoint
/// could not move.
inline bool record_move(RepairReport& report, const Violation& chosen,
                        const MoveOutcome& outcome) {
  if (!outcome.moved && !outcome.merged && !outcome.hoisted) {
    report.log.push_back("stuck: " + outcome.description);
    return false;
  }
  report.moves += outcome.moved ? 1 : 0;
  report.merges += outcome.merged ? 1 : 0;
  report.hoists += outcome.hoisted ? 1 : 0;
  report.log.push_back("S_" + std::to_string(chosen.index) + ": ckpt#" +
                       std::to_string(chosen.from_ckpt_id) + " ⇝ ckpt#" +
                       std::to_string(chosen.to_ckpt_id) +
                       (chosen.hard ? " [hard]" : " [loop-carried]") + " — " +
                       outcome.description);
  return true;
}

/// Algorithm 3.2 rebuilding Ĝ and rechecking everything after every move.
/// With max_iterations <= 0 it checks once and succeeds iff no violation
/// needs a move.
inline RepairReport repair_placement(mp::Program& program,
                                     const RepairOptions& opts = {}) {
  program.renumber();
  program.assign_checkpoint_ids();
  RepairReport report;
  for (int iter = 0; iter < std::max(opts.max_iterations, 1); ++iter) {
    const match::ExtendedCfg ext =
        match::build_extended_cfg(program, opts.match);
    CheckResult check = reference::check_condition1(ext, opts.check);
    if (iter == 0) {
      report.initial_hard = check.hard_count();
      report.initial_total = static_cast<int>(check.violations.size());
    }
    const Violation* chosen = pick(check, opts.policy);
    if (chosen == nullptr) {
      report.success = true;
      report.final_check = std::move(check);
      return report;
    }
    if (opts.max_iterations <= 0) break;
    const cfg::Cfg& graph = ext.graph();
    std::optional<cfg::CheckpointIndexing> indexing;  // merges only
    const auto index_of = [&](const mp::Stmt& ckpt) {
      const auto node = graph.node_for_stmt(ckpt.uid());
      if (!node) return -1;
      if (!indexing) indexing = graph.index_checkpoints();
      const auto it = indexing->index_of.find(*node);
      return it == indexing->index_of.end() ? -1 : it->second;
    };
    const MoveOutcome outcome = move_back_one(
        program, *graph.node(chosen->to).stmt, chosen->index, index_of);
    if (!record_move(report, *chosen, outcome)) {
      report.final_check = std::move(check);
      return report;
    }
    program.renumber();
    program.assign_checkpoint_ids();
  }
  report.log.push_back("max_iterations exceeded");
  report.final_check = reference::check_condition1(
      match::build_extended_cfg(program, opts.match), opts.check);
  return report;
}

/// place::analyze_and_place with the reference repair.
inline RepairReport analyze_and_place(mp::Program& program,
                                      const InsertOptions& insert_opts,
                                      const RepairOptions& repair_opts) {
  if (mp::checkpoint_count(program) == 0)
    insert_checkpoints(program, insert_opts);
  equalize_checkpoints(program);
  return reference::repair_placement(program, repair_opts);
}

}  // namespace acfc::place::reference

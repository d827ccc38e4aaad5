// Phase II (Section 3.2): building the extended CFG Ĝ.
//
// Algorithm 3.1 scans the CFG and matches every receive node with the send
// node(s) whose destination attribute does not contradict the receive's
// source attribute; each match adds a *message edge* send→recv to the CFG,
// yielding the extended CFG Ĝ used by Phase III.
//
// Two matching policies are provided:
//
//  * kConservative (default): add an edge for EVERY non-contradicting
//    (send, recv) pair. Lemma 3.1 — the true dynamic sender is always among
//    the matched nodes — holds by construction, at the cost of possibly
//    superfluous edges (which can only make Phase III more cautious, never
//    unsafe).
//  * kPaperGreedy: Algorithm 3.1 as written — one-to-one first-fit matching
//    for regular parameter patterns, many-to-many only when a parameter is
//    irregular (data-dependent).
//
// Collective nodes (unlowered barrier/bcast) get a self message edge: the
// statement executes on every process and creates cross-process causality
// at that point, which path classification must observe.
//
// The ExtendedCfg borrows the Program it was built from (CFG nodes point at
// statements); the Program must outlive it and must not be mutated.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "attr/attr.h"
#include "cfg/cfg.h"
#include "mp/stmt.h"

namespace acfc::match {

enum class MatchPolicy { kConservative, kPaperGreedy };

struct MatchOptions {
  MatchPolicy policy = MatchPolicy::kConservative;
  attr::SatOptions sat;
};

/// A matched send/recv pair (for collectives, send == recv).
struct MessageEdge {
  cfg::NodeId send = cfg::kNoNode;
  cfg::NodeId recv = cfg::kNoNode;
  /// An example (n, sender, receiver) proving compatibility.
  attr::MatchWitness witness;
};

/// Classification of extended-CFG paths between two nodes. Only paths that
/// traverse at least one message edge create inter-process causality; paths
/// confined to one process's control flow cannot order two different
/// processes' checkpoints.
struct PathClass {
  /// Some Ĝ-path from→to uses ≥1 message edge.
  bool has_message_path = false;
  /// Some such path additionally avoids every back edge (a *hard*
  /// violation for Condition 1 — same-instance straight cuts break).
  bool message_path_without_back_edge = false;
};

class ExtendedCfg {
 public:
  /// The constructor indexes `edges` into CSR-style adjacency: edges are
  /// stably sorted by send node (so edges_from is a contiguous slice of
  /// message_edges()), and a recv-sorted shadow copy backs edges_to. Built
  /// once; every later per-node query is O(degree).
  ExtendedCfg(const mp::Program* program, cfg::Cfg graph,
              std::vector<MessageEdge> edges);

  const cfg::Cfg& graph() const { return graph_; }
  const mp::Program& program() const { return *program_; }
  /// All message edges, sorted by send node (stable w.r.t. match order).
  const std::vector<MessageEdge>& message_edges() const { return edges_; }

  /// Message edges leaving / entering a node: O(degree) views over the
  /// adjacency index, valid while the ExtendedCfg lives.
  std::span<const MessageEdge> edges_from(cfg::NodeId send) const;
  std::span<const MessageEdge> edges_to(cfg::NodeId recv) const;

  /// Attribute-aware refinement of a coarse (graph-path) classification
  /// of the Ĝ-paths from→to, such as one Condition-1 verdict of
  /// place::check_condition1: a graph path is *feasible* only if every
  /// control-flow segment between message-edge hops can be executed by one
  /// process — the segment endpoints' attributes must be co-satisfiable for
  /// a single rank, and each hop's endpoints must match given the
  /// accumulated constraints. A path through an even-rank checkpoint and an
  /// odd-rank send, say, is discarded. Sound: each check is a necessary
  /// condition, so refinement only removes paths no execution can realize;
  /// hop decompositions beyond `max_hops` resolve conservatively as
  /// feasible.
  struct RefineOptions {
    int max_hops = 3;
    attr::SatOptions sat;
  };
  PathClass refine_classification(cfg::NodeId from, cfg::NodeId to,
                                  const PathClass& coarse,
                                  const RefineOptions& opts) const;

  /// DOT rendering with message edges dashed.
  std::string to_dot(const std::string& title) const;

 private:
  const mp::Program* program_;
  cfg::Cfg graph_;
  std::vector<MessageEdge> edges_;     ///< sorted by send node
  std::vector<MessageEdge> in_edges_;  ///< shadow copy sorted by recv node
  /// CSR offsets: edges_[out_offset_[v] .. out_offset_[v+1]) leave v,
  /// in_edges_[in_offset_[v] .. in_offset_[v+1]) enter v.
  std::vector<int> out_offset_;
  std::vector<int> in_offset_;
};

/// Runs Algorithm 3.1 on the program's CFG. The program must be renumbered
/// (builders/parser do this). Collectives may be present (self edges) or
/// pre-lowered.
ExtendedCfg build_extended_cfg(const mp::Program& program,
                               const MatchOptions& opts = {});

}  // namespace acfc::match

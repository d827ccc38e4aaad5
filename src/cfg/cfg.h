// Control flow graphs of MiniMP programs (Section 2 of the paper).
//
// The CFG contains nodes for the send, receive, and checkpoint statements
// (the events of the system model), plus branch/join/loop structure, and
// dedicated entry/exit nodes. Loops are represented in do-while shape:
//
//     ... -> header -> body... -> latch -+-> continuation
//                 ^__________back edge___|
//
// so that every entry→exit path traverses a loop body exactly once. This
// matches the paper's enumeration convention (a checkpoint statement inside
// a loop receives one index, identical in every iteration — Definition 2.3)
// and makes the "same number of checkpoints on every path" property (the
// Phase-I precondition) independent of trip counts.
//
// Analyses provided: reverse postorder, immediate dominators
// (Cooper–Harvey–Kennedy), back-edge detection (an edge a→b is backward iff
// b dominates a), natural loop membership, full and acyclic (back-edge-free)
// reachability, and checkpoint enumeration into straight collections S_i.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mp/stmt.h"

namespace acfc::cfg {

using NodeId = int;
inline constexpr NodeId kNoNode = -1;

enum class NodeKind {
  kEntry,
  kExit,
  kCompute,
  kSend,
  kRecv,
  kCheckpoint,
  kCollective,   ///< barrier/bcast kept as a single node (pre-lowering)
  kBranch,       ///< two-successor condition node (an `if`)
  kJoin,         ///< merge point of an `if`
  kLoopHeader,   ///< loop entry/merge point
  kLoopLatch,    ///< loop-end condition node; successor 0 is the back edge
};

const char* node_kind_name(NodeKind kind);

struct Node {
  NodeId id = kNoNode;
  NodeKind kind = NodeKind::kEntry;
  /// Originating statement; nullptr for entry/exit/join. For kLoopHeader
  /// and kLoopLatch this is the LoopStmt; for kBranch the IfStmt.
  const mp::Stmt* stmt = nullptr;
  /// uid of the originating statement (kept separately so a Cfg remains
  /// diagnosable after the Program is gone); -1 if none.
  int stmt_uid = -1;
};

struct Edge {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// The checkpoint enumeration of Section 2: every checkpoint node gets the
/// 1-based index i of its position along any entry→exit path, and S_i
/// collects all checkpoint nodes with index i across paths.
struct CheckpointIndexing {
  /// index_of[node] for checkpoint nodes only.
  std::map<NodeId, int> index_of;
  /// collections[i-1] = S_i (node ids, ascending).
  std::vector<std::vector<NodeId>> collections;
  int max_index() const { return static_cast<int>(collections.size()); }
};

class Cfg {
 public:
  // -- Construction --------------------------------------------------------
  NodeId add_node(NodeKind kind, const mp::Stmt* stmt);
  /// Pre-sizes the node tables (builders know the statement count; joins
  /// and latches at most double it).
  void reserve_nodes(int n);
  void add_edge(NodeId from, NodeId to);
  void set_entry(NodeId id) { entry_ = id; }
  void set_exit(NodeId id) { exit_ = id; }

  /// Runs all analyses. Must be called once after construction and again
  /// after any mutation. Throws util::ProgramError if some node is
  /// unreachable from the entry.
  void analyze();

  // -- Shape ----------------------------------------------------------------
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id)); }
  NodeId entry() const { return entry_; }
  NodeId exit() const { return exit_; }
  std::span<const NodeId> succs(NodeId id) const;
  std::span<const NodeId> preds(NodeId id) const;
  std::vector<Node> nodes_of_kind(NodeKind kind) const;
  /// The node generated for the statement with this uid, if any.
  std::optional<NodeId> node_for_stmt(int stmt_uid) const;
  /// Human-readable node description ("send→i+1", "chkpt#3", …), generated
  /// on demand from the originating statement — labels are only needed for
  /// DOT output and diagnostics, so the hot build path never formats them.
  /// Requires the source Program to still be alive (node_label and to_dot
  /// dereference Node::stmt; everything else needs only ids/kinds/uids).
  std::string node_label(NodeId id) const;

  // -- Analyses (valid after analyze()) --------------------------------------
  const std::vector<NodeId>& rpo() const { return rpo_; }
  NodeId idom(NodeId id) const { return idom_.at(static_cast<size_t>(id)); }
  /// a dominates b (reflexive).
  bool dominates(NodeId a, NodeId b) const;
  /// O(out-degree): one back-edge bit per CSR successor slot.
  bool is_back_edge(NodeId from, NodeId to) const;
  const std::vector<Edge>& back_edges() const { return back_edges_; }
  /// Nodes of the natural loop of back edge (latch→header), including both.
  std::vector<NodeId> natural_loop(const Edge& back_edge) const;
  /// Reachability in the full graph (reflexive).
  bool reaches(NodeId from, NodeId to) const;
  /// Reachability using no back edges (reflexive) — the acyclic skeleton.
  bool reaches_acyclic(NodeId from, NodeId to) const;
  /// Raw reachability bitset rows — reach_words() 64-bit words per row, bit
  /// `to` of row `from` set iff from reaches to. For batch consumers (the
  /// Condition-1 hop-closure index) that would otherwise pay a function
  /// call per pair.
  std::size_t reach_words() const { return reach_words_; }
  std::span<const std::uint64_t> reach_row(NodeId from) const;
  std::span<const std::uint64_t> reach_acyclic_row(NodeId from) const;

  /// Enumerates checkpoints into straight collections. Throws
  /// util::ProgramError (with node labels) if two acyclic paths into the
  /// same node carry different checkpoint counts — the paper's Phase-I
  /// balance precondition.
  CheckpointIndexing index_checkpoints() const;

  /// Checks balance without throwing; returns a diagnostic if unbalanced.
  std::optional<std::string> check_balance() const;

  /// DOT rendering; `extra_edges` (e.g. message edges) are drawn dashed.
  std::string to_dot(const std::string& title,
                     const std::vector<Edge>& extra_edges = {}) const;

 private:
  friend std::vector<int> checkpoint_index_by_id(const mp::Program& program);

  /// analyze() without the reachability matrices: RPO, dominators and
  /// back edges — everything index_checkpoints() reads.
  void analyze_structure();
  void compute_rpo();
  void compute_dominators();
  void compute_back_edges();
  void compute_reachability();

  /// Rebuilds the CSR adjacency from edge_list_ if edges/nodes changed
  /// since the last build. Called by succs()/preds()/analyze().
  void ensure_adjacency() const;

  std::vector<Node> nodes_;
  // Adjacency as one flat edge list plus lazily-built CSR views (offsets +
  // packed neighbor arrays, insertion order preserved per node). A fresh
  // Cfg costs O(1) allocations for edges instead of two small vectors per
  // node — the builder is on the Phase-III repair loop's critical path.
  std::vector<Edge> edge_list_;
  mutable bool adj_dirty_ = true;
  mutable std::vector<int> succ_off_, pred_off_;
  mutable std::vector<NodeId> succ_dat_, pred_dat_;
  /// succ_back_[k] = 1 iff the edge to succ_dat_[k] is a back edge; filled
  /// by compute_back_edges (empty until then, and after any mutation). The
  /// back-edge test sits in every inner loop of the analyzer.
  mutable std::vector<char> succ_back_;
  NodeId entry_ = kNoNode;
  NodeId exit_ = kNoNode;

  bool analyzed_ = false;
  std::vector<NodeId> rpo_;
  std::vector<int> rpo_pos_;
  std::vector<NodeId> idom_;
  /// Depth of each node in the dominator tree (entry = 0).
  std::vector<int> dom_depth_;
  std::vector<Edge> back_edges_;
  /// stmt_uid → node, filled by add_node (uids ≥ 0 only).
  std::unordered_map<int, NodeId> stmt_node_;
  // Bitset reachability matrices: one flat buffer per variant, row-major,
  // reach_words_ words per row (single allocation, cache-friendly rows).
  std::size_t reach_words_ = 0;
  std::vector<std::uint64_t> reach_full_;
  std::vector<std::uint64_t> reach_acyclic_;
};

/// Builds the CFG of a program (which must be renumbered). Collectives are
/// represented as single kCollective nodes; run mp::lower_collectives first
/// if point-to-point granularity is wanted.
Cfg build_cfg(const mp::Program& program);

/// S_i of every checkpoint statement of `program` (renumbered), indexed by
/// CheckpointStmt::ckpt_id; -1 for ids no statement carries. The same
/// numbers as build_cfg(program).index_checkpoints(), from a CFG that skips
/// the reachability matrices indexing never reads. Throws
/// util::ProgramError on an unbalanced placement, as index_checkpoints()
/// does.
std::vector<int> checkpoint_index_by_id(const mp::Program& program);

}  // namespace acfc::cfg

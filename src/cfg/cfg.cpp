#include "cfg/cfg.h"

#include <algorithm>
#include <sstream>

#include "util/dot.h"
#include "util/error.h"

namespace acfc::cfg {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kEntry:
      return "entry";
    case NodeKind::kExit:
      return "exit";
    case NodeKind::kCompute:
      return "compute";
    case NodeKind::kSend:
      return "send";
    case NodeKind::kRecv:
      return "recv";
    case NodeKind::kCheckpoint:
      return "chkpt";
    case NodeKind::kCollective:
      return "collective";
    case NodeKind::kBranch:
      return "branch";
    case NodeKind::kJoin:
      return "join";
    case NodeKind::kLoopHeader:
      return "loop";
    case NodeKind::kLoopLatch:
      return "latch";
  }
  return "?";
}

void Cfg::reserve_nodes(int n) {
  const auto count = static_cast<size_t>(n);
  nodes_.reserve(count);
  edge_list_.reserve(2 * count);
  stmt_node_.reserve(count);
}

NodeId Cfg::add_node(NodeKind kind, const mp::Stmt* stmt) {
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = kind;
  n.stmt = stmt;
  n.stmt_uid = stmt != nullptr ? stmt->uid() : -1;
  nodes_.push_back(n);
  if (nodes_.back().stmt_uid >= 0)
    stmt_node_.emplace(nodes_.back().stmt_uid, nodes_.back().id);
  analyzed_ = false;
  adj_dirty_ = true;
  return nodes_.back().id;
}

void Cfg::add_edge(NodeId from, NodeId to) {
  ACFC_CHECK(from >= 0 && from < node_count());
  ACFC_CHECK(to >= 0 && to < node_count());
  edge_list_.push_back({from, to});
  analyzed_ = false;
  adj_dirty_ = true;
}

void Cfg::ensure_adjacency() const {
  if (!adj_dirty_) return;
  const auto n = nodes_.size();
  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  for (const Edge& e : edge_list_) {
    ++succ_off_[static_cast<size_t>(e.from) + 1];
    ++pred_off_[static_cast<size_t>(e.to) + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    succ_off_[v + 1] += succ_off_[v];
    pred_off_[v + 1] += pred_off_[v];
  }
  succ_dat_.resize(edge_list_.size());
  pred_dat_.resize(edge_list_.size());
  // Fill using the offsets as cursors (each bucket keeps edge-insertion
  // order), then shift the offsets back one slot.
  for (const Edge& e : edge_list_) {
    succ_dat_[static_cast<size_t>(succ_off_[static_cast<size_t>(e.from)]++)] =
        e.to;
    pred_dat_[static_cast<size_t>(pred_off_[static_cast<size_t>(e.to)]++)] =
        e.from;
  }
  for (size_t v = n; v > 0; --v) {
    succ_off_[v] = succ_off_[v - 1];
    pred_off_[v] = pred_off_[v - 1];
  }
  succ_off_[0] = 0;
  pred_off_[0] = 0;
  succ_back_.clear();  // stale until the next analyze()
  adj_dirty_ = false;
}

std::span<const NodeId> Cfg::succs(NodeId id) const {
  ensure_adjacency();
  const auto lo = static_cast<size_t>(succ_off_[static_cast<size_t>(id)]);
  const auto hi = static_cast<size_t>(succ_off_[static_cast<size_t>(id) + 1]);
  return {succ_dat_.data() + lo, hi - lo};
}

std::span<const NodeId> Cfg::preds(NodeId id) const {
  ensure_adjacency();
  const auto lo = static_cast<size_t>(pred_off_[static_cast<size_t>(id)]);
  const auto hi = static_cast<size_t>(pred_off_[static_cast<size_t>(id) + 1]);
  return {pred_dat_.data() + lo, hi - lo};
}

std::vector<Node> Cfg::nodes_of_kind(NodeKind kind) const {
  std::vector<Node> out;
  for (const Node& n : nodes_)
    if (n.kind == kind) out.push_back(n);
  return out;
}

std::optional<NodeId> Cfg::node_for_stmt(int stmt_uid) const {
  const auto it = stmt_node_.find(stmt_uid);
  if (it == stmt_node_.end()) return std::nullopt;
  return it->second;
}

std::string Cfg::node_label(NodeId id) const {
  const Node& n = node(id);
  switch (n.kind) {
    case NodeKind::kEntry:
      return "ENTRY";
    case NodeKind::kExit:
      return "EXIT";
    case NodeKind::kJoin:
      return "join";
    case NodeKind::kCompute: {
      const auto& c = static_cast<const mp::ComputeStmt&>(*n.stmt);
      return c.label.empty() ? "compute" : "compute " + c.label;
    }
    case NodeKind::kSend:
      return "send→" + static_cast<const mp::SendStmt&>(*n.stmt).dest.str();
    case NodeKind::kRecv: {
      const auto& c = static_cast<const mp::RecvStmt&>(*n.stmt);
      return "recv←" + (c.any_source ? std::string("any") : c.src.str());
    }
    case NodeKind::kCheckpoint: {
      const auto& c = static_cast<const mp::CheckpointStmt&>(*n.stmt);
      return "chkpt#" + std::to_string(c.ckpt_id) +
             (c.note.empty() ? "" : " " + c.note);
    }
    case NodeKind::kCollective:
      switch (n.stmt->kind()) {
        case mp::StmtKind::kBarrier:
          return "barrier";
        case mp::StmtKind::kBcast:
          return "bcast root=" +
                 static_cast<const mp::BcastStmt&>(*n.stmt).root.str();
        case mp::StmtKind::kReduce:
          return "reduce root=" +
                 static_cast<const mp::ReduceStmt&>(*n.stmt).root.str();
        default:
          return "allreduce";
      }
    case NodeKind::kBranch:
      return "if " + static_cast<const mp::IfStmt&>(*n.stmt).cond.str();
    case NodeKind::kLoopHeader: {
      const auto& c = static_cast<const mp::LoopStmt&>(*n.stmt);
      return "for " + c.var + " in " + c.lo.str() + ".." + c.hi.str();
    }
    case NodeKind::kLoopLatch:
      return "latch " + static_cast<const mp::LoopStmt&>(*n.stmt).var;
  }
  return node_kind_name(n.kind);
}

void Cfg::analyze() {
  analyze_structure();
  compute_reachability();
}

void Cfg::analyze_structure() {
  ACFC_CHECK_MSG(entry_ != kNoNode && exit_ != kNoNode,
                 "entry/exit must be set before analyze()");
  ensure_adjacency();
  compute_rpo();
  compute_dominators();
  compute_back_edges();
  analyzed_ = true;
}

void Cfg::compute_rpo() {
  const auto n = static_cast<size_t>(node_count());
  std::vector<char> visited(n, 0);
  std::vector<NodeId> postorder;
  postorder.reserve(n);
  // Iterative DFS with explicit successor cursor.
  std::vector<std::pair<NodeId, size_t>> stack;
  stack.emplace_back(entry_, 0);
  visited[static_cast<size_t>(entry_)] = 1;
  while (!stack.empty()) {
    auto& [id, cursor] = stack.back();
    const auto ss = succs(id);
    if (cursor < ss.size()) {
      const NodeId next = ss[cursor++];
      if (!visited[static_cast<size_t>(next)]) {
        visited[static_cast<size_t>(next)] = 1;
        stack.emplace_back(next, 0);
      }
    } else {
      postorder.push_back(id);
      stack.pop_back();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!visited[i])
      throw util::ProgramError("CFG node unreachable from entry: " +
                               node_label(static_cast<NodeId>(i)));
  }
  rpo_.assign(postorder.rbegin(), postorder.rend());
  rpo_pos_.assign(n, -1);
  for (size_t i = 0; i < rpo_.size(); ++i)
    rpo_pos_[static_cast<size_t>(rpo_[i])] = static_cast<int>(i);
}

void Cfg::compute_dominators() {
  // Cooper–Harvey–Kennedy iterative dominator algorithm over RPO.
  const auto n = static_cast<size_t>(node_count());
  idom_.assign(n, kNoNode);
  idom_[static_cast<size_t>(entry_)] = entry_;

  auto intersect = [this](NodeId a, NodeId b) {
    while (a != b) {
      while (rpo_pos_[static_cast<size_t>(a)] >
             rpo_pos_[static_cast<size_t>(b)])
        a = idom_[static_cast<size_t>(a)];
      while (rpo_pos_[static_cast<size_t>(b)] >
             rpo_pos_[static_cast<size_t>(a)])
        b = idom_[static_cast<size_t>(b)];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (const NodeId id : rpo_) {
      if (id == entry_) continue;
      NodeId new_idom = kNoNode;
      for (const NodeId p : preds(id)) {
        if (idom_[static_cast<size_t>(p)] == kNoNode) continue;
        new_idom = new_idom == kNoNode ? p : intersect(p, new_idom);
      }
      ACFC_CHECK_MSG(new_idom != kNoNode, "node with no processed preds");
      if (idom_[static_cast<size_t>(id)] != new_idom) {
        idom_[static_cast<size_t>(id)] = new_idom;
        changed = true;
      }
    }
  }

  // Dominator-tree depths: processing in RPO guarantees each idom is
  // filled first. dominates() uses them to reject non-ancestors in O(1),
  // which makes back-edge detection O(E) instead of O(V·E) on the long
  // idom chains of sequential code.
  dom_depth_.assign(n, 0);
  for (const NodeId id : rpo_) {
    if (id == entry_) continue;
    dom_depth_[static_cast<size_t>(id)] =
        dom_depth_[static_cast<size_t>(idom_[static_cast<size_t>(id)])] + 1;
  }
}

bool Cfg::dominates(NodeId a, NodeId b) const {
  ACFC_CHECK_MSG(analyzed_, "call analyze() first");
  const int target = dom_depth_[static_cast<size_t>(a)];
  if (target > dom_depth_[static_cast<size_t>(b)]) return false;
  NodeId cur = b;
  while (dom_depth_[static_cast<size_t>(cur)] > target)
    cur = idom_[static_cast<size_t>(cur)];
  return cur == a;
}

void Cfg::compute_back_edges() {
  back_edges_.clear();
  succ_back_.assign(succ_dat_.size(), 0);
  analyzed_ = true;  // dominates() is usable now that idom_ is computed
  for (NodeId from = 0; from < node_count(); ++from) {
    const auto f = static_cast<size_t>(from);
    for (auto k = static_cast<size_t>(succ_off_[f]);
         k < static_cast<size_t>(succ_off_[f + 1]); ++k) {
      const NodeId to = succ_dat_[k];
      if (dominates(to, from)) {
        back_edges_.push_back({from, to});
        succ_back_[k] = 1;
      }
    }
  }
}

bool Cfg::is_back_edge(NodeId from, NodeId to) const {
  if (from < 0 || from >= node_count()) return false;
  ensure_adjacency();
  if (succ_back_.size() != succ_dat_.size()) return false;  // not analyzed
  const auto f = static_cast<size_t>(from);
  for (auto k = static_cast<size_t>(succ_off_[f]);
       k < static_cast<size_t>(succ_off_[f + 1]); ++k)
    if (succ_dat_[k] == to && succ_back_[k]) return true;
  return false;
}

namespace {

/// Computes the reflexive-transitive closure as row bitsets. `order` is
/// the sequence in which rows are relaxed each pass: with reverse
/// postorder REVERSED (successors before predecessors) a DAG converges in
/// one pass and back edges only add the handful of extra passes their
/// loop nesting requires — versus O(diameter) passes for arbitrary order,
/// which made this the analyzer's single hottest loop.
template <typename SkipSlot>
std::vector<std::uint64_t> closure(int n, size_t words,
                                   const std::vector<int>& succ_off,
                                   const std::vector<NodeId>& succ_dat,
                                   const std::vector<NodeId>& order,
                                   const SkipSlot& skip_slot) {
  std::vector<std::uint64_t> reach(static_cast<size_t>(n) * words, 0);
  for (size_t i = 0; i < static_cast<size_t>(n); ++i)
    reach[i * words + i / 64] |= 1ULL << (i % 64);
  // Iterate to fixpoint: reach[a] |= reach[b] for each edge a->b.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const NodeId a : order) {
      std::uint64_t* row = reach.data() + static_cast<size_t>(a) * words;
      const auto lo = static_cast<size_t>(succ_off[static_cast<size_t>(a)]);
      const auto hi =
          static_cast<size_t>(succ_off[static_cast<size_t>(a) + 1]);
      for (size_t ei = lo; ei < hi; ++ei) {
        if (skip_slot(ei)) continue;
        const NodeId b = succ_dat[ei];
        const std::uint64_t* other =
            reach.data() + static_cast<size_t>(b) * words;
        for (size_t w = 0; w < words; ++w) {
          const std::uint64_t merged = row[w] | other[w];
          if (merged != row[w]) {
            row[w] = merged;
            changed = true;
          }
        }
      }
    }
  }
  return reach;
}

bool test_bit(const std::vector<std::uint64_t>& reach, size_t words, NodeId a,
              NodeId b) {
  return (reach[static_cast<size_t>(a) * words +
                static_cast<size_t>(b) / 64] >>
          (static_cast<size_t>(b) % 64)) &
         1ULL;
}

}  // namespace

void Cfg::compute_reachability() {
  std::vector<NodeId> order(rpo_.rbegin(), rpo_.rend());
  reach_words_ = (static_cast<size_t>(node_count()) + 63) / 64;
  ensure_adjacency();
  reach_full_ = closure(node_count(), reach_words_, succ_off_, succ_dat_,
                        order, [](size_t) { return false; });
  reach_acyclic_ =
      closure(node_count(), reach_words_, succ_off_, succ_dat_, order,
              [this](size_t slot) { return succ_back_[slot] != 0; });
}

bool Cfg::reaches(NodeId from, NodeId to) const {
  ACFC_CHECK_MSG(analyzed_, "call analyze() first");
  return test_bit(reach_full_, reach_words_, from, to);
}

bool Cfg::reaches_acyclic(NodeId from, NodeId to) const {
  ACFC_CHECK_MSG(analyzed_, "call analyze() first");
  return test_bit(reach_acyclic_, reach_words_, from, to);
}

std::span<const std::uint64_t> Cfg::reach_row(NodeId from) const {
  ACFC_CHECK_MSG(analyzed_, "call analyze() first");
  return {reach_full_.data() + static_cast<size_t>(from) * reach_words_,
          reach_words_};
}

std::span<const std::uint64_t> Cfg::reach_acyclic_row(NodeId from) const {
  ACFC_CHECK_MSG(analyzed_, "call analyze() first");
  return {reach_acyclic_.data() + static_cast<size_t>(from) * reach_words_,
          reach_words_};
}

namespace {

/// Per-node incoming checkpoint count along acyclic paths; -2 = unset.
constexpr int kUnset = -2;

}  // namespace

std::optional<std::string> Cfg::check_balance() const {
  ACFC_CHECK_MSG(analyzed_, "call analyze() first");
  const auto n = static_cast<size_t>(node_count());
  std::vector<int> in_count(n, kUnset);
  in_count[static_cast<size_t>(entry_)] = 0;
  // Process in RPO; ignoring back edges, RPO is a topological order.
  for (const NodeId id : rpo_) {
    const int in = in_count[static_cast<size_t>(id)];
    if (in == kUnset) continue;  // only reachable via back edges — impossible
    const int out =
        in + (node(id).kind == NodeKind::kCheckpoint ? 1 : 0);
    for (const NodeId s : succs(id)) {
      if (is_back_edge(id, s)) continue;
      int& slot = in_count[static_cast<size_t>(s)];
      if (slot == kUnset) {
        slot = out;
      } else if (slot != out) {
        std::ostringstream os;
        os << "unbalanced checkpoint counts at CFG node '" << node_label(s)
           << "' (" << node_kind_name(node(s).kind) << "): paths carry "
           << slot << " and " << out
           << " checkpoints — Phase I must equalize before analysis";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

CheckpointIndexing Cfg::index_checkpoints() const {
  if (auto problem = check_balance()) throw util::ProgramError(*problem);

  const auto n = static_cast<size_t>(node_count());
  std::vector<int> in_count(n, kUnset);
  in_count[static_cast<size_t>(entry_)] = 0;
  CheckpointIndexing out;
  for (const NodeId id : rpo_) {
    const int in = in_count[static_cast<size_t>(id)];
    const bool is_ckpt = node(id).kind == NodeKind::kCheckpoint;
    if (is_ckpt) {
      const int index = in + 1;
      out.index_of[id] = index;
      if (static_cast<int>(out.collections.size()) < index)
        out.collections.resize(static_cast<size_t>(index));
      out.collections[static_cast<size_t>(index - 1)].push_back(id);
    }
    const int next = in + (is_ckpt ? 1 : 0);
    for (const NodeId s : succs(id)) {
      if (is_back_edge(id, s)) continue;
      in_count[static_cast<size_t>(s)] = next;
    }
  }
  for (auto& collection : out.collections)
    std::sort(collection.begin(), collection.end());
  return out;
}

std::string Cfg::to_dot(const std::string& title,
                        const std::vector<Edge>& extra_edges) const {
  util::DotGraph dot(title);
  for (const Node& n : nodes_) {
    std::string shape;
    switch (n.kind) {
      case NodeKind::kEntry:
      case NodeKind::kExit:
        shape = "shape=oval, style=bold";
        break;
      case NodeKind::kBranch:
      case NodeKind::kLoopHeader:
      case NodeKind::kLoopLatch:
        shape = "shape=diamond";
        break;
      case NodeKind::kCheckpoint:
        shape = "shape=box, style=filled, fillcolor=lightyellow";
        break;
      case NodeKind::kSend:
      case NodeKind::kRecv:
      case NodeKind::kCollective:
        shape = "shape=box, style=rounded";
        break;
      default:
        shape = "shape=box";
        break;
    }
    dot.add_node("n" + std::to_string(n.id), node_label(n.id), shape);
  }
  for (NodeId from = 0; from < node_count(); ++from) {
    for (const NodeId to : succs(from)) {
      const bool back = analyzed_ && is_back_edge(from, to);
      dot.add_edge("n" + std::to_string(from), "n" + std::to_string(to),
                   back ? "style=bold, color=blue, label=\"back\"" : "");
    }
  }
  for (const Edge& e : extra_edges) {
    dot.add_edge("n" + std::to_string(e.from), "n" + std::to_string(e.to),
                 "style=dashed, color=red, constraint=false, label=\"msg\"");
  }
  return dot.str();
}

namespace {

class Builder {
 public:
  Cfg run(const mp::Program& program) {
    cfg_.reserve_nodes(2 * program.stmt_count() + 2);
    const NodeId entry = cfg_.add_node(NodeKind::kEntry, nullptr);
    cfg_.set_entry(entry);
    NodeId tail = build_block(program.body, entry);
    const NodeId exit = cfg_.add_node(NodeKind::kExit, nullptr);
    cfg_.set_exit(exit);
    cfg_.add_edge(tail, exit);
    return std::move(cfg_);
  }

 private:
  /// Appends the block after `pred`, returning the new tail node.
  NodeId build_block(const mp::Block& block, NodeId pred) {
    NodeId tail = pred;
    for (const auto& stmt : block.stmts) tail = build_stmt(*stmt, tail);
    return tail;
  }

  NodeId build_stmt(const mp::Stmt& stmt, NodeId pred) {
    using mp::StmtKind;
    switch (stmt.kind()) {
      case StmtKind::kCompute:
        return chain(NodeKind::kCompute, stmt, pred);
      case StmtKind::kSend:
        return chain(NodeKind::kSend, stmt, pred);
      case StmtKind::kRecv:
        return chain(NodeKind::kRecv, stmt, pred);
      case StmtKind::kCheckpoint:
        return chain(NodeKind::kCheckpoint, stmt, pred);
      case StmtKind::kBarrier:
      case StmtKind::kBcast:
      case StmtKind::kReduce:
      case StmtKind::kAllreduce:
        return chain(NodeKind::kCollective, stmt, pred);
      case StmtKind::kIf: {
        const auto& c = static_cast<const mp::IfStmt&>(stmt);
        const NodeId branch = cfg_.add_node(NodeKind::kBranch, &stmt);
        cfg_.add_edge(pred, branch);
        const NodeId then_tail = build_block(c.then_body, branch);
        // Build else arm chained from the branch even if empty — an empty
        // else contributes the fall-through edge directly.
        const NodeId join = cfg_.add_node(NodeKind::kJoin, nullptr);
        cfg_.add_edge(then_tail, join);
        if (c.else_body.empty()) {
          cfg_.add_edge(branch, join);
        } else {
          const NodeId else_tail = build_block(c.else_body, branch);
          cfg_.add_edge(else_tail, join);
        }
        return join;
      }
      case StmtKind::kLoop: {
        const auto& c = static_cast<const mp::LoopStmt&>(stmt);
        const NodeId header = cfg_.add_node(NodeKind::kLoopHeader, &stmt);
        cfg_.add_edge(pred, header);
        const NodeId body_tail = build_block(c.body, header);
        const NodeId latch = cfg_.add_node(NodeKind::kLoopLatch, &stmt);
        cfg_.add_edge(body_tail, latch);
        cfg_.add_edge(latch, header);  // back edge (successor 0)
        return latch;                  // continuation edge added by caller
      }
    }
    ACFC_CHECK_MSG(false, "unreachable statement kind");
  }

  NodeId chain(NodeKind kind, const mp::Stmt& stmt, NodeId pred) {
    const NodeId id = cfg_.add_node(kind, &stmt);
    cfg_.add_edge(pred, id);
    return id;
  }

  Cfg cfg_;
};

}  // namespace

Cfg build_cfg(const mp::Program& program) {
  Cfg graph = Builder().run(program);
  graph.analyze();
  return graph;
}

std::vector<int> checkpoint_index_by_id(const mp::Program& program) {
  Cfg graph = Builder().run(program);
  graph.analyze_structure();
  std::vector<int> index_of_id;
  for (const auto& [node, index] : graph.index_checkpoints().index_of) {
    const int id =
        static_cast<const mp::CheckpointStmt*>(graph.node(node).stmt)->ckpt_id;
    if (id < 0) continue;
    if (static_cast<std::size_t>(id) >= index_of_id.size())
      index_of_id.resize(static_cast<std::size_t>(id) + 1, -1);
    index_of_id[static_cast<std::size_t>(id)] = index;
  }
  return index_of_id;
}

}  // namespace acfc::cfg

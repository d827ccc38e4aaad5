#include "place/place.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "mp/subst.h"
#include "util/error.h"

namespace acfc::place {

// ===========================================================================
// Phase I
// ===========================================================================

double optimal_interval(const InsertOptions& opts) {
  if (opts.target_interval > 0.0) return opts.target_interval;
  ACFC_CHECK_MSG(opts.lambda > 0.0 && opts.checkpoint_overhead > 0.0,
                 "interval rule needs positive lambda and overhead");
  // Young's first-order optimum.
  return std::sqrt(2.0 * opts.checkpoint_overhead / opts.lambda);
}

namespace {

double stmt_cost(const mp::Stmt& stmt, const InsertOptions& opts);

double block_cost(const mp::Block& block, const InsertOptions& opts) {
  double total = 0.0;
  for (const auto& s : block.stmts) total += stmt_cost(*s, opts);
  return total;
}

std::int64_t loop_trips(const mp::LoopStmt& loop, const InsertOptions& opts) {
  mp::EvalCtx ctx;  // nprocs=1: constants only
  const auto lo = loop.lo.eval(ctx);
  const auto hi = loop.hi.eval(ctx);
  if (lo && hi && loop.lo.kind() == mp::ExprKind::kConst &&
      loop.hi.kind() == mp::ExprKind::kConst)
    return std::max<std::int64_t>(0, *hi - *lo);
  return opts.assumed_trip_count;
}

double stmt_cost(const mp::Stmt& stmt, const InsertOptions& opts) {
  switch (stmt.kind()) {
    case mp::StmtKind::kCompute:
      return static_cast<const mp::ComputeStmt&>(stmt).cost;
    case mp::StmtKind::kSend:
    case mp::StmtKind::kRecv:
      return opts.est_message_delay;
    case mp::StmtKind::kBarrier:
    case mp::StmtKind::kBcast:
    case mp::StmtKind::kReduce:
    case mp::StmtKind::kAllreduce:
      return 2.0 * opts.est_message_delay;
    case mp::StmtKind::kCheckpoint:
      return 0.0;
    case mp::StmtKind::kIf: {
      const auto& iff = static_cast<const mp::IfStmt&>(stmt);
      return std::max(block_cost(iff.then_body, opts),
                      block_cost(iff.else_body, opts));
    }
    case mp::StmtKind::kLoop: {
      const auto& loop = static_cast<const mp::LoopStmt&>(stmt);
      return static_cast<double>(loop_trips(loop, opts)) *
             block_cost(loop.body, opts);
    }
  }
  return 0.0;
}

class Inserter {
 public:
  Inserter(const InsertOptions& opts)
      : opts_(opts), interval_(optimal_interval(opts)) {}

  int run(mp::Block& block) {
    acc_ = 0.0;
    walk(block);
    return inserted_;
  }

 private:
  /// Walks a block, inserting checkpoints at unconditional boundaries
  /// whenever the running cost crosses the interval.
  void walk(mp::Block& block) {
    for (std::size_t i = 0; i < block.stmts.size(); ++i) {
      mp::Stmt& stmt = *block.stmts[i];
      if (auto* loop = mp::stmt_cast<mp::LoopStmt>(&stmt)) {
        const double per_iter = block_cost(loop->body, opts_);
        const auto trips = loop_trips(*loop, opts_);
        const double total = static_cast<double>(trips) * per_iter;
        if (per_iter >= interval_ / 2.0) {
          // Heavy loop body: place checkpoints inside it (one per crossing
          // of the interval within the body).
          walk(loop->body);
          continue;
        }
        if (opts_.enable_loop_blocking && total >= interval_ &&
            try_block_loop(block, i, *loop, per_iter)) {
          continue;  // i now indexes the blocked outer loop; move on
        }
        acc_ += total;
      } else {
        acc_ += stmt_cost(stmt, opts_);
      }
      if (acc_ >= interval_) {
        auto ckpt = std::make_unique<mp::CheckpointStmt>("auto");
        block.stmts.insert(
            block.stmts.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            std::move(ckpt));
        ++i;  // skip the checkpoint we just inserted
        ++inserted_;
        acc_ = 0.0;
      }
    }
  }

  /// Splits a cheap-bodied, constant-bound loop spanning several intervals
  /// into checkpointed blocks:
  ///
  ///   for v in lo..hi { B }
  ///     ⇓  with k = ⌊interval / body-cost⌋, q = trips/k, r = trips%k
  ///   for _blk in 0..q { for _off in 0..k { B[v := lo+_blk·k+_off] }
  ///                      checkpoint; }
  ///   for _tail in 0..r { B[v := lo+q·k+_tail] }
  ///
  /// Returns false (leaving the loop untouched) when the bounds are not
  /// compile-time constants or blocking is not worthwhile.
  bool try_block_loop(mp::Block& block, std::size_t index,
                      const mp::LoopStmt& loop, double per_iter) {
    if (loop.lo.kind() != mp::ExprKind::kConst ||
        loop.hi.kind() != mp::ExprKind::kConst)
      return false;
    const std::int64_t lo = loop.lo.const_value();
    const std::int64_t hi = loop.hi.const_value();
    const std::int64_t trips = hi - lo;
    if (trips < 2 || per_iter <= 0.0) return false;
    const auto k = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(interval_ / per_iter), 1, trips);
    const std::int64_t q = trips / k;
    const std::int64_t r = trips % k;
    if (q < 1 || (q == 1 && r == 0 && k == trips)) return false;

    const std::string blk = fresh_var("_blk");
    const std::string off = fresh_var("_off");
    const mp::Expr rewritten = mp::Expr::constant(lo) +
                               mp::Expr::loop_var(blk) * mp::Expr::constant(k) +
                               mp::Expr::loop_var(off);

    auto inner = std::make_unique<mp::LoopStmt>(off, mp::Expr::constant(0),
                                                mp::Expr::constant(k));
    inner->body = loop.body.clone();
    mp::substitute_in_block(inner->body, loop.var, rewritten);

    auto outer = std::make_unique<mp::LoopStmt>(blk, mp::Expr::constant(0),
                                                mp::Expr::constant(q));
    outer->body.stmts.push_back(std::move(inner));
    outer->body.stmts.push_back(
        std::make_unique<mp::CheckpointStmt>("auto-block"));
    ++inserted_;

    std::unique_ptr<mp::Stmt> tail;
    if (r > 0) {
      const std::string tv = fresh_var("_tail");
      auto tail_loop = std::make_unique<mp::LoopStmt>(
          tv, mp::Expr::constant(0), mp::Expr::constant(r));
      tail_loop->body = loop.body.clone();
      mp::substitute_in_block(
          tail_loop->body, loop.var,
          mp::Expr::constant(lo + q * k) + mp::Expr::loop_var(tv));
      tail = std::move(tail_loop);
    }

    block.stmts[index] = std::move(outer);
    if (tail)
      block.stmts.insert(
          block.stmts.begin() + static_cast<std::ptrdiff_t>(index) + 1,
          std::move(tail));
    // Work since the last checkpoint is the unblocked tail.
    acc_ = static_cast<double>(r) * per_iter;
    return true;
  }

  std::string fresh_var(const char* prefix) {
    return std::string(prefix) + std::to_string(fresh_counter_++);
  }

  const InsertOptions& opts_;
  double interval_;
  double acc_ = 0.0;
  int inserted_ = 0;
  int fresh_counter_ = 0;
};

}  // namespace

double estimated_cost(const mp::Program& program, const InsertOptions& opts) {
  return block_cost(program.body, opts);
}

int insert_checkpoints(mp::Program& program, const InsertOptions& opts) {
  Inserter inserter(opts);
  const int inserted = inserter.run(program.body);
  program.renumber();
  program.assign_checkpoint_ids();
  return inserted;
}

namespace {

/// Equalizes arms bottom-up; returns the checkpoint count of the block
/// along any single path through it, accumulating additions.
int equalize_block(mp::Block& block, int& added) {
  int total = 0;
  for (auto& s : block.stmts) {
    if (s->kind() == mp::StmtKind::kCheckpoint) {
      ++total;
    } else if (auto* iff = mp::stmt_cast<mp::IfStmt>(s.get())) {
      int then_count = equalize_block(iff->then_body, added);
      int else_count = equalize_block(iff->else_body, added);
      while (then_count < else_count) {
        iff->then_body.stmts.push_back(
            std::make_unique<mp::CheckpointStmt>("equalize"));
        ++then_count;
        ++added;
      }
      while (else_count < then_count) {
        iff->else_body.stmts.push_back(
            std::make_unique<mp::CheckpointStmt>("equalize"));
        ++else_count;
        ++added;
      }
      total += then_count;
    } else if (auto* loop = mp::stmt_cast<mp::LoopStmt>(s.get())) {
      total += equalize_block(loop->body, added);
    }
  }
  return total;
}

}  // namespace

int equalize_checkpoints(mp::Program& program) {
  int added = 0;
  equalize_block(program.body, added);
  program.renumber();
  program.assign_checkpoint_ids();
  return added;
}
// ===========================================================================
// Phase III
// ===========================================================================

namespace {

/// A hop-closure index over the message edges. A Ĝ-path a ⇒ b with ≥1
/// message edge decomposes into
///
///   a →cfg* e₁.send, (e₁ hop), e₁.recv →cfg* e₂.send, …, e_k.recv →cfg* b
///
/// and every control-flow segment is an O(1) lookup in the Cfg's
/// precomputed reachability bitsets — so instead of launching product-graph
/// BFS traversals we close the tiny "edge can feed edge" relation
/// (E × E bits, E = |message edges|) once and answer every target of a
/// source with a handful of bitset ORs. The back-edge-free (hard)
/// classification is the same construction over acyclic reachability:
/// message hops never use CFG edges, so a product-graph state with
/// back = 0 is exactly a decomposition whose every segment is
/// back-edge-free. Build cost: O(E²) O(1) reachability lookups; per
/// source: O(E²/64 + E·N/64) word ops (N = #nodes).
class HopClosure {
 public:
  explicit HopClosure(const match::ExtendedCfg& ext) : ext_(ext) {
    const auto& edges = ext.message_edges();
    edge_count_ = edges.size();
    const cfg::Cfg& graph = ext.graph();
    edge_words_ = (edge_count_ + 63) / 64;
    closure_[0].assign(edge_count_ * edge_words_, 0);
    closure_[1].assign(edge_count_ * edge_words_, 0);

    // The base hop relation (reflexive): edge i can feed edge j when a
    // process can flow from i's receive to j's send.
    for (size_t i = 0; i < edge_count_; ++i) {
      const auto full = graph.reach_row(edges[i].recv);
      const auto acyclic = graph.reach_acyclic_row(edges[i].recv);
      set_bit(closure_[0], i, edge_words_, i);
      set_bit(closure_[1], i, edge_words_, i);
      for (size_t j = 0; j < edge_count_; ++j) {
        if (row_bit(full, edges[j].send)) set_bit(closure_[0], i, edge_words_, j);
        if (row_bit(acyclic, edges[j].send))
          set_bit(closure_[1], i, edge_words_, j);
      }
    }
    // Warshall transitive closure over edge-row bitsets.
    for (int variant = 0; variant < 2; ++variant) {
      auto& m = closure_[variant];
      for (size_t k = 0; k < edge_count_; ++k)
        for (size_t i = 0; i < edge_count_; ++i)
          if (test_bit(m, i, edge_words_, k))
            or_row(m, i, m, k, edge_words_);
    }
  }

  /// Every node as target, as Cfg-shaped rows of reach_words() words: bit
  /// y of `full` is set iff some Ĝ-path a ⇒ y uses ≥1 message edge, bit y
  /// of `acyclic` iff such a path also avoids every back edge.
  void reach_nodes_from(cfg::NodeId a, std::uint64_t* full,
                        std::uint64_t* acyclic) {
    last_hops(a);
    const auto& edges = ext_.message_edges();
    const cfg::Cfg& graph = ext_.graph();
    const size_t words = graph.reach_words();
    std::fill_n(full, words, 0);
    std::fill_n(acyclic, words, 0);
    for_each_bit(last_[0], [&](size_t e) {
      const auto row = graph.reach_row(edges[e].recv);
      for (size_t w = 0; w < words; ++w) full[w] |= row[w];
    });
    for_each_bit(last_[1], [&](size_t e) {
      const auto row = graph.reach_acyclic_row(edges[e].recv);
      for (size_t w = 0; w < words; ++w) acyclic[w] |= row[w];
    });
  }

 private:
  using Bits = std::vector<std::uint64_t>;

  /// last_[v] = the edges whose hop can end a Ĝ-path from `a` (v = 1:
  /// back-edge-free paths only): the closure rows of every edge whose
  /// send `a` reaches.
  void last_hops(cfg::NodeId a) {
    const auto& edges = ext_.message_edges();
    const cfg::Cfg& graph = ext_.graph();
    last_[0].assign(edge_words_, 0);
    last_[1].assign(edge_words_, 0);
    const auto full = graph.reach_row(a);
    const auto acyclic = graph.reach_acyclic_row(a);
    for (size_t e = 0; e < edge_count_; ++e) {
      if (row_bit(full, edges[e].send))
        or_row_into(last_[0], closure_[0], e, edge_words_);
      if (row_bit(acyclic, edges[e].send))
        or_row_into(last_[1], closure_[1], e, edge_words_);
    }
  }

  template <typename Fn>
  static void for_each_bit(const Bits& bits, const Fn& fn) {
    for (size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }
  static void set_bit(Bits& m, size_t row, size_t words, size_t bit) {
    m[row * words + bit / 64] |= 1ULL << (bit % 64);
  }
  static bool test_bit(const Bits& m, size_t row, size_t words, size_t bit) {
    return (m[row * words + bit / 64] >> (bit % 64)) & 1ULL;
  }
  static bool row_bit(std::span<const std::uint64_t> row, cfg::NodeId bit) {
    return (row[static_cast<size_t>(bit) / 64] >>
            (static_cast<size_t>(bit) % 64)) &
           1ULL;
  }
  static void or_row(Bits& dst, size_t dst_row, const Bits& src,
                     size_t src_row, size_t words) {
    for (size_t w = 0; w < words; ++w)
      dst[dst_row * words + w] |= src[src_row * words + w];
  }
  static void or_row_into(Bits& dst, const Bits& src, size_t src_row,
                          size_t words) {
    for (size_t w = 0; w < words; ++w) dst[w] |= src[src_row * words + w];
  }

  const match::ExtendedCfg& ext_;
  size_t edge_count_ = 0;
  size_t edge_words_ = 0;
  /// [0] = full reachability, [1] = acyclic (back-edge-free).
  Bits closure_[2];
  // Per-source scratch (reused across sources).
  Bits last_[2];
};

struct MoveOutcome {
  bool moved = false;
  bool merged = false;
  bool hoisted = false;
  std::string description;
  /// The statement the checkpoint now sits immediately before.
  const mp::Stmt* before = nullptr;
  /// The sibling-arm checkpoint a merge deleted, kept alive until the
  /// caller has retired it.
  std::unique_ptr<mp::Stmt> removed;
};

/// Applies one backward structural move to the checkpoint `target`, whose
/// index is `target_index`. `index_of` gives the current index of any
/// checkpoint statement (-1 if unknown); arm merges use it to find the
/// same-index counterpart in the sibling arm.
MoveOutcome move_back_one(
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
    out.before = &prev;
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
    // Hoist out of the loop body; per-path checkpoint counts are
    // unaffected (each path traverses the body once in the enumeration).
    auto stmt = mp::remove_stmt(program, ckpt_uid);
    program.renumber();
    mp::insert_before(program, loop->uid(), std::move(stmt));
    out.hoisted = true;
    out.before = loop;
    out.description = "hoisted checkpoint out of loop over '" + loop->var + "'";
    return out;
  }

  auto* iff = mp::stmt_cast<mp::IfStmt>(enclosing);
  ACFC_CHECK_MSG(iff != nullptr, "enclosing statement is neither loop nor if");

  // Merge: the target and its same-index counterpart in the sibling arm
  // both retract to a single checkpoint before the branch. Balance is
  // preserved (each path through the if carried one member of S_i inside
  // the arms and now carries one before the branch instead).
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
  // `iff` stays valid (only a descendant was detached); its uid was
  // refreshed by the renumber above.
  mp::insert_before(program, iff->uid(), std::move(stmt));
  program.renumber();
  out.before = iff;

  if (counterpart != nullptr) {
    out.removed = mp::remove_stmt(program, counterpart->uid());
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
const Violation* pick(const CheckResult& check, RepairPolicy policy) {
  const Violation* chosen = nullptr;
  for (const auto& v : check.violations) {
    if (v.hard) return &v;
    if (policy == RepairPolicy::kStrict && chosen == nullptr) chosen = &v;
  }
  return chosen;
}

/// Books one move in `report`; false (logged as stuck) if the checkpoint
/// could not move.
bool record_move(RepairReport& report, const Violation& chosen,
                 const MoveOutcome& outcome) {
  if (!outcome.moved && !outcome.merged && !outcome.hoisted) {
    report.log.push_back("stuck: " + outcome.description);
    return false;
  }
  report.moves += outcome.moved ? 1 : 0;
  report.merges += outcome.merged ? 1 : 0;
  report.hoists += outcome.hoisted ? 1 : 0;
  std::string line = "S_" + std::to_string(chosen.index) + ": ckpt#" +
                     std::to_string(chosen.from_ckpt_id) + " ⇝ ckpt#" +
                     std::to_string(chosen.to_ckpt_id) +
                     (chosen.hard ? " [hard]" : " [loop-carried]") + " — " +
                     outcome.description;
  line.shrink_to_fit();  // reports are kept; appends left slack
  report.log.push_back(std::move(line));
  return true;
}

/// The part of Ĝ that Algorithm 3.2 cannot change, plus where each
/// checkpoint sits on it. Checkpoint nodes are pass-through (one
/// predecessor, one successor) and no back edge touches one, since back
/// edges run latch→header. Repair only moves, merges and hoists
/// checkpoints; no send or receive statement ever moves. So the
/// non-checkpoint nodes, their full and acyclic reachability, the message
/// edges and their hop closure stay what the first Ĝ says for the whole
/// repair.
/// What changes is only where the checkpoints are: each sits in a *slot*,
/// an edge u→v of the checkpoint-free CFG (u and v non-checkpoint nodes)
/// shared with the run of consecutive checkpoints it belongs to. A move
/// relinks one slot.
///
/// Condition 1 follows from slots alone. A Ĝ-path with a message edge
/// runs from checkpoint a (on u_a→v_a) to checkpoint b (on u_b→v_b) iff
/// one runs from v_a to u_b, and it avoids back edges iff such a v_a ⇒ u_b
/// path does. The index of b is 1 + the checkpoints on any acyclic
/// entry→u_b path + its rank in its run. Fresh builds number checkpoint
/// nodes in statement pre-order, so uid order is node order: it ranks
/// each run, it orders violations by (index, from node, to node), and
/// before any move member m is the m-th checkpoint node of `first`.
class Skeleton {
 public:
  /// `first` and `hops` (its hop closure) must outlive the skeleton; the
  /// program is the one `first` was built from, renumbered, and only
  /// apply()'s moves may change it.
  Skeleton(const match::ExtendedCfg& first, HopClosure& hops)
      : first_(first), graph_(first.graph()), hops_(hops) {
    const auto n = static_cast<size_t>(graph_.node_count());
    in_.assign(n, 0);
    row_of_.assign(n, -1);
    // Exact sizes up front: every Condition-1 check builds a skeleton, and
    // growing these would churn the allocator once per program.
    size_t edge_count = 0;
    size_t ckpt_count = 0;
    for (const cfg::NodeId u : graph_.rpo()) {
      if (graph_.node(u).kind == cfg::NodeKind::kCheckpoint)
        ++ckpt_count;
      else
        edge_count += graph_.succs(u).size();
    }
    edges_.reserve(edge_count);
    slot_of_.reserve(ckpt_count);
    for (const cfg::NodeId u : graph_.rpo()) {
      if (graph_.node(u).kind == cfg::NodeKind::kCheckpoint) continue;
      for (const cfg::NodeId s : graph_.succs(u)) {
        Edge edge;
        edge.from = u;
        edge.back = graph_.is_back_edge(u, s);
        cfg::NodeId v = s;
        while (graph_.node(v).kind == cfg::NodeKind::kCheckpoint) {
          slot_of_.emplace(graph_.node(v).stmt, edges_.size());
          ++edge.run;
          v = graph_.succs(v)[0];
        }
        edge.to = v;
        edges_.push_back(edge);
      }
    }
  }

  /// Condition 1 on the current slots, violations ordered by (index, from
  /// node, to node) of a fresh Ĝ. Violation::from/to name members
  /// (see member()), not CFG nodes. Throws index_checkpoints()'s
  /// diagnostic if the placement is unbalanced. Refinement uses `first`
  /// until a move, then a Ĝ of the current program built with `match`.
  CheckResult check(const CheckOptions& opts,
                    const match::MatchOptions& match) {
    if (!index_members()) {
      // Throws, with labels.
      if (moved())
        cfg::build_cfg(first_.program()).index_checkpoints();
      else
        graph_.index_checkpoints();
      ACFC_CHECK_MSG(false, "repair skeleton and a fresh CFG disagree on "
                            "checkpoint balance");
    }
    int max_index = 0;
    for (const Member& m : members_) max_index = std::max(max_index, m.index);
    collections_.resize(static_cast<size_t>(max_index));
    for (auto& collection : collections_) collection.clear();
    for (size_t m = 0; m < members_.size(); ++m)
      collections_[static_cast<size_t>(members_[m].index - 1)].push_back(
          static_cast<int>(m));

    CheckResult out;
    for (int i = 1; i <= max_index; ++i) {
      const auto& collection = collections_[static_cast<size_t>(i - 1)];
      for (const int a : collection) {
        const auto [full, acyclic] = rows(edge_of(a).to);
        for (const int b : collection) {
          const auto u = static_cast<size_t>(edge_of(b).from);
          if (((full[u / 64] >> (u % 64)) & 1ULL) == 0) continue;
          Violation v;
          v.index = i;
          v.from = a;
          v.to = b;
          v.from_ckpt_id = ckpt_id(a);
          v.to_ckpt_id = ckpt_id(b);
          v.hard = ((acyclic[u / 64] >> (u % 64)) & 1ULL) != 0;
          out.violations.push_back(v);
        }
      }
    }
    if (opts.attribute_refinement && !out.violations.empty())
      refine(opts, match, out);
    return out;
  }

  /// A check() made before any move, with members renamed to the
  /// checkpoint nodes of `first`.
  CheckResult on_nodes(CheckResult check) const {
    ACFC_CHECK(!moved());
    std::vector<cfg::NodeId> nodes;
    nodes.reserve(members_.size());
    for (cfg::NodeId id = 0; id < graph_.node_count(); ++id) {
      const cfg::Node& node = graph_.node(id);
      if (node.kind != cfg::NodeKind::kCheckpoint) continue;
      ACFC_CHECK_MSG(nodes.size() < members_.size() &&
                         members_[nodes.size()].stmt == node.stmt,
                     "checkpoint uids out of statement order; call "
                     "Program::renumber()");
      nodes.push_back(id);
    }
    for (Violation& v : check.violations) {
      v.from = nodes[static_cast<size_t>(v.from)];
      v.to = nodes[static_cast<size_t>(v.to)];
    }
    return check;
  }

  /// The checkpoint statement a violation of the last check() names.
  const mp::Stmt* member(cfg::NodeId id) const {
    return members_[static_cast<size_t>(id)].stmt;
  }

  /// The index of a checkpoint statement as of the last check(); -1 if
  /// unknown.
  int index_of(const mp::Stmt& ckpt) const {
    for (const Member& m : members_)
      if (m.stmt == &ckpt) return m.index;
    return -1;
  }

  /// Relinks the slots after move_back_one moved `target`: it now shares
  /// the slot of the statement it sits before — that checkpoint's run, or
  /// the forward edge into that statement's first node.
  void apply(const mp::Stmt& target, const MoveOutcome& move) {
    if (!entry_of_) index_entries();
    --edges_[slot_of_.at(&target)].run;
    if (move.removed) {
      --edges_[slot_of_.at(move.removed.get())].run;
      slot_of_.erase(move.removed.get());
    }
    const size_t e = move.before->kind() == mp::StmtKind::kCheckpoint
                         ? slot_of_.at(move.before)
                         : entry_of_->at(move.before);
    slot_of_[&target] = e;
    ++edges_[e].run;
  }

  /// Whether apply() has run; it builds entry_of_ on first use.
  bool moved() const { return entry_of_.has_value(); }

 private:
  /// An edge u→v of the checkpoint-free CFG and the length of the run of
  /// checkpoints on it.
  struct Edge {
    cfg::NodeId from = cfg::kNoNode;
    cfg::NodeId to = cfg::kNoNode;
    bool back = false;
    int run = 0;
  };
  struct Member {
    const mp::Stmt* stmt = nullptr;
    size_t edge = 0;
    int index = 0;
  };

  /// Maps each non-checkpoint statement to the forward edge into its first
  /// node. Non-checkpoint statements never move, so the map stays valid.
  void index_entries() {
    entry_of_.emplace();
    for (size_t e = 0; e < edges_.size(); ++e) {
      const cfg::Node& head = graph_.node(edges_[e].to);
      if (!edges_[e].back && head.stmt != nullptr &&
          head.kind != cfg::NodeKind::kLoopLatch)
        entry_of_->emplace(head.stmt, e);
    }
  }

  /// Recomputes members_ in uid order with their indexes; false if two
  /// acyclic entry paths to some node carry different checkpoint counts —
  /// the balance precondition of index_checkpoints. in_ gets each node's
  /// count; edges_ is grouped by source in reverse postorder, a
  /// topological order of the forward edges.
  bool index_members() {
    constexpr int kUnset = -1;
    std::fill(in_.begin(), in_.end(), kUnset);
    in_[static_cast<size_t>(graph_.entry())] = 0;
    for (const Edge& edge : edges_) {
      if (edge.back) continue;
      const int out = in_[static_cast<size_t>(edge.from)] + edge.run;
      int& slot = in_[static_cast<size_t>(edge.to)];
      if (slot == kUnset) {
        slot = out;
      } else if (slot != out) {
        return false;
      }
    }
    members_.clear();
    for (const auto& [stmt, e] : slot_of_) members_.push_back({stmt, e, 0});
    std::sort(members_.begin(), members_.end(),
              [](const Member& a, const Member& b) {
                return a.stmt->uid() < b.stmt->uid();
              });
    ranked_.assign(edges_.size(), 0);
    for (Member& m : members_)
      m.index = in_[static_cast<size_t>(edges_[m.edge].from)] +
                ++ranked_[m.edge];
    return true;
  }

  /// Message reachability rows (full, acyclic) of node x, built once.
  std::pair<const std::uint64_t*, const std::uint64_t*> rows(cfg::NodeId x) {
    const size_t words = graph_.reach_words();
    int& row = row_of_[static_cast<size_t>(x)];
    if (row < 0) {
      row = static_cast<int>(rows_.size() / (2 * words));
      rows_.resize(rows_.size() + 2 * words);
      std::uint64_t* base =
          rows_.data() + static_cast<size_t>(row) * 2 * words;
      hops_.reach_nodes_from(x, base, base + words);
    }
    const std::uint64_t* base =
        rows_.data() + static_cast<size_t>(row) * 2 * words;
    return {base, base + words};
  }

  /// Attribute refinement needs the checkpoint nodes themselves (their
  /// attributes and reachability): `first` has them until a move, after
  /// which this round's Ĝ is built.
  void refine(const CheckOptions& opts, const match::MatchOptions& match,
              CheckResult& out) const {
    std::optional<match::ExtendedCfg> rebuilt;
    if (moved())
      rebuilt.emplace(match::build_extended_cfg(first_.program(), match));
    const match::ExtendedCfg& ext = rebuilt ? *rebuilt : first_;
    const auto node = [&](cfg::NodeId m) {
      return *ext.graph().node_for_stmt(member(m)->uid());
    };
    std::vector<Violation> kept;
    for (Violation v : out.violations) {
      const match::PathClass pc = ext.refine_classification(
          node(v.from), node(v.to), match::PathClass{true, v.hard},
          opts.refine);
      if (!pc.has_message_path) continue;
      v.hard = pc.message_path_without_back_edge;
      kept.push_back(v);
    }
    out.violations = std::move(kept);
  }

  const Edge& edge_of(int m) const {
    return edges_[members_[static_cast<size_t>(m)].edge];
  }
  int ckpt_id(int m) const {
    return static_cast<const mp::CheckpointStmt*>(
               members_[static_cast<size_t>(m)].stmt)
        ->ckpt_id;
  }

  const match::ExtendedCfg& first_;
  const cfg::Cfg& graph_;
  HopClosure& hops_;
  std::vector<Edge> edges_;
  /// Checkpoint statement → the edge it sits on.
  std::unordered_map<const mp::Stmt*, size_t> slot_of_;
  /// Non-checkpoint statement → the forward edge into its first node;
  /// built by the first apply().
  std::optional<std::unordered_map<const mp::Stmt*, size_t>> entry_of_;
  std::vector<int> in_;
  // The last index_members(): members in uid order, and per-edge counts.
  std::vector<Member> members_;
  std::vector<int> ranked_;
  // check()'s S_i as member ids.
  std::vector<std::vector<int>> collections_;
  // Memoized rows(): node → row number in rows_, -1 until asked.
  std::vector<int> row_of_;
  std::vector<std::uint64_t> rows_;
};

}  // namespace

CheckResult check_condition1(const match::ExtendedCfg& ext,
                             const CheckOptions& opts) {
  HopClosure hops(ext);
  Skeleton skeleton(ext, hops);
  // Nothing moves, so refinement never rebuilds and needs no match options.
  return skeleton.on_nodes(skeleton.check(opts, {}));
}

namespace {

/// Condition 1 on a fresh Ĝ of the repaired program, which must agree
/// violation for violation with the skeleton's verdict on it.
CheckResult fresh_check(const mp::Program& program, const RepairOptions& opts,
                        const CheckResult& skeleton_view) {
  CheckResult fresh = check_condition1(
      match::build_extended_cfg(program, opts.match), opts.check);
  const auto key = [](const Violation& v) {
    return std::tuple(v.index, v.from_ckpt_id, v.to_ckpt_id, v.hard);
  };
  ACFC_CHECK_MSG(std::equal(fresh.violations.begin(), fresh.violations.end(),
                            skeleton_view.violations.begin(),
                            skeleton_view.violations.end(),
                            [&](const Violation& a, const Violation& b) {
                              return key(a) == key(b);
                            }),
                 "repair skeleton diverged from a fresh extended CFG");
  return fresh;
}

/// The fixpoint: one Ĝ per repair, every round answered by its skeleton.
/// Returns the skeleton's verdict on the final program, for the caller to
/// confirm on a fresh Ĝ — or nullopt when no move was made and
/// report.final_check, named by the first Ĝ's nodes, is already final.
std::optional<CheckResult> repair_on_skeleton(mp::Program& program,
                                              const RepairOptions& opts,
                                              RepairReport& report) {
  const match::ExtendedCfg first =
      match::build_extended_cfg(program, opts.match);
  HopClosure hops(first);
  Skeleton skeleton(first, hops);
  CheckResult check = skeleton.check(opts.check, opts.match);
  report.initial_hard = check.hard_count();
  report.initial_total = static_cast<int>(check.violations.size());
  report.success = pick(check, opts.policy) == nullptr;

  const auto index_of = [&skeleton](const mp::Stmt& ckpt) {
    return skeleton.index_of(ckpt);
  };
  for (int moves = 0; !report.success;) {
    if (moves >= opts.max_iterations) {
      report.log.push_back("max_iterations exceeded");
      break;
    }
    const Violation& chosen = *pick(check, opts.policy);
    const mp::Stmt& target = *skeleton.member(chosen.to);
    const MoveOutcome outcome =
        move_back_one(program, target, chosen.index, index_of);
    if (!record_move(report, chosen, outcome)) break;
    skeleton.apply(target, outcome);
    program.renumber();  // moves create no checkpoint, so ids stand
    check = skeleton.check(opts.check, opts.match);
    // The verdict after the last allowed move is reported, not acted on.
    report.success =
        ++moves < opts.max_iterations && pick(check, opts.policy) == nullptr;
  }
  if (skeleton.moved()) return check;
  report.final_check = skeleton.on_nodes(std::move(check));
  return std::nullopt;
}

}  // namespace

RepairReport repair_placement(mp::Program& program, const RepairOptions& opts) {
  program.renumber();
  program.assign_checkpoint_ids();
  RepairReport report;
  // The confirming Ĝ is built after the skeleton and the first Ĝ it
  // borrows are gone, so the two never coexist.
  if (const auto last = repair_on_skeleton(program, opts, report))
    report.final_check = fresh_check(program, opts, *last);
  return report;
}

RepairReport analyze_and_place(mp::Program& program,
                               const InsertOptions& insert_opts,
                               const RepairOptions& repair_opts) {
  if (mp::checkpoint_count(program) == 0)
    insert_checkpoints(program, insert_opts);
  equalize_checkpoints(program);
  return repair_placement(program, repair_opts);
}

}  // namespace acfc::place

// The immutable per-program half of a simulation: everything that is a
// pure function of the program, built once.
//
// A Model holds
//  * the static checkpoint index (ckpt_id → S_i), from the program's CFG
//    structure (no reachability matrices);
//  * the code table: every expression and predicate the VM evaluates (send
//    destinations, receive sources, collective roots, loop bounds, branch
//    conditions) compiled into one mp/code.h table. A loop variable is
//    bound to the static stack depth of its loop's body frame, so
//    evaluation is array indexing with no name lookups;
//  * the slot layout: each rank-pure root (no loop variables, no irregular
//    values) gets a dense slot id; an engine keeps one value per (rank,
//    slot) and fills it on first use.
// Everything that changes during a run — VM snapshots, the invariant value
// table, channels, the event queue, the trace — is per-run Data owned by
// one Engine. A Model is never mutated after construction; every Engine
// built from it shares it read-only, also across threads, so a search or
// batch that runs thousands of short engines compiles the program once.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <vector>

#include "mp/code.h"
#include "mp/stmt.h"

namespace acfc::sim {

/// One compiled expression or predicate of a statement.
struct Root {
  int node = -1;  ///< index of the root node in Model::code()
  int slot = -1;  ///< invariant slot id; -1 when the value can vary
};

/// The compiled roots of one statement, by Stmt::uid(): send dest, recv
/// src, bcast/reduce root, if cond in roots[0]; loop lo and hi in roots[0]
/// and roots[1]. Unused roots stay {-1, -1}.
struct StmtCode {
  Root roots[2];
};

class Model {
 public:
  /// `program` must outlive the model and stay unmutated. Throws
  /// util::ProgramError when the statement uids are not the preorder range
  /// [0, stmt_count()) — the program was edited without renumber().
  explicit Model(const mp::Program& program);

  const mp::Program& program() const { return *program_; }

  /// S_i of the checkpoint statement with id `ckpt_id`; -1 when unknown
  /// (forced checkpoints carry id -1, and an unbalanced placement leaves
  /// every index unknown).
  int static_index(int ckpt_id) const {
    if (ckpt_id < 0 ||
        static_cast<std::size_t>(ckpt_id) >= static_index_.size())
      return -1;
    return static_index_[static_cast<std::size_t>(ckpt_id)];
  }

  const mp::CodeNode* code() const { return code_.data(); }
  std::size_t code_size() const { return code_.size(); }
  /// Roots of the statement with this uid (in range by construction).
  const StmtCode& stmt_code(int uid) const {
    return stmts_[static_cast<std::size_t>(uid)];
  }
  /// Number of rank-pure roots: the width of an engine's invariant table.
  int slot_count() const { return slot_count_; }

 private:
  const mp::Program* program_;
  /// Indexed by ckpt_id directly: the parser assigns dense checkpoint ids.
  std::vector<int> static_index_;
  std::pmr::vector<mp::CodeNode> code_;
  std::vector<StmtCode> stmts_;
  int slot_count_ = 0;
};

}  // namespace acfc::sim

#include "sim/model.h"

#include <string>

#include "cfg/cfg.h"
#include "util/error.h"

namespace acfc::sim {

namespace {

/// The expressions and the condition of `stmt` the VM evaluates, in root
/// order.
struct Operands {
  const mp::Expr* exprs[2] = {nullptr, nullptr};
  const mp::Pred* cond = nullptr;
};

Operands operands_of(const mp::Stmt& stmt) {
  Operands out;
  switch (stmt.kind()) {
    case mp::StmtKind::kSend:
      out.exprs[0] = &static_cast<const mp::SendStmt&>(stmt).dest;
      break;
    case mp::StmtKind::kRecv: {
      const auto& c = static_cast<const mp::RecvStmt&>(stmt);
      if (!c.any_source) out.exprs[0] = &c.src;
      break;
    }
    case mp::StmtKind::kBcast:
      out.exprs[0] = &static_cast<const mp::BcastStmt&>(stmt).root;
      break;
    case mp::StmtKind::kReduce:
      out.exprs[0] = &static_cast<const mp::ReduceStmt&>(stmt).root;
      break;
    case mp::StmtKind::kLoop: {
      const auto& c = static_cast<const mp::LoopStmt&>(stmt);
      out.exprs[0] = &c.lo;
      out.exprs[1] = &c.hi;
      break;
    }
    case mp::StmtKind::kIf:
      out.cond = &static_cast<const mp::IfStmt&>(stmt).cond;
      break;
    default:
      break;
  }
  return out;
}

/// Compiles the roots of every statement, binding each loop variable to
/// the stack depth of its loop's body frame.
class Compiler {
 public:
  Compiler(std::pmr::vector<mp::CodeNode>& code, std::vector<StmtCode>& stmts,
           int& slot_count)
      : compiler_(code), stmts_(stmts), slot_count_(slot_count) {}

  void block(const mp::Block& block, int depth) {
    for (const auto& stmt : block.stmts) statement(*stmt, depth);
  }

 private:
  /// `depth` is the stack index of the frame running `stmt`'s block.
  void statement(const mp::Stmt& stmt, int depth) {
    const Operands ops = operands_of(stmt);
    StmtCode code;
    for (int i = 0; i < 2; ++i)
      if (ops.exprs[i] != nullptr)
        code.roots[i] = root(compiler_.expr(*ops.exprs[i]),
                             ops.exprs[i]->loop_invariant());
    if (ops.cond != nullptr)
      code.roots[0] =
          root(compiler_.pred(*ops.cond), ops.cond->loop_invariant());
    stmts_[static_cast<std::size_t>(stmt.uid())] = code;

    if (stmt.kind() == mp::StmtKind::kIf) {
      const auto& c = static_cast<const mp::IfStmt&>(stmt);
      block(c.then_body, depth + 1);
      block(c.else_body, depth + 1);
    } else if (stmt.kind() == mp::StmtKind::kLoop) {
      const auto& c = static_cast<const mp::LoopStmt&>(stmt);
      compiler_.bind(c.var, depth + 1);
      block(c.body, depth + 1);
      compiler_.unbind();
    }
  }

  Root root(int node, bool invariant) {
    return Root{node, invariant ? slot_count_++ : -1};
  }

  mp::CodeCompiler compiler_;
  std::vector<StmtCode>& stmts_;
  int& slot_count_;
};

}  // namespace

Model::Model(const mp::Program& program) : program_(&program) {
  // The code table is keyed by uid: insist on the preorder numbering
  // before indexing anything by it.
  int position = 0;
  mp::for_each_stmt(program, [&](const mp::Stmt& stmt) {
    if (stmt.uid() != position)
      throw util::ProgramError(
          "stale statement uids: statement " + std::to_string(position) +
          " in preorder has uid " + std::to_string(stmt.uid()) +
          "; call Program::renumber() after editing a program");
    ++position;
  });
  stmts_.resize(static_cast<std::size_t>(position));
  Compiler(code_, stmts_, slot_count_).block(program.body, 0);
  code_.shrink_to_fit();

  try {
    static_index_ = cfg::checkpoint_index_by_id(program);
  } catch (const util::ProgramError&) {
    // Unbalanced placement: static indices stay unknown (-1); straight-cut
    // analyses are not meaningful, but simulation still runs.
  }
}

}  // namespace acfc::sim

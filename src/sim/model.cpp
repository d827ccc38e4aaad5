#include "sim/model.h"

#include <string>
#include <utility>

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

bool is_binary(mp::ExprKind kind) {
  return kind == mp::ExprKind::kAdd || kind == mp::ExprKind::kSub ||
         kind == mp::ExprKind::kMul || kind == mp::ExprKind::kDiv ||
         kind == mp::ExprKind::kMod;
}

/// Number of code nodes the compiler emits for `e` / `p`.
std::size_t node_count(const mp::Expr& e) {
  return is_binary(e.kind()) ? 1 + node_count(e.lhs()) + node_count(e.rhs())
                             : 1;
}

std::size_t node_count(const mp::Pred& p) {
  switch (p.kind()) {
    case mp::PredKind::kCmp:
      return 1 + node_count(p.cmp_lhs()) + node_count(p.cmp_rhs());
    case mp::PredKind::kNot:
      return 1 + node_count(p.child());
    case mp::PredKind::kAnd:
    case mp::PredKind::kOr:
      return 1 + node_count(p.lhs()) + node_count(p.rhs());
    default:
      return 1;
  }
}

/// Emits nodes in postorder (children before their parent), so a root is
/// the last node of its subtree.
class Compiler {
 public:
  Compiler(std::vector<CodeNode>& code, std::vector<StmtCode>& stmts,
           int& slot_count)
      : code_(code), stmts_(stmts), slot_count_(slot_count) {}

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
        code.roots[i] = root(expr(*ops.exprs[i]),
                             ops.exprs[i]->loop_invariant());
    if (ops.cond != nullptr)
      code.roots[0] = root(pred(*ops.cond), ops.cond->loop_invariant());
    stmts_[static_cast<std::size_t>(stmt.uid())] = code;

    if (stmt.kind() == mp::StmtKind::kIf) {
      const auto& c = static_cast<const mp::IfStmt&>(stmt);
      block(c.then_body, depth + 1);
      block(c.else_body, depth + 1);
    } else if (stmt.kind() == mp::StmtKind::kLoop) {
      const auto& c = static_cast<const mp::LoopStmt&>(stmt);
      scope_.emplace_back(&c.var, depth + 1);
      block(c.body, depth + 1);
      scope_.pop_back();
    }
  }

  Root root(int node, bool invariant) {
    return Root{node, invariant ? slot_count_++ : -1};
  }

  int emit(const CodeNode& node) {
    code_.push_back(node);
    return static_cast<int>(code_.size()) - 1;
  }

  int expr(const mp::Expr& e) {
    CodeNode n;
    switch (e.kind()) {
      case mp::ExprKind::kConst:
        n.op = Op::kConst;
        n.value = e.const_value();
        break;
      case mp::ExprKind::kRank:
        n.op = Op::kRank;
        break;
      case mp::ExprKind::kNProcs:
        n.op = Op::kNProcs;
        break;
      case mp::ExprKind::kLoopVar:
        // Innermost binding wins; an unbound name fails when evaluated.
        n.op = Op::kUnknown;
        for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
          if (*it->first == e.var_name()) {
            n.op = Op::kLoopVar;
            n.a = it->second;
            break;
          }
        break;
      case mp::ExprKind::kIrregular:
        n.op = Op::kIrregular;
        n.a = e.irregular_id();
        break;
      case mp::ExprKind::kAdd:
      case mp::ExprKind::kSub:
      case mp::ExprKind::kMul:
      case mp::ExprKind::kDiv:
      case mp::ExprKind::kMod:
        n.op = e.kind() == mp::ExprKind::kAdd   ? Op::kAdd
               : e.kind() == mp::ExprKind::kSub ? Op::kSub
               : e.kind() == mp::ExprKind::kMul ? Op::kMul
               : e.kind() == mp::ExprKind::kDiv ? Op::kDiv
                                                : Op::kMod;
        n.a = expr(e.lhs());
        n.b = expr(e.rhs());
        break;
    }
    return emit(n);
  }

  int pred(const mp::Pred& p) {
    CodeNode n;
    switch (p.kind()) {
      case mp::PredKind::kTrue:
        n.op = Op::kTrue;
        break;
      case mp::PredKind::kCmp:
        switch (p.cmp_op()) {
          case mp::CmpOp::kEq: n.op = Op::kEq; break;
          case mp::CmpOp::kNe: n.op = Op::kNe; break;
          case mp::CmpOp::kLt: n.op = Op::kLt; break;
          case mp::CmpOp::kLe: n.op = Op::kLe; break;
          case mp::CmpOp::kGt: n.op = Op::kGt; break;
          case mp::CmpOp::kGe: n.op = Op::kGe; break;
        }
        n.a = expr(p.cmp_lhs());
        n.b = expr(p.cmp_rhs());
        break;
      case mp::PredKind::kNot:
        n.op = Op::kNot;
        n.a = pred(p.child());
        break;
      case mp::PredKind::kAnd:
      case mp::PredKind::kOr:
        n.op = p.kind() == mp::PredKind::kAnd ? Op::kAnd : Op::kOr;
        n.a = pred(p.lhs());
        n.b = pred(p.rhs());
        break;
      case mp::PredKind::kIrregular:
        n.op = Op::kIrregularPred;
        n.a = p.irregular_id();
        break;
    }
    return emit(n);
  }

  std::vector<CodeNode>& code_;
  std::vector<StmtCode>& stmts_;
  int& slot_count_;
  /// Enclosing loop variables, outermost first, with their frame depths.
  std::vector<std::pair<const std::string*, int>> scope_;
};

}  // namespace

Model::Model(const mp::Program& program) : program_(&program) {
  // The code table is keyed by uid: insist on the preorder numbering
  // before indexing anything by it.
  int position = 0;
  std::size_t nodes = 0;
  mp::for_each_stmt(program, [&](const mp::Stmt& stmt) {
    if (stmt.uid() != position)
      throw util::ProgramError(
          "stale statement uids: statement " + std::to_string(position) +
          " in preorder has uid " + std::to_string(stmt.uid()) +
          "; call Program::renumber() after editing a program");
    ++position;
    const Operands ops = operands_of(stmt);
    for (const mp::Expr* e : ops.exprs)
      if (e != nullptr) nodes += node_count(*e);
    if (ops.cond != nullptr) nodes += node_count(*ops.cond);
  });
  code_.reserve(nodes);
  stmts_.resize(static_cast<std::size_t>(position));
  Compiler(code_, stmts_, slot_count_).block(program.body, 0);

  try {
    static_index_ = cfg::checkpoint_index_by_id(program);
  } catch (const util::ProgramError&) {
    // Unbalanced placement: static indices stay unknown (-1); straight-cut
    // analyses are not meaningful, but simulation still runs.
  }
}

}  // namespace acfc::sim

#include "mp/code.h"

namespace acfc::mp {

int CodeCompiler::resolve(const std::string& name) const {
  for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
    if (*it->first == name) return it->second;
  return -1;
}

int CodeCompiler::emit(const CodeNode& node) {
  code_.push_back(node);
  return static_cast<int>(code_.size()) - 1;
}

int CodeCompiler::expr(const Expr& e) {
  CodeNode n;
  switch (e.kind()) {
    case ExprKind::kConst:
      n.value = e.const_value();
      break;
    case ExprKind::kRank:
      n.op = Op::kRank;
      break;
    case ExprKind::kNProcs:
      n.op = Op::kNProcs;
      break;
    case ExprKind::kLoopVar:
      n.a = resolve(e.var_name());
      n.op = n.a >= 0 ? Op::kLoopVar : Op::kUnknown;
      break;
    case ExprKind::kIrregular:
      n.op = Op::kIrregular;
      n.a = e.irregular_id();
      break;
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kDiv:
    case ExprKind::kMod:
      n.op = e.kind() == ExprKind::kAdd   ? Op::kAdd
             : e.kind() == ExprKind::kSub ? Op::kSub
             : e.kind() == ExprKind::kMul ? Op::kMul
             : e.kind() == ExprKind::kDiv ? Op::kDiv
                                          : Op::kMod;
      n.a = expr(e.lhs());
      n.b = expr(e.rhs());
      break;
  }
  return emit(n);
}

int CodeCompiler::pred(const Pred& p) {
  CodeNode n;
  switch (p.kind()) {
    case PredKind::kTrue:
      n.op = Op::kTrue;
      break;
    case PredKind::kCmp:
      switch (p.cmp_op()) {
        case CmpOp::kEq: n.op = Op::kEq; break;
        case CmpOp::kNe: n.op = Op::kNe; break;
        case CmpOp::kLt: n.op = Op::kLt; break;
        case CmpOp::kLe: n.op = Op::kLe; break;
        case CmpOp::kGt: n.op = Op::kGt; break;
        case CmpOp::kGe: n.op = Op::kGe; break;
      }
      n.a = expr(p.cmp_lhs());
      n.b = expr(p.cmp_rhs());
      break;
    case PredKind::kNot:
      n.op = Op::kNot;
      n.a = pred(p.child());
      break;
    case PredKind::kAnd:
    case PredKind::kOr:
      n.op = p.kind() == PredKind::kAnd ? Op::kAnd : Op::kOr;
      n.a = pred(p.lhs());
      n.b = pred(p.rhs());
      break;
    case PredKind::kIrregular:
      n.op = Op::kIrregularPred;
      n.a = p.irregular_id();
      break;
  }
  return emit(n);
}

}  // namespace acfc::mp

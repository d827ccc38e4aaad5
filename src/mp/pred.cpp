#include "mp/pred.h"

#include "util/error.h"

namespace acfc::mp {

// Dependence facts, precomputed bottom-up at construction (mirrors the
// flag scheme on Expr::Node) so the per-node queries are O(1).
namespace {
enum : std::uint8_t {
  kFlagRank = 1,
  kFlagLoopVar = 2,
  kFlagIrregular = 4,
};

std::uint8_t expr_flags(const Expr& e) {
  return static_cast<std::uint8_t>((e.depends_on_rank() ? kFlagRank : 0) |
                                   (e.has_loop_var() ? kFlagLoopVar : 0) |
                                   (e.has_irregular() ? kFlagIrregular : 0));
}
}  // namespace

struct Pred::Node {
  PredKind kind = PredKind::kTrue;
  std::uint8_t flags = 0;  // kFlag* union over the subtree
  CmpOp op = CmpOp::kEq;
  Expr e_lhs;
  Expr e_rhs;
  int irregular_id = 0;
  std::shared_ptr<const Node> p_lhs;
  std::shared_ptr<const Node> p_rhs;
};

Pred::Pred() : Pred(always()) {}
Pred::Pred(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

Pred Pred::always() {
  auto n = std::make_shared<Node>();
  n->kind = PredKind::kTrue;
  return Pred(std::move(n));
}

Pred Pred::cmp(CmpOp op, Expr lhs, Expr rhs) {
  auto n = std::make_shared<Node>();
  n->kind = PredKind::kCmp;
  n->op = op;
  n->e_lhs = std::move(lhs);
  n->e_rhs = std::move(rhs);
  n->flags = expr_flags(n->e_lhs) | expr_flags(n->e_rhs);
  return Pred(std::move(n));
}

Pred Pred::irregular(int id) {
  auto n = std::make_shared<Node>();
  n->kind = PredKind::kIrregular;
  n->flags = kFlagIrregular;
  n->irregular_id = id;
  return Pred(std::move(n));
}

Pred Pred::operator!() const {
  auto n = std::make_shared<Node>();
  n->kind = PredKind::kNot;
  n->flags = node_->flags;
  n->p_lhs = node_;
  return Pred(std::move(n));
}

Pred Pred::operator&&(const Pred& rhs) const {
  auto n = std::make_shared<Node>();
  n->kind = PredKind::kAnd;
  n->flags = node_->flags | rhs.node_->flags;
  n->p_lhs = node_;
  n->p_rhs = rhs.node_;
  return Pred(std::move(n));
}

Pred Pred::operator||(const Pred& rhs) const {
  auto n = std::make_shared<Node>();
  n->kind = PredKind::kOr;
  n->flags = node_->flags | rhs.node_->flags;
  n->p_lhs = node_;
  n->p_rhs = rhs.node_;
  return Pred(std::move(n));
}

PredKind Pred::kind() const { return node_->kind; }

CmpOp Pred::cmp_op() const {
  ACFC_CHECK(node_->kind == PredKind::kCmp);
  return node_->op;
}

Expr Pred::cmp_lhs() const {
  ACFC_CHECK(node_->kind == PredKind::kCmp);
  return node_->e_lhs;
}

Expr Pred::cmp_rhs() const {
  ACFC_CHECK(node_->kind == PredKind::kCmp);
  return node_->e_rhs;
}

int Pred::irregular_id() const {
  ACFC_CHECK(node_->kind == PredKind::kIrregular);
  return node_->irregular_id;
}

Pred Pred::child() const {
  ACFC_CHECK(node_->kind == PredKind::kNot);
  return Pred(node_->p_lhs);
}

Pred Pred::lhs() const {
  ACFC_CHECK(node_->kind == PredKind::kAnd || node_->kind == PredKind::kOr);
  return Pred(node_->p_lhs);
}

Pred Pred::rhs() const {
  ACFC_CHECK(node_->kind == PredKind::kAnd || node_->kind == PredKind::kOr);
  return Pred(node_->p_rhs);
}

bool Pred::depends_on_rank() const { return node_->flags & kFlagRank; }

bool Pred::has_irregular() const { return node_->flags & kFlagIrregular; }

bool Pred::has_loop_var() const { return node_->flags & kFlagLoopVar; }

bool Pred::loop_invariant() const {
  return (node_->flags & (kFlagLoopVar | kFlagIrregular)) == 0;
}

std::optional<bool> Pred::eval(const EvalCtx& ctx) const {
  switch (node_->kind) {
    case PredKind::kTrue:
      return true;
    case PredKind::kIrregular: {
      if (ctx.resolver == nullptr || !*ctx.resolver) return std::nullopt;
      IrregularRequest req;
      req.irregular_id = node_->irregular_id;
      req.rank = ctx.rank;
      req.nprocs = ctx.nprocs;
      return (*ctx.resolver)(req) != 0;
    }
    case PredKind::kCmp: {
      auto a = node_->e_lhs.eval(ctx);
      auto b = node_->e_rhs.eval(ctx);
      if (!a || !b) return std::nullopt;
      switch (node_->op) {
        case CmpOp::kEq:
          return *a == *b;
        case CmpOp::kNe:
          return *a != *b;
        case CmpOp::kLt:
          return *a < *b;
        case CmpOp::kLe:
          return *a <= *b;
        case CmpOp::kGt:
          return *a > *b;
        case CmpOp::kGe:
          return *a >= *b;
      }
      return std::nullopt;
    }
    case PredKind::kNot: {
      auto v = Pred(node_->p_lhs).eval(ctx);
      if (!v) return std::nullopt;
      return !*v;
    }
    case PredKind::kAnd: {
      auto a = Pred(node_->p_lhs).eval(ctx);
      // Short-circuit on a definite false even if the other side is unknown.
      if (a && !*a) return false;
      auto b = Pred(node_->p_rhs).eval(ctx);
      if (b && !*b) return false;
      if (!a || !b) return std::nullopt;
      return true;
    }
    case PredKind::kOr: {
      auto a = Pred(node_->p_lhs).eval(ctx);
      if (a && *a) return true;
      auto b = Pred(node_->p_rhs).eval(ctx);
      if (b && *b) return true;
      if (!a || !b) return std::nullopt;
      return false;
    }
  }
  return std::nullopt;
}

namespace {
const char* cmp_token(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return " == ";
    case CmpOp::kNe:
      return " != ";
    case CmpOp::kLt:
      return " < ";
    case CmpOp::kLe:
      return " <= ";
    case CmpOp::kGt:
      return " > ";
    case CmpOp::kGe:
      return " >= ";
  }
  return "?";
}
}  // namespace

std::string Pred::str() const {
  std::string out;
  out.reserve(48);
  append_str(out);
  return out;
}

void Pred::append_str(std::string& out) const {
  switch (node_->kind) {
    case PredKind::kTrue:
      out += "true";
      return;
    case PredKind::kIrregular:
      out += "irregular(";
      out += std::to_string(node_->irregular_id);
      out += ')';
      return;
    case PredKind::kCmp:
      node_->e_lhs.append_str(out);
      out += cmp_token(node_->op);
      node_->e_rhs.append_str(out);
      return;
    case PredKind::kNot:
      out += "!(";
      Pred(node_->p_lhs).append_str(out);
      out += ')';
      return;
    case PredKind::kAnd:
      out += '(';
      Pred(node_->p_lhs).append_str(out);
      out += " && ";
      Pred(node_->p_rhs).append_str(out);
      out += ')';
      return;
    case PredKind::kOr:
      out += '(';
      Pred(node_->p_lhs).append_str(out);
      out += " || ";
      Pred(node_->p_rhs).append_str(out);
      out += ')';
      return;
  }
  out += '?';
}

bool Pred::equals(const Pred& other) const {
  if (node_ == other.node_) return true;
  if (node_->kind != other.node_->kind) return false;
  switch (node_->kind) {
    case PredKind::kTrue:
      return true;
    case PredKind::kIrregular:
      return node_->irregular_id == other.node_->irregular_id;
    case PredKind::kCmp:
      return node_->op == other.node_->op &&
             node_->e_lhs.equals(other.node_->e_lhs) &&
             node_->e_rhs.equals(other.node_->e_rhs);
    case PredKind::kNot:
      return Pred(node_->p_lhs).equals(Pred(other.node_->p_lhs));
    case PredKind::kAnd:
    case PredKind::kOr:
      return Pred(node_->p_lhs).equals(Pred(other.node_->p_lhs)) &&
             Pred(node_->p_rhs).equals(Pred(other.node_->p_rhs));
  }
  return false;
}

}  // namespace acfc::mp

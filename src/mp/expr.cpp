#include "mp/expr.h"

#include "util/error.h"

namespace acfc::mp {

std::optional<std::int64_t> EvalCtx::lookup(const std::string& var) const {
  // Innermost binding wins: scan from the back.
  for (auto it = env.rbegin(); it != env.rend(); ++it)
    if (it->first == var) return it->second;
  return std::nullopt;
}

// Dependence facts, precomputed bottom-up at construction so the per-node
// queries cost one byte-test instead of a tree walk.
namespace {
enum : std::uint8_t {
  kFlagRank = 1,       // reads `rank` somewhere
  kFlagLoopVar = 2,    // reads a loop variable somewhere
  kFlagIrregular = 4,  // contains a data-dependent value somewhere
};
}  // namespace

struct Expr::Node {
  ExprKind kind = ExprKind::kConst;
  std::uint8_t flags = 0;           // kFlag* union over the subtree
  std::int64_t value = 0;           // kConst
  std::string name;                 // kLoopVar
  int irregular_id = 0;             // kIrregular
  std::shared_ptr<const Node> lhs;  // binary kinds
  std::shared_ptr<const Node> rhs;
};

Expr::Expr() : Expr(constant(0)) {}
Expr::Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

Expr Expr::constant(std::int64_t v) {
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::kConst;
  n->value = v;
  return Expr(std::move(n));
}

Expr Expr::rank() {
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::kRank;
  n->flags = kFlagRank;
  return Expr(std::move(n));
}

Expr Expr::nprocs() {
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::kNProcs;
  return Expr(std::move(n));
}

Expr Expr::loop_var(std::string name) {
  ACFC_CHECK_MSG(!name.empty(), "loop variable needs a name");
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::kLoopVar;
  n->flags = kFlagLoopVar;
  n->name = std::move(name);
  return Expr(std::move(n));
}

Expr Expr::irregular(int id) {
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::kIrregular;
  n->flags = kFlagIrregular;
  n->irregular_id = id;
  return Expr(std::move(n));
}

Expr Expr::binary(ExprKind kind, const Expr& lhs, const Expr& rhs) {
  auto n = std::make_shared<Node>();
  n->kind = kind;
  n->flags = lhs.node_->flags | rhs.node_->flags;
  n->lhs = lhs.node_;
  n->rhs = rhs.node_;
  return Expr(std::move(n));
}

Expr Expr::operator+(const Expr& rhs) const {
  return binary(ExprKind::kAdd, *this, rhs);
}
Expr Expr::operator-(const Expr& rhs) const {
  return binary(ExprKind::kSub, *this, rhs);
}
Expr Expr::operator*(const Expr& rhs) const {
  return binary(ExprKind::kMul, *this, rhs);
}
Expr Expr::operator/(const Expr& rhs) const {
  return binary(ExprKind::kDiv, *this, rhs);
}
Expr Expr::operator%(const Expr& rhs) const {
  return binary(ExprKind::kMod, *this, rhs);
}

ExprKind Expr::kind() const { return node_->kind; }

std::int64_t Expr::const_value() const {
  ACFC_CHECK(node_->kind == ExprKind::kConst);
  return node_->value;
}

const std::string& Expr::var_name() const {
  ACFC_CHECK(node_->kind == ExprKind::kLoopVar);
  return node_->name;
}

int Expr::irregular_id() const {
  ACFC_CHECK(node_->kind == ExprKind::kIrregular);
  return node_->irregular_id;
}

namespace {
bool is_binary(ExprKind k) {
  switch (k) {
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kDiv:
    case ExprKind::kMod:
      return true;
    default:
      return false;
  }
}
}  // namespace

Expr Expr::lhs() const {
  ACFC_CHECK(is_binary(node_->kind));
  return Expr(node_->lhs);
}

Expr Expr::rhs() const {
  ACFC_CHECK(is_binary(node_->kind));
  return Expr(node_->rhs);
}

bool Expr::depends_on_rank() const { return node_->flags & kFlagRank; }

bool Expr::has_irregular() const { return node_->flags & kFlagIrregular; }

bool Expr::has_loop_var() const { return node_->flags & kFlagLoopVar; }

bool Expr::loop_invariant() const {
  return (node_->flags & (kFlagLoopVar | kFlagIrregular)) == 0;
}

std::optional<std::int64_t> Expr::eval(const EvalCtx& ctx) const {
  switch (node_->kind) {
    case ExprKind::kConst:
      return node_->value;
    case ExprKind::kRank:
      return ctx.rank;
    case ExprKind::kNProcs:
      return ctx.nprocs;
    case ExprKind::kLoopVar:
      return ctx.lookup(node_->name);
    case ExprKind::kIrregular: {
      if (ctx.resolver == nullptr || !*ctx.resolver) return std::nullopt;
      IrregularRequest req;
      req.irregular_id = node_->irregular_id;
      req.rank = ctx.rank;
      req.nprocs = ctx.nprocs;
      return (*ctx.resolver)(req);
    }
    default: {
      auto a = Expr(node_->lhs).eval(ctx);
      auto b = Expr(node_->rhs).eval(ctx);
      if (!a || !b) return std::nullopt;
      switch (node_->kind) {
        case ExprKind::kAdd:
          return *a + *b;
        case ExprKind::kSub:
          return *a - *b;
        case ExprKind::kMul:
          return *a * *b;
        case ExprKind::kDiv:
          if (*b == 0) return std::nullopt;
          return *a / *b;
        case ExprKind::kMod: {
          if (*b == 0) return std::nullopt;
          // Euclidean modulo: result has the sign of zero-or-positive,
          // matching the ring-neighbour idiom (rank - 1 + nprocs) % nprocs.
          std::int64_t m = *a % *b;
          if (m < 0) m += (*b < 0 ? -*b : *b);
          return m;
        }
        default:
          ACFC_CHECK_MSG(false, "unreachable expression kind");
      }
    }
  }
  return std::nullopt;
}

namespace {
int precedence(ExprKind k) {
  switch (k) {
    case ExprKind::kAdd:
    case ExprKind::kSub:
      return 1;
    case ExprKind::kMul:
    case ExprKind::kDiv:
    case ExprKind::kMod:
      return 2;
    default:
      return 3;  // atoms
  }
}

const char* op_token(ExprKind k) {
  switch (k) {
    case ExprKind::kAdd:
      return " + ";
    case ExprKind::kSub:
      return " - ";
    case ExprKind::kMul:
      return " * ";
    case ExprKind::kDiv:
      return " / ";
    case ExprKind::kMod:
      return " % ";
    default:
      return "?";
  }
}
}  // namespace

std::string Expr::str() const {
  std::string out;
  out.reserve(32);
  append_str(out);
  return out;
}

void Expr::append_str(std::string& out) const {
  switch (node_->kind) {
    case ExprKind::kConst:
      out += std::to_string(node_->value);
      return;
    case ExprKind::kRank:
      out += "rank";
      return;
    case ExprKind::kNProcs:
      out += "nprocs";
      return;
    case ExprKind::kLoopVar:
      out += node_->name;
      return;
    case ExprKind::kIrregular:
      out += "irregular(";
      out += std::to_string(node_->irregular_id);
      out += ')';
      return;
    default: {
      const Expr l(node_->lhs);
      const Expr r(node_->rhs);
      const int my_prec = precedence(node_->kind);
      const bool lparen = precedence(l.kind()) < my_prec;
      // Right operand needs parens at equal precedence too, since all our
      // binary operators are left-associative and -,/,% are not commutative.
      const bool rparen = precedence(r.kind()) <= my_prec;
      if (lparen) out += '(';
      l.append_str(out);
      if (lparen) out += ')';
      out += op_token(node_->kind);
      if (rparen) out += '(';
      r.append_str(out);
      if (rparen) out += ')';
      return;
    }
  }
}

bool Expr::equals(const Expr& other) const {
  if (node_ == other.node_) return true;
  if (node_->kind != other.node_->kind) return false;
  switch (node_->kind) {
    case ExprKind::kConst:
      return node_->value == other.node_->value;
    case ExprKind::kRank:
    case ExprKind::kNProcs:
      return true;
    case ExprKind::kLoopVar:
      return node_->name == other.node_->name;
    case ExprKind::kIrregular:
      return node_->irregular_id == other.node_->irregular_id;
    default:
      return Expr(node_->lhs).equals(Expr(other.node_->lhs)) &&
             Expr(node_->rhs).equals(Expr(other.node_->rhs));
  }
}

}  // namespace acfc::mp

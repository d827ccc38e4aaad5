// Boolean predicates of the MiniMP program IR (branch and guard
// conditions).
//
// A predicate is *ID-dependent* — the paper's term for a branch whose
// condition depends on process IDs — when any comparison operand reads
// `rank`. Only ID-dependent branches partition the CFG into per-process
// paths that Algorithm 3.1 uses to match send and receive statements.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "mp/expr.h"

namespace acfc::mp {

enum class PredKind {
  kTrue,
  kCmp,        ///< Comparison of two integer expressions.
  kNot,
  kAnd,
  kOr,
  kIrregular,  ///< Data-dependent condition (e.g., convergence test).
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

class Pred {
 public:
  /// Default-constructs `true`.
  Pred();

  static Pred always();
  static Pred cmp(CmpOp op, Expr lhs, Expr rhs);
  static Pred irregular(int id);

  Pred operator!() const;
  Pred operator&&(const Pred& rhs) const;
  Pred operator||(const Pred& rhs) const;

  // Comparison factories in readable form.
  static Pred eq(Expr a, Expr b) { return cmp(CmpOp::kEq, a, b); }
  static Pred ne(Expr a, Expr b) { return cmp(CmpOp::kNe, a, b); }
  static Pred lt(Expr a, Expr b) { return cmp(CmpOp::kLt, a, b); }
  static Pred le(Expr a, Expr b) { return cmp(CmpOp::kLe, a, b); }
  static Pred gt(Expr a, Expr b) { return cmp(CmpOp::kGt, a, b); }
  static Pred ge(Expr a, Expr b) { return cmp(CmpOp::kGe, a, b); }

  PredKind kind() const;
  CmpOp cmp_op() const;      ///< Requires kind()==kCmp.
  Expr cmp_lhs() const;      ///< Requires kind()==kCmp.
  Expr cmp_rhs() const;      ///< Requires kind()==kCmp.
  int irregular_id() const;  ///< Requires kind()==kIrregular.
  Pred child() const;        ///< Requires kind()==kNot.
  Pred lhs() const;          ///< Requires kAnd/kOr.
  Pred rhs() const;          ///< Requires kAnd/kOr.

  // Dependence queries are O(1) — precomputed at construction, as on Expr.

  /// ID-dependence per the paper: some operand reads `rank`.
  bool depends_on_rank() const;
  bool has_irregular() const;
  bool has_loop_var() const;
  /// Pure function of (rank, nprocs): no loop variables, no irregulars.
  bool loop_invariant() const;

  /// Evaluates; nullopt when an operand is unresolvable.
  std::optional<bool> eval(const EvalCtx& ctx) const;

  /// DSL source form.
  std::string str() const;
  /// Appends str() to `out` without intermediate allocations.
  void append_str(std::string& out) const;

  bool equals(const Pred& other) const;

 private:
  struct Node;
  explicit Pred(std::shared_ptr<const Node> node);

  std::shared_ptr<const Node> node_;
};

}  // namespace acfc::mp

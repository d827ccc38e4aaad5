// Integer expressions of the MiniMP program IR.
//
// MiniMP models the parts of an SPMD message-passing program that the
// paper's offline analysis consumes: source/destination parameters of
// communication statements, loop bounds, and branch conditions are integer
// expressions over the process identity (`rank`), the world size
// (`nprocs`), enclosing loop variables, and opaque data-dependent values
// ("irregular computation patterns" in the paper's terminology).
//
// Expr is a value type (cheaply copyable immutable tree). Evaluation takes
// an EvalCtx; data-dependent subexpressions resolve through an
// IrregularResolver, and evaluate to std::nullopt when no resolver is
// provided — which is exactly how the static analysis observes that a
// parameter is irregular.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace acfc::mp {

enum class ExprKind {
  kConst,      ///< Integer literal.
  kRank,       ///< The executing process's id in [0, nprocs).
  kNProcs,     ///< World size.
  kLoopVar,    ///< Enclosing counted-loop variable, by name.
  kAdd,
  kSub,
  kMul,
  kDiv,        ///< Truncating division; evaluation fails on divide-by-zero.
  kMod,        ///< Euclidean modulo (result in [0, |rhs|)); fails on zero.
  kIrregular,  ///< Data-dependent value, identified by a small integer id.
};

/// Resolves data-dependent ("irregular") values during simulation. The
/// arguments identify the evaluation site so that deterministic replay can
/// return identical values.
struct IrregularRequest {
  int irregular_id = 0;
  int rank = 0;
  int nprocs = 0;
  /// Dynamic invocation ordinal of this site within the process, assigned
  /// by the simulator (0 for static evaluation).
  std::int64_t instance = 0;
};
using IrregularResolver = std::function<std::int64_t(const IrregularRequest&)>;

/// Evaluation context for expressions and predicates.
struct EvalCtx {
  int rank = 0;
  int nprocs = 1;
  /// Innermost-last bindings of enclosing loop variables.
  std::vector<std::pair<std::string, std::int64_t>> env;
  /// Optional resolver for irregular values; nullptr during static analysis.
  /// Requests carry instance 0; a resolver that needs invocation ordinals
  /// numbers them itself.
  const IrregularResolver* resolver = nullptr;

  std::optional<std::int64_t> lookup(const std::string& var) const;
};

class Expr {
 public:
  /// Default-constructs the literal 0 (so Expr can live in containers).
  Expr();

  // -- Factories ----------------------------------------------------------
  static Expr constant(std::int64_t v);
  static Expr rank();
  static Expr nprocs();
  static Expr loop_var(std::string name);
  static Expr irregular(int id);

  Expr operator+(const Expr& rhs) const;
  Expr operator-(const Expr& rhs) const;
  Expr operator*(const Expr& rhs) const;
  Expr operator/(const Expr& rhs) const;
  Expr operator%(const Expr& rhs) const;

  // -- Introspection ------------------------------------------------------
  ExprKind kind() const;
  std::int64_t const_value() const;      ///< Requires kind()==kConst.
  const std::string& var_name() const;   ///< Requires kind()==kLoopVar.
  int irregular_id() const;              ///< Requires kind()==kIrregular.
  Expr lhs() const;                      ///< Requires a binary kind.
  Expr rhs() const;                      ///< Requires a binary kind.

  // The three dependence queries below are O(1): the answers are computed
  // once at construction and stored on the node, so hot evaluators can
  // consult them per evaluation without walking the tree.

  /// True if any subexpression reads `rank` (the paper's ID-dependence).
  bool depends_on_rank() const;
  /// True if any subexpression is irregular (data-dependent).
  bool has_irregular() const;
  /// True if any subexpression reads a loop variable.
  bool has_loop_var() const;
  /// True when evaluation is a pure function of (rank, nprocs) — no loop
  /// variables, no irregular values: the result never changes within a
  /// process, so evaluators may memoize it.
  bool loop_invariant() const;

  /// Evaluates; nullopt on irregular-without-resolver, unbound loop
  /// variable, or division/modulo by zero.
  std::optional<std::int64_t> eval(const EvalCtx& ctx) const;

  /// Source-form rendering matching the DSL grammar (parenthesized as
  /// needed so that parse(str(e)) == e structurally).
  std::string str() const;
  /// Appends str() to `out` without intermediate allocations — the hot
  /// form for cache-key builders that render many expressions.
  void append_str(std::string& out) const;

  /// Deep structural equality.
  bool equals(const Expr& other) const;

 private:
  struct Node;
  explicit Expr(std::shared_ptr<const Node> node);
  static Expr binary(ExprKind kind, const Expr& lhs, const Expr& rhs);

  std::shared_ptr<const Node> node_;
};

}  // namespace acfc::mp

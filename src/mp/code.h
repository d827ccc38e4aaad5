// The compiled form of MiniMP expressions and predicates.
//
// Every evaluator that runs the same expression many times — the
// simulator's VM (sim::Model) and the attribute solver (src/attr/solve.cpp)
// — compiles mp::Expr / mp::Pred trees into one flat table of CodeNodes
// through a CodeCompiler. Nodes are emitted in postorder (children before
// their parent), so a root is the last node of its subtree and the
// subtree is the contiguous range that starts where the table ended
// before the root was compiled.
//
// Loop variables are resolved at compile time: the caller binds each
// enclosing loop's variable to a slot of its own choosing (the VM uses the
// stack depth of the loop's body frame, the solver the binding position),
// and a reference compiles to the slot of the innermost binding of its
// name in scope. An unbound name compiles to kUnknown. Irregular leaves
// keep their id; each evaluator decides what they mean.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "mp/expr.h"
#include "mp/pred.h"

namespace acfc::mp {

/// Operation of one code node. Integer ops produce a value; boolean ops
/// produce 0 or 1.
enum class Op : std::uint8_t {
  kConst,      ///< value
  kRank,
  kNProcs,
  kLoopVar,    ///< a = slot of the binding
  kUnknown,    ///< unbound loop variable: never has a value
  kIrregular,  ///< a = irregular id
  kAdd,        ///< a, b = operand nodes (for every binary op below)
  kSub,
  kMul,
  kDiv,
  kMod,
  kTrue,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kNot,            ///< a = operand node
  kAnd,
  kOr,
  kIrregularPred,  ///< a = irregular id; true iff the value is non-zero
};

struct CodeNode {
  Op op = Op::kConst;
  int a = 0;
  int b = 0;
  std::int64_t value = 0;
};

/// Appends compiled expressions and predicates to one code table. The
/// scope allocates from the table's memory resource.
class CodeCompiler {
 public:
  explicit CodeCompiler(std::pmr::vector<CodeNode>& code)
      : code_(code), scope_(code.get_allocator().resource()) {}

  /// Binds `name` to `slot` until the matching unbind(); a later binding
  /// of the same name shadows it. `name` must outlive the binding.
  void bind(const std::string& name, int slot) {
    scope_.emplace_back(&name, slot);
  }
  /// Drops the innermost binding.
  void unbind() { scope_.pop_back(); }
  /// Slot of the innermost binding of `name`, or -1 when unbound.
  int resolve(const std::string& name) const;

  /// Compile a tree; returns the index of its root node.
  int expr(const Expr& e);
  int pred(const Pred& p);

 private:
  int emit(const CodeNode& node);

  std::pmr::vector<CodeNode>& code_;
  /// Bindings in scope, outermost first.
  std::pmr::vector<std::pair<const std::string*, int>> scope_;
};

}  // namespace acfc::mp

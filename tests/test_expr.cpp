// Unit tests for MiniMP integer expressions: evaluation semantics
// (including Euclidean modulo and division-by-zero), rank/irregular
// dependence analysis, rendering, and structural equality.
#include <gtest/gtest.h>

#include "mp/expr.h"

namespace {

using acfc::mp::EvalCtx;
using acfc::mp::Expr;
using acfc::mp::ExprKind;
using acfc::mp::IrregularRequest;
using acfc::mp::IrregularResolver;

EvalCtx ctx(int rank, int nprocs) {
  EvalCtx c;
  c.rank = rank;
  c.nprocs = nprocs;
  return c;
}

TEST(Expr, ConstantEvaluates) {
  EXPECT_EQ(Expr::constant(7).eval(ctx(0, 4)), 7);
}

TEST(Expr, RankAndNProcs) {
  EXPECT_EQ(Expr::rank().eval(ctx(3, 8)), 3);
  EXPECT_EQ(Expr::nprocs().eval(ctx(3, 8)), 8);
}

TEST(Expr, Arithmetic) {
  const Expr e = (Expr::rank() + Expr::constant(1)) * Expr::constant(2);
  EXPECT_EQ(e.eval(ctx(4, 8)), 10);
  EXPECT_EQ((Expr::constant(7) - Expr::constant(10)).eval(ctx(0, 1)), -3);
  EXPECT_EQ((Expr::constant(7) / Expr::constant(2)).eval(ctx(0, 1)), 3);
}

TEST(Expr, EuclideanModulo) {
  // (rank - 1 + nprocs) % nprocs is the canonical left-neighbour idiom;
  // plain % must also behave for negative operands.
  EXPECT_EQ((Expr::constant(-1) % Expr::constant(4)).eval(ctx(0, 1)), 3);
  EXPECT_EQ((Expr::constant(5) % Expr::constant(4)).eval(ctx(0, 1)), 1);
  const Expr left = (Expr::rank() - Expr::constant(1) + Expr::nprocs()) %
                    Expr::nprocs();
  EXPECT_EQ(left.eval(ctx(0, 4)), 3);
  EXPECT_EQ(left.eval(ctx(2, 4)), 1);
}

TEST(Expr, DivisionByZeroIsUnknown) {
  EXPECT_FALSE((Expr::constant(1) / Expr::constant(0)).eval(ctx(0, 1)));
  EXPECT_FALSE((Expr::constant(1) % Expr::constant(0)).eval(ctx(0, 1)));
}

TEST(Expr, LoopVarLookup) {
  EvalCtx c = ctx(0, 4);
  c.env.emplace_back("i", 5);
  EXPECT_EQ(Expr::loop_var("i").eval(c), 5);
  EXPECT_FALSE(Expr::loop_var("j").eval(c));
}

TEST(Expr, InnermostLoopVarShadows) {
  EvalCtx c = ctx(0, 4);
  c.env.emplace_back("i", 1);
  c.env.emplace_back("i", 2);
  EXPECT_EQ(Expr::loop_var("i").eval(c), 2);
}

TEST(Expr, IrregularWithoutResolverIsUnknown) {
  EXPECT_FALSE(Expr::irregular(3).eval(ctx(0, 4)));
}

TEST(Expr, IrregularWithResolver) {
  IrregularResolver resolver = [](const IrregularRequest& req) {
    return req.irregular_id * 100 + req.rank;
  };
  EvalCtx c = ctx(2, 4);
  c.resolver = &resolver;
  EXPECT_EQ(Expr::irregular(3).eval(c), 302);
}

TEST(Expr, DependsOnRank) {
  EXPECT_TRUE(Expr::rank().depends_on_rank());
  EXPECT_TRUE((Expr::rank() + Expr::constant(1)).depends_on_rank());
  EXPECT_FALSE(Expr::nprocs().depends_on_rank());
  EXPECT_FALSE(Expr::constant(2).depends_on_rank());
  EXPECT_FALSE(Expr::irregular(1).depends_on_rank());
}

TEST(Expr, HasIrregular) {
  EXPECT_TRUE((Expr::rank() + Expr::irregular(1)).has_irregular());
  EXPECT_FALSE((Expr::rank() + Expr::constant(1)).has_irregular());
}

TEST(Expr, StrRendering) {
  EXPECT_EQ(Expr::rank().str(), "rank");
  EXPECT_EQ((Expr::rank() + Expr::constant(1)).str(), "rank + 1");
  EXPECT_EQ(((Expr::rank() + Expr::constant(1)) % Expr::constant(2)).str(),
            "(rank + 1) % 2");
  EXPECT_EQ(Expr::irregular(5).str(), "irregular(5)");
}

TEST(Expr, StrParenthesizesNonAssociativeRight) {
  // a - (b - c) must not print as a - b - c.
  const Expr e = Expr::constant(1) - (Expr::constant(2) - Expr::constant(3));
  EXPECT_EQ(e.str(), "1 - (2 - 3)");
}

TEST(Expr, StructuralEquality) {
  const Expr a = Expr::rank() + Expr::constant(1);
  const Expr b = Expr::rank() + Expr::constant(1);
  const Expr c = Expr::rank() + Expr::constant(2);
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
  EXPECT_FALSE(a.equals(Expr::rank()));
}

TEST(Expr, KindAccessors) {
  const Expr e = Expr::rank() + Expr::constant(1);
  EXPECT_EQ(e.kind(), ExprKind::kAdd);
  EXPECT_EQ(e.lhs().kind(), ExprKind::kRank);
  EXPECT_EQ(e.rhs().const_value(), 1);
  // Nested accessor chaining must be safe.
  const Expr nested = (Expr::rank() + Expr::constant(1)) + Expr::constant(2);
  EXPECT_EQ(nested.lhs().lhs().kind(), ExprKind::kRank);
  EXPECT_EQ(nested.lhs().rhs().const_value(), 1);
}

TEST(Expr, DefaultConstructsZero) {
  Expr e;
  EXPECT_EQ(e.kind(), ExprKind::kConst);
  EXPECT_EQ(e.const_value(), 0);
}

}  // namespace

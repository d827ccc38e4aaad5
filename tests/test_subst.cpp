// Unit tests for variable substitution and Phase-I loop blocking:
// substitution correctness (including shadowing), the blocked-loop
// structure, and semantic equivalence of the blocked program (identical
// execution digests modulo the inserted checkpoints' effect on clocks).
#include <gtest/gtest.h>

#include "mp/parser.h"
#include "mp/printer.h"
#include "mp/subst.h"
#include "place/place.h"
#include "sim/engine.h"
#include "trace/analysis.h"

namespace {

using namespace acfc;
using mp::Expr;
using mp::Pred;

TEST(Subst, ReplacesVariableInExpr) {
  const Expr e = Expr::loop_var("i") + Expr::constant(1);
  const Expr r = mp::substitute(e, "i", Expr::rank());
  EXPECT_EQ(r.str(), "rank + 1");
}

TEST(Subst, LeavesOtherVariables) {
  const Expr e = Expr::loop_var("i") * Expr::loop_var("j");
  const Expr r = mp::substitute(e, "i", Expr::constant(5));
  EXPECT_EQ(r.str(), "5 * j");
}

TEST(Subst, AllExprKinds) {
  const Expr v = Expr::loop_var("x");
  const Expr two = Expr::constant(2);
  EXPECT_EQ(mp::substitute(v - two, "x", Expr::rank()).str(), "rank - 2");
  EXPECT_EQ(mp::substitute(v / two, "x", Expr::rank()).str(), "rank / 2");
  EXPECT_EQ(mp::substitute(v % two, "x", Expr::rank()).str(), "rank % 2");
  EXPECT_EQ(mp::substitute(Expr::irregular(1), "x", Expr::rank()).str(),
            "irregular(1)");
}

TEST(Subst, Predicates) {
  const Pred p = Pred::lt(Expr::loop_var("w"), Expr::nprocs()) &&
                 !Pred::eq(Expr::loop_var("w"), Expr::rank());
  const Pred r = mp::substitute(p, "w", Expr::constant(3));
  EXPECT_EQ(r.str(), "(3 < nprocs && !(3 == rank))");
}

TEST(Subst, BlockRewritesAllSites) {
  mp::Program p = mp::parse(R"(
    program s {
      for i in 0 .. 4 {
        send to i tag 1;
        recv from i tag 2;
        if (i == rank) { compute 1.0; }
        bcast root i;
      }
    })");
  auto& loop = static_cast<mp::LoopStmt&>(*p.body.stmts[0]);
  mp::substitute_in_block(loop.body, "i", Expr::constant(7));
  const std::string text = mp::print(p);
  EXPECT_NE(text.find("send to 7"), std::string::npos);
  EXPECT_NE(text.find("recv from 7"), std::string::npos);
  EXPECT_NE(text.find("7 == rank"), std::string::npos);
  EXPECT_NE(text.find("bcast root 7"), std::string::npos);
}

TEST(Subst, ShadowingStopsSubstitution) {
  mp::Program p = mp::parse(R"(
    program s {
      for i in 0 .. 4 {
        send to i tag 1;
        for i in 0 .. 2 { send to i tag 2; }
      }
    })");
  auto& outer = static_cast<mp::LoopStmt&>(*p.body.stmts[0]);
  mp::substitute_in_block(outer.body, "i", Expr::constant(9));
  const std::string text = mp::print(p);
  EXPECT_NE(text.find("send to 9 tag 1"), std::string::npos);
  // The inner loop rebinds i: its body must be untouched.
  EXPECT_NE(text.find("send to i tag 2"), std::string::npos);
}

TEST(Subst, NestedLoopBoundsAreRewritten) {
  mp::Program p = mp::parse(R"(
    program s { for i in 0 .. 4 { for j in 0 .. i { compute 1.0; } } })");
  auto& outer = static_cast<mp::LoopStmt&>(*p.body.stmts[0]);
  mp::substitute_in_block(outer.body, "i", Expr::constant(3));
  const auto& inner = static_cast<const mp::LoopStmt&>(*outer.body.stmts[0]);
  EXPECT_EQ(inner.hi.const_value(), 3);
}

// ---------------------------------------------------------------------------
// Loop blocking
// ---------------------------------------------------------------------------

TEST(LoopBlocking, SplitsCheapLongLoop) {
  mp::Program p = mp::parse("program b { loop 12 { compute 15.0; } }");
  place::InsertOptions opts;
  opts.target_interval = 45.0;
  const int inserted = place::insert_checkpoints(p, opts);
  EXPECT_EQ(inserted, 1);  // one checkpoint statement, inside the blocks
  // Structure: outer loop of 4 blocks × (inner 3 iterations + checkpoint).
  ASSERT_EQ(p.body.size(), 1u);
  const auto& outer = static_cast<const mp::LoopStmt&>(*p.body.stmts[0]);
  EXPECT_EQ(outer.hi.const_value(), 4);
  ASSERT_EQ(outer.body.size(), 2u);
  const auto& inner = static_cast<const mp::LoopStmt&>(*outer.body.stmts[0]);
  EXPECT_EQ(inner.hi.const_value(), 3);
  EXPECT_EQ(outer.body.stmts[1]->kind(), mp::StmtKind::kCheckpoint);
}

TEST(LoopBlocking, TailHandlesRemainder) {
  mp::Program p = mp::parse("program b { loop 13 { compute 15.0; } }");
  place::InsertOptions opts;
  opts.target_interval = 45.0;
  place::insert_checkpoints(p, opts);
  // 13 = 4×3 + 1: outer blocked loop plus a 1-iteration tail loop.
  ASSERT_EQ(p.body.size(), 2u);
  const auto& tail = static_cast<const mp::LoopStmt&>(*p.body.stmts[1]);
  EXPECT_EQ(tail.hi.const_value(), 1);
}

TEST(LoopBlocking, RewritesLoopVariableUses) {
  // The body sends to a neighbour selected by the loop variable's parity;
  // after blocking, the rewritten affine expression must preserve the
  // exact iteration sequence — validated by simulation below.
  mp::Program p = mp::parse(R"(
    program b {
      for i in 0 .. 12 {
        compute 15.0;
        if (i % 2 == 0) {
          send to (rank + 1) % nprocs tag 1;
          recv from (rank - 1 + nprocs) % nprocs tag 1;
        } else {
          send to (rank - 1 + nprocs) % nprocs tag 2;
          recv from (rank + 1) % nprocs tag 2;
        }
      }
    })");
  // Reference run (no checkpoints).
  const auto base = sim::simulate(p, 4, 1);
  ASSERT_TRUE(base.trace.completed);

  place::InsertOptions opts;
  opts.target_interval = 45.0;
  place::insert_checkpoints(p, opts);
  const auto blocked = sim::simulate(p, 4, 1);
  ASSERT_TRUE(blocked.trace.completed);
  // Identical message structure: same app message count, and per-channel
  // tag sequences agree (checkpoints do not send).
  EXPECT_EQ(blocked.stats.app_messages, base.stats.app_messages);
  auto tags = [](const trace::Trace& t) {
    std::vector<int> out;
    for (const auto& m : t.app_messages()) out.push_back(m.tag);
    return out;
  };
  EXPECT_EQ(tags(blocked.trace), tags(base.trace));
}

TEST(LoopBlocking, BlockedProgramIsSafeAfterPipeline) {
  mp::Program p = mp::parse(R"(
    program b {
      for i in 0 .. 12 {
        compute 15.0;
        send to (rank + 1) % nprocs tag 1;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
      }
    })");
  place::InsertOptions opts;
  opts.target_interval = 45.0;
  const auto report = place::analyze_and_place(p, opts);
  ASSERT_TRUE(report.success);
  const auto result = sim::simulate(p, 4, 1);
  ASSERT_TRUE(result.trace.completed);
  int cuts = 0;
  for (const auto& cut : trace::all_straight_cuts(result.trace)) {
    ++cuts;
    EXPECT_TRUE(trace::analyze_cut(result.trace, cut).consistent);
  }
  EXPECT_GE(cuts, 3);  // blocking actually produced per-block checkpoints
}

TEST(LoopBlocking, SkipsNonConstantBounds) {
  mp::Program p = mp::parse(
      "program b { for i in 0 .. nprocs { compute 15.0; } }");
  place::InsertOptions opts;
  opts.target_interval = 45.0;
  place::insert_checkpoints(p, opts);
  // Bounds are not constant (assumed kAssumedTripCount trips, 150 s, past
  // the interval): loop stays atomic, checkpoint lands after.
  EXPECT_EQ(p.body.stmts[0]->kind(), mp::StmtKind::kLoop);
  const auto& loop = static_cast<const mp::LoopStmt&>(*p.body.stmts[0]);
  EXPECT_TRUE(loop.hi.equals(mp::Expr::nprocs()));
}

}  // namespace

// Unit tests for collective lowering: structure of the lowered forms and
// absence of collectives afterwards.
#include <gtest/gtest.h>

#include "mp/lower.h"
#include "mp/parser.h"
#include "mp/printer.h"

namespace {

using namespace acfc::mp;

TEST(Lower, DetectsCollectives) {
  EXPECT_TRUE(has_collectives(parse("program t { barrier; }")));
  EXPECT_TRUE(has_collectives(parse("program t { bcast root 0; }")));
  EXPECT_FALSE(has_collectives(parse("program t { compute 1.0; }")));
}

TEST(Lower, RemovesAllCollectives) {
  const Program p = parse(
      "program t { barrier; loop 2 { bcast root 0; } "
      "if (rank == 0) { barrier tag 7; } }");
  const Program q = lower_collectives(p);
  EXPECT_FALSE(has_collectives(q));
}

TEST(Lower, BcastShape) {
  const Program q =
      lower_collectives(parse("program t { bcast root 0 tag 2 bytes 32; }"));
  // Root arm: a loop over all ranks sending; non-root arm: a single recv.
  ASSERT_EQ(q.body.size(), 1u);
  const auto& iff = static_cast<const IfStmt&>(*q.body.stmts[0]);
  ASSERT_EQ(iff.then_body.size(), 1u);
  EXPECT_EQ(iff.then_body.stmts[0]->kind(), StmtKind::kLoop);
  ASSERT_EQ(iff.else_body.size(), 1u);
  const auto& recv = static_cast<const RecvStmt&>(*iff.else_body.stmts[0]);
  EXPECT_EQ(recv.tag, 1'000'002);  // reserved tag space preserves app tags
  int sends = 0;
  for_each_stmt(q, [&sends](const Stmt& s) {
    if (s.kind() == StmtKind::kSend) {
      ++sends;
      EXPECT_EQ(static_cast<const SendStmt&>(s).bytes, 32);
    }
  });
  EXPECT_EQ(sends, 1);  // one send statement inside the loop
}

TEST(Lower, BarrierShape) {
  const Program q = lower_collectives(parse("program t { barrier; }"));
  const auto& iff = static_cast<const IfStmt&>(*q.body.stmts[0]);
  // Rank-0 arm: gather loop + release loop.
  ASSERT_EQ(iff.then_body.size(), 2u);
  EXPECT_EQ(iff.then_body.stmts[0]->kind(), StmtKind::kLoop);
  EXPECT_EQ(iff.then_body.stmts[1]->kind(), StmtKind::kLoop);
  // Other ranks: send-then-recv with rank 0.
  ASSERT_EQ(iff.else_body.size(), 2u);
  EXPECT_EQ(iff.else_body.stmts[0]->kind(), StmtKind::kSend);
  EXPECT_EQ(iff.else_body.stmts[1]->kind(), StmtKind::kRecv);
}

TEST(Lower, PreservesNonCollectiveStatements) {
  const Program p = parse(
      "program t { compute 1.0; checkpoint; barrier; send to 0 tag 9; }");
  const Program q = lower_collectives(p);
  EXPECT_EQ(checkpoint_count(q), 1);
  int computes = 0, sends_tag9 = 0;
  for_each_stmt(q, [&](const Stmt& s) {
    if (s.kind() == StmtKind::kCompute) ++computes;
    if (s.kind() == StmtKind::kSend &&
        static_cast<const SendStmt&>(s).tag == 9)
      ++sends_tag9;
  });
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(sends_tag9, 1);
}

TEST(Lower, NestedCollectivesInsideLoops) {
  const Program q = lower_collectives(
      parse("program t { loop 3 { barrier; compute 1.0; } }"));
  EXPECT_FALSE(has_collectives(q));
  // The lowered barrier lives inside the original loop.
  const auto& loop = static_cast<const LoopStmt&>(*q.body.stmts[0]);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body.stmts[0]->kind(), StmtKind::kIf);
  EXPECT_EQ(loop.body.stmts[1]->kind(), StmtKind::kCompute);
}

TEST(Lower, ResultIsRenumbered) {
  const Program q = lower_collectives(parse("program t { barrier; }"));
  std::vector<int> uids;
  for_each_stmt(q, [&uids](const Stmt& s) { uids.push_back(s.uid()); });
  for (std::size_t i = 0; i < uids.size(); ++i)
    EXPECT_EQ(uids[i], static_cast<int>(i));
}

TEST(Lower, LoweredProgramPrintsAndReparses) {
  const Program q = lower_collectives(
      parse("program t { barrier; bcast root nprocs - 1; }"));
  const Program r = parse(print(q));
  EXPECT_EQ(r.stmt_count(), q.stmt_count());
}

TEST(Lower, CustomTagBase) {
  // A collective's own tag is offset into the reserved tag space.
  const Program q = lower_collectives(parse("program t { barrier tag 3; }"));
  bool saw = false;
  for_each_stmt(q, [&saw](const Stmt& s) {
    if (s.kind() == StmtKind::kSend)
      saw |= static_cast<const SendStmt&>(s).tag == kCollectiveTagBase + 3;
  });
  EXPECT_TRUE(saw);
}

}  // namespace

// Unit tests for the statement hierarchy and Program: building, cloning,
// renumbering, traversal, location, and structural editing (the primitives
// Phase III movement is built on).
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <type_traits>
#include <typeinfo>

#include "mp/builder.h"
#include "mp/parser.h"
#include "mp/stmt.h"
#include "util/error.h"

namespace {

using namespace acfc::mp;

Program jacobi_like() {
  ProgramBuilder b("jacobi");
  b.for_("it", 0, 10, [](ProgramBuilder& b) {
    b.compute(5.0, "stencil");
    b.if_(
        Pred::eq(Expr::rank() % Expr::constant(2), Expr::constant(0)),
        [](ProgramBuilder& b) {
          b.checkpoint("even");
          b.send(Expr::rank() + Expr::constant(1), 1);
          b.recv(Expr::rank() + Expr::constant(1), 1);
        },
        [](ProgramBuilder& b) {
          b.send(Expr::rank() - Expr::constant(1), 1);
          b.recv(Expr::rank() - Expr::constant(1), 1);
          b.checkpoint("odd");
        });
  });
  return b.take();
}

TEST(Stmt, BuilderProducesExpectedShape) {
  const Program p = jacobi_like();
  ASSERT_EQ(p.body.size(), 1u);
  EXPECT_EQ(p.body.stmts[0]->kind(), StmtKind::kLoop);
  const auto& loop = static_cast<const LoopStmt&>(*p.body.stmts[0]);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body.stmts[0]->kind(), StmtKind::kCompute);
  EXPECT_EQ(loop.body.stmts[1]->kind(), StmtKind::kIf);
}

TEST(Stmt, RenumberAssignsPreorderUids) {
  const Program p = jacobi_like();
  // 1 loop + 1 compute + 1 if + (3 + 3) branch statements = 9.
  EXPECT_EQ(p.stmt_count(), 9);
  std::vector<int> uids;
  for_each_stmt(p, [&uids](const Stmt& s) { uids.push_back(s.uid()); });
  for (std::size_t i = 0; i < uids.size(); ++i)
    EXPECT_EQ(uids[i], static_cast<int>(i));
}

TEST(Stmt, CheckpointIdsAreDistinct) {
  const Program p = jacobi_like();
  std::vector<int> ids;
  for_each_stmt(p, [&ids](const Stmt& s) {
    if (const auto* c = dynamic_cast<const CheckpointStmt*>(&s))
      ids.push_back(c->ckpt_id);
  });
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_GE(ids[0], 0);
  EXPECT_GE(ids[1], 0);
}

TEST(Stmt, CheckpointCount) {
  EXPECT_EQ(checkpoint_count(jacobi_like()), 2);
}

TEST(Stmt, CloneIsDeepAndEqualShaped) {
  const Program p = jacobi_like();
  const Program q = p.clone();
  EXPECT_EQ(q.stmt_count(), p.stmt_count());
  EXPECT_EQ(checkpoint_count(q), 2);
  // Mutating the clone must not affect the original.
  Program r = p.clone();
  r.body.stmts.clear();
  EXPECT_EQ(p.stmt_count(), 9);
}

TEST(Stmt, FindByUid) {
  Program p = jacobi_like();
  const Stmt* s = p.find(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), StmtKind::kCompute);
  EXPECT_EQ(p.find(999), nullptr);
}

TEST(Stmt, LocateReportsAncestors) {
  Program p = jacobi_like();
  // uid 3 is the first checkpoint (loop=0, compute=1, if=2, chk=3).
  auto loc = locate(p, 3);
  ASSERT_TRUE(loc.has_value());
  ASSERT_EQ(loc->ancestors.size(), 2u);
  EXPECT_EQ(loc->ancestors[0]->kind(), StmtKind::kLoop);
  EXPECT_EQ(loc->ancestors[1]->kind(), StmtKind::kIf);
  EXPECT_EQ(loc->index, 0u);
}

TEST(Stmt, LocateMissingUid) {
  Program p = jacobi_like();
  EXPECT_FALSE(locate(p, 12345).has_value());
}

TEST(Stmt, RemoveAndReinsert) {
  Program p = jacobi_like();
  auto removed = remove_stmt(p, 3);  // the "even" checkpoint
  ASSERT_EQ(removed->kind(), StmtKind::kCheckpoint);
  EXPECT_EQ(checkpoint_count(p), 1);

  p.renumber();
  // Insert before the loop statement (uid 0 after renumber).
  insert_before(p, 0, std::move(removed));
  p.renumber();
  EXPECT_EQ(checkpoint_count(p), 2);
  EXPECT_EQ(p.body.stmts[0]->kind(), StmtKind::kCheckpoint);
}

TEST(Stmt, InsertAfter) {
  Program p = jacobi_like();
  insert_after(p, 1, std::make_unique<ComputeStmt>(1.0, "extra"));
  p.renumber();
  const auto& loop = static_cast<const LoopStmt&>(*p.body.stmts[0]);
  ASSERT_EQ(loop.body.size(), 3u);
  EXPECT_EQ(loop.body.stmts[1]->kind(), StmtKind::kCompute);
  EXPECT_EQ(static_cast<const ComputeStmt&>(*loop.body.stmts[1]).label,
            "extra");
}

TEST(Stmt, RemoveMissingThrows) {
  Program p = jacobi_like();
  EXPECT_THROW(remove_stmt(p, 777), acfc::util::ProgramError);
}

TEST(Stmt, InsertBeforeMissingThrows) {
  Program p = jacobi_like();
  EXPECT_THROW(insert_before(p, 777, std::make_unique<ComputeStmt>(1.0)),
               acfc::util::ProgramError);
}

TEST(Stmt, ClonePreservesCheckpointIds) {
  Program p = jacobi_like();
  std::vector<int> orig;
  for_each_stmt(p, [&orig](const Stmt& s) {
    if (const auto* c = dynamic_cast<const CheckpointStmt*>(&s))
      orig.push_back(c->ckpt_id);
  });
  const Program q = p.clone();
  std::vector<int> cloned;
  for_each_stmt(q, [&cloned](const Stmt& s) {
    if (const auto* c = dynamic_cast<const CheckpointStmt*>(&s))
      cloned.push_back(c->ckpt_id);
  });
  EXPECT_EQ(orig, cloned);
}

TEST(Stmt, AssignCheckpointIdsIsIdempotentAndFillsGaps) {
  Program p = jacobi_like();
  std::vector<int> before;
  for_each_stmt(p, [&before](const Stmt& s) {
    if (const auto* c = dynamic_cast<const CheckpointStmt*>(&s))
      before.push_back(c->ckpt_id);
  });
  p.assign_checkpoint_ids();  // no new ids
  std::vector<int> after;
  for_each_stmt(p, [&after](const Stmt& s) {
    if (const auto* c = dynamic_cast<const CheckpointStmt*>(&s))
      after.push_back(c->ckpt_id);
  });
  EXPECT_EQ(before, after);

  // A freshly inserted checkpoint gets a new id above the existing maximum.
  insert_after(p, 1, std::make_unique<CheckpointStmt>("new"));
  p.renumber();
  p.assign_checkpoint_ids();
  int fresh_id = -1;
  for_each_stmt(p, [&fresh_id](const Stmt& s) {
    if (const auto* c = dynamic_cast<const CheckpointStmt*>(&s))
      if (c->note == "new") fresh_id = c->ckpt_id;
  });
  EXPECT_GT(fresh_id, *std::max_element(before.begin(), before.end()));
}

TEST(Stmt, RecvAnyFactory) {
  auto r = RecvStmt::any(5);
  EXPECT_TRUE(r->any_source);
  EXPECT_EQ(r->tag, 5);
}

TEST(Stmt, KindNames) {
  EXPECT_STREQ(stmt_kind_name(StmtKind::kSend), "send");
  EXPECT_STREQ(stmt_kind_name(StmtKind::kCheckpoint), "checkpoint");
  EXPECT_STREQ(stmt_kind_name(StmtKind::kLoop), "for");
}

TEST(Stmt, BuilderLoopSugar) {
  ProgramBuilder b("loops");
  b.loop(3, [](ProgramBuilder& b) { b.compute(1.0); });
  b.loop(2, [](ProgramBuilder& b) { b.compute(1.0); });
  const Program p = b.take();
  ASSERT_EQ(p.body.size(), 2u);
  const auto& l0 = static_cast<const LoopStmt&>(*p.body.stmts[0]);
  const auto& l1 = static_cast<const LoopStmt&>(*p.body.stmts[1]);
  EXPECT_NE(l0.var, l1.var);  // fresh loop variables
  EXPECT_EQ(l0.hi.const_value(), 3);
}

// -- stmt_cast: the one kind → class map -------------------------------------

/// One null pointer per statement class.
using StmtClassTags =
    std::tuple<ComputeStmt*, SendStmt*, RecvStmt*, CheckpointStmt*, IfStmt*,
               LoopStmt*, BarrierStmt*, BcastStmt*, ReduceStmt*,
               AllreduceStmt*>;

/// Calls fn(tag) with a T* for every statement class T.
template <class Fn>
void for_each_class(const Fn& fn) {
  std::apply([&](auto... tag) { (fn(tag), ...); }, StmtClassTags{});
}

TEST(StmtCast, EveryKindBuildsTheClassTheHelperMapsItTo) {
  // One statement of every kind, as the parser (and clone) builds them.
  const Program parsed = parse(R"(program every_kind {
    compute 1.0;
    send to rank + 1;
    recv from any;
    checkpoint "c";
    if (rank == 0) { barrier; } else { bcast root 0; }
    for i in 0..2 { reduce root 0; }
    allreduce;
  })");
  const Program cloned = parsed.clone();
  std::set<StmtKind> kinds_seen;
  for (const Program* p : {&parsed, &cloned}) {
    for_each_stmt(*p, [&](const Stmt& s) {
      kinds_seen.insert(s.kind());
      int owners = 0;
      for_each_class([&](auto* tag) {
        using T = std::remove_pointer_t<decltype(tag)>;
        const T* cast = stmt_cast<T>(&s);
        if (T::kKind == s.kind()) {
          ++owners;
          // The helper maps the kind to the class the object really is.
          EXPECT_NE(cast, nullptr) << stmt_kind_name(s.kind());
          EXPECT_EQ(typeid(s), typeid(T)) << stmt_kind_name(s.kind());
        } else {
          EXPECT_EQ(cast, nullptr)
              << stmt_kind_name(s.kind()) << " cast to " << typeid(T).name();
        }
      });
      EXPECT_EQ(owners, 1) << stmt_kind_name(s.kind());
    });
  }
  EXPECT_EQ(kinds_seen.size(), std::tuple_size_v<StmtClassTags>);
}

TEST(StmtCast, NullAndMutableForms) {
  EXPECT_EQ(stmt_cast<IfStmt>(static_cast<Stmt*>(nullptr)), nullptr);
  EXPECT_EQ(stmt_cast<IfStmt>(static_cast<const Stmt*>(nullptr)), nullptr);
  Program p = jacobi_like();
  Stmt* loop = p.body.stmts[0].get();
  LoopStmt* as_loop = stmt_cast<LoopStmt>(loop);
  ASSERT_NE(as_loop, nullptr);
  as_loop->var = "renamed";
  EXPECT_EQ(static_cast<const LoopStmt&>(*p.body.stmts[0]).var, "renamed");
  EXPECT_EQ(stmt_cast<IfStmt>(loop), nullptr);
  EXPECT_EQ(stmt_cast<CheckpointStmt>(loop), nullptr);
}

}  // namespace

// Unit tests for CFG construction and analyses: node/edge shape, RPO,
// dominators, back edges, natural loops, reachability, checkpoint
// enumeration (S_i), and balance checking.
#include <gtest/gtest.h>

#include "cfg/cfg.h"
#include "mp/parser.h"
#include "util/error.h"

namespace {

using namespace acfc;
using cfg::Cfg;
using cfg::NodeId;
using cfg::NodeKind;

Cfg cfg_of(const std::string& source) {
  const mp::Program p = mp::parse(source);
  return cfg::build_cfg(p);
}

TEST(CfgBuild, StraightLine) {
  // entry -> compute -> chkpt -> exit
  mp::Program p = mp::parse("program t { compute 1.0; checkpoint; }");
  const Cfg g = cfg::build_cfg(p);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.node(g.entry()).kind, NodeKind::kEntry);
  EXPECT_EQ(g.node(g.exit()).kind, NodeKind::kExit);
  ASSERT_EQ(g.succs(g.entry()).size(), 1u);
  const NodeId compute = g.succs(g.entry())[0];
  EXPECT_EQ(g.node(compute).kind, NodeKind::kCompute);
  EXPECT_TRUE(g.back_edges().empty());
}

TEST(CfgBuild, IfProducesBranchAndJoin) {
  const Cfg g = cfg_of(
      "program t { if (rank == 0) { compute 1.0; } else { compute 2.0; } }");
  const auto branches = g.nodes_of_kind(NodeKind::kBranch);
  const auto joins = g.nodes_of_kind(NodeKind::kJoin);
  ASSERT_EQ(branches.size(), 1u);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(g.succs(branches[0].id).size(), 2u);
  EXPECT_EQ(g.preds(joins[0].id).size(), 2u);
}

TEST(CfgBuild, EmptyElseFallsThrough) {
  const Cfg g = cfg_of("program t { if (rank == 0) { compute 1.0; } }");
  const auto branch = g.nodes_of_kind(NodeKind::kBranch)[0];
  const auto join = g.nodes_of_kind(NodeKind::kJoin)[0];
  // One successor is the then-arm, the other is the join directly.
  bool direct = false;
  for (const NodeId s : g.succs(branch.id))
    if (s == join.id) direct = true;
  EXPECT_TRUE(direct);
}

TEST(CfgBuild, LoopHasHeaderLatchAndBackEdge) {
  const Cfg g = cfg_of("program t { loop 3 { compute 1.0; } }");
  const auto headers = g.nodes_of_kind(NodeKind::kLoopHeader);
  const auto latches = g.nodes_of_kind(NodeKind::kLoopLatch);
  ASSERT_EQ(headers.size(), 1u);
  ASSERT_EQ(latches.size(), 1u);
  ASSERT_EQ(g.back_edges().size(), 1u);
  EXPECT_EQ(g.back_edges()[0].from, latches[0].id);
  EXPECT_EQ(g.back_edges()[0].to, headers[0].id);
}

TEST(CfgBuild, NestedLoopsHaveTwoBackEdges) {
  const Cfg g =
      cfg_of("program t { loop 2 { loop 3 { compute 1.0; } } }");
  EXPECT_EQ(g.back_edges().size(), 2u);
}

TEST(CfgBuild, EmptyLoopBody) {
  const Cfg g = cfg_of("program t { loop 2 { } }");
  ASSERT_EQ(g.back_edges().size(), 1u);
}

TEST(CfgBuild, NodeForStmtLookup) {
  mp::Program p = mp::parse("program t { compute 1.0; checkpoint; }");
  const Cfg g = cfg::build_cfg(p);
  // uid 1 is the checkpoint.
  auto id = g.node_for_stmt(1);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(g.node(*id).kind, NodeKind::kCheckpoint);
  EXPECT_FALSE(g.node_for_stmt(999).has_value());
}

TEST(CfgBuild, CollectivesAreSingleNodes) {
  const Cfg g = cfg_of("program t { barrier; bcast root 0; }");
  EXPECT_EQ(g.nodes_of_kind(NodeKind::kCollective).size(), 2u);
}

TEST(CfgAnalysis, RpoStartsAtEntry) {
  const Cfg g = cfg_of("program t { loop 3 { compute 1.0; } compute 2.0; }");
  ASSERT_FALSE(g.rpo().empty());
  EXPECT_EQ(g.rpo().front(), g.entry());
}

TEST(CfgAnalysis, DominatorsOnStraightLine) {
  const Cfg g = cfg_of("program t { compute 1.0; checkpoint; }");
  // Entry dominates everything; each node dominates its successor chain.
  for (NodeId id = 0; id < g.node_count(); ++id)
    EXPECT_TRUE(g.dominates(g.entry(), id));
  EXPECT_TRUE(g.dominates(g.succs(g.entry())[0], g.exit()));
  EXPECT_FALSE(g.dominates(g.exit(), g.entry()));
}

TEST(CfgAnalysis, BranchArmsDoNotDominateJoin) {
  const Cfg g = cfg_of(
      "program t { if (rank == 0) { compute 1.0; } else { compute 2.0; } }");
  const auto branch = g.nodes_of_kind(NodeKind::kBranch)[0];
  const auto join = g.nodes_of_kind(NodeKind::kJoin)[0];
  EXPECT_TRUE(g.dominates(branch.id, join.id));
  for (const auto& n : g.nodes_of_kind(NodeKind::kCompute))
    EXPECT_FALSE(g.dominates(n.id, join.id));
}

TEST(CfgAnalysis, LoopHeaderDominatesBody) {
  const Cfg g = cfg_of("program t { loop 3 { compute 1.0; checkpoint; } }");
  const auto header = g.nodes_of_kind(NodeKind::kLoopHeader)[0];
  for (const auto& n : g.nodes_of_kind(NodeKind::kCompute))
    EXPECT_TRUE(g.dominates(header.id, n.id));
  for (const auto& n : g.nodes_of_kind(NodeKind::kCheckpoint))
    EXPECT_TRUE(g.dominates(header.id, n.id));
}

TEST(CfgAnalysis, ReachabilityFullVsAcyclic) {
  const Cfg g = cfg_of("program t { loop 3 { compute 1.0; } }");
  const auto header = g.nodes_of_kind(NodeKind::kLoopHeader)[0];
  const auto latch = g.nodes_of_kind(NodeKind::kLoopLatch)[0];
  EXPECT_TRUE(g.reaches(latch.id, header.id));          // via back edge
  EXPECT_FALSE(g.reaches_acyclic(latch.id, header.id)); // not without it
  EXPECT_TRUE(g.reaches_acyclic(header.id, latch.id));
  EXPECT_TRUE(g.reaches(g.entry(), g.exit()));
  EXPECT_TRUE(g.reaches(header.id, header.id));  // reflexive
}

TEST(CfgCheckpoint, StraightLineIndexing) {
  const Cfg g = cfg_of("program t { checkpoint; compute 1.0; checkpoint; }");
  const auto idx = g.index_checkpoints();
  EXPECT_EQ(idx.max_index(), 2);
  EXPECT_EQ(idx.collections[0].size(), 1u);
  EXPECT_EQ(idx.collections[1].size(), 1u);
}

TEST(CfgCheckpoint, BranchArmsShareIndex) {
  // The two C_1 nodes of the paper's Figure 2/4: one per arm.
  const Cfg g = cfg_of(
      "program t { if (rank % 2 == 0) { checkpoint; compute 1.0; } "
      "else { compute 1.0; checkpoint; } }");
  const auto idx = g.index_checkpoints();
  EXPECT_EQ(idx.max_index(), 1);
  EXPECT_EQ(idx.collections[0].size(), 2u);
  for (const auto& [node, i] : idx.index_of) EXPECT_EQ(i, 1);
}

TEST(CfgCheckpoint, LoopCheckpointSingleIndexEveryIteration) {
  // Definition 2.3: a checkpoint inside a loop keeps one static index.
  const Cfg g = cfg_of(
      "program t { loop 5 { compute 1.0; checkpoint; } checkpoint; }");
  const auto idx = g.index_checkpoints();
  EXPECT_EQ(idx.max_index(), 2);
  // The in-loop checkpoint is C_1, the one after the loop is C_2.
  const auto ckpts = g.nodes_of_kind(NodeKind::kCheckpoint);
  ASSERT_EQ(ckpts.size(), 2u);
}

TEST(CfgCheckpoint, UnbalancedArmsThrow) {
  const Cfg g = cfg_of(
      "program t { if (rank == 0) { checkpoint; } else { compute 1.0; } }");
  EXPECT_TRUE(g.check_balance().has_value());
  EXPECT_THROW(g.index_checkpoints(), util::ProgramError);
}

TEST(CfgCheckpoint, BalancedNestedStructure) {
  const Cfg g = cfg_of(
      "program t { loop 2 { if (rank == 0) { checkpoint; compute 1.0; } "
      "else { checkpoint; } } checkpoint; }");
  EXPECT_FALSE(g.check_balance().has_value());
  const auto idx = g.index_checkpoints();
  EXPECT_EQ(idx.max_index(), 2);
  EXPECT_EQ(idx.collections[0].size(), 2u);  // both arms' C_1
  EXPECT_EQ(idx.collections[1].size(), 1u);
}

TEST(CfgCheckpoint, UnbalancedAcrossJoinDetected) {
  // Imbalance shows up downstream of the join, not inside the arms.
  const Cfg g = cfg_of(
      "program t { if (rank == 0) { checkpoint; checkpoint; } "
      "else { checkpoint; } compute 1.0; }");
  EXPECT_TRUE(g.check_balance().has_value());
}

TEST(CfgDot, RendersWithBackEdgeAndMessageEdges) {
  // to_dot formats node labels from the originating statements, so the
  // Program must outlive the Cfg here (unlike the id/kind-only tests).
  const mp::Program p = mp::parse("program t { loop 2 { checkpoint; } }");
  const Cfg g = cfg::build_cfg(p);
  const auto ckpt = g.nodes_of_kind(NodeKind::kCheckpoint)[0];
  const std::string dot =
      g.to_dot("demo", {{ckpt.id, ckpt.id}});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("back"), std::string::npos);
  EXPECT_NE(dot.find("msg"), std::string::npos);
}

TEST(CfgJacobi, Figure1ShapeAndIndexing) {
  // Paper Figure 1: checkpoint at the top of the while body for all ranks.
  const Cfg g = cfg_of(R"(
    program jacobi1 {
      for it in 0 .. 10 {
        checkpoint;
        compute 5.0;
        if (rank % 2 == 0) {
          send to rank + 1; recv from rank + 1;
        } else {
          send to rank - 1; recv from rank - 1;
        }
      }
    })");
  const auto idx = g.index_checkpoints();
  EXPECT_EQ(idx.max_index(), 1);
  EXPECT_EQ(idx.collections[0].size(), 1u);
  EXPECT_EQ(g.back_edges().size(), 1u);
}

TEST(CfgJacobi, Figure2ShapeAndIndexing) {
  // Paper Figure 2: checkpoint before comm on even ranks, after on odd.
  const Cfg g = cfg_of(R"(
    program jacobi2 {
      for it in 0 .. 10 {
        compute 5.0;
        if (rank % 2 == 0) {
          checkpoint; send to rank + 1; recv from rank + 1;
        } else {
          send to rank - 1; recv from rank - 1; checkpoint;
        }
      }
    })");
  const auto idx = g.index_checkpoints();
  EXPECT_EQ(idx.max_index(), 1);
  EXPECT_EQ(idx.collections[0].size(), 2u);  // C_1 appears on both paths
}

}  // namespace

// Unit tests for Phase II (Algorithm 3.1): extended-CFG construction,
// message-edge matching on the paper's figures, matching policies, and
// path classification (the reference BFS of tests/place_reference.h, which
// place::check_condition1 must agree with).
#include <gtest/gtest.h>

#include "match/match.h"
#include "mp/lower.h"
#include "mp/parser.h"
#include "place/place.h"
#include "place_reference.h"

namespace {

using namespace acfc;
using match::build_extended_cfg;
using match::ExtendedCfg;
using match::MatchOptions;
using match::MatchPolicy;
using place::reference::classify_paths;

/// classify_paths(ext, from, to), expected to equal check_condition1's
/// verdict on the pair (both members of one S_i).
match::PathClass classify_checked(const ExtendedCfg& ext, cfg::NodeId from,
                                  cfg::NodeId to) {
  const match::PathClass pc = classify_paths(ext, from, to);
  const match::PathClass engine = place::reference::path_class_in(
      place::check_condition1(ext), from, to);
  EXPECT_EQ(engine.has_message_path, pc.has_message_path);
  EXPECT_EQ(engine.message_path_without_back_edge,
            pc.message_path_without_back_edge);
  return pc;
}

constexpr const char* kJacobi2 = R"(
  program jacobi2 {
    for it in 0 .. 10 {
      compute 5.0;
      if (rank % 2 == 0) {
        checkpoint "even";
        send to rank + 1 tag 1;
        recv from rank + 1 tag 1;
      } else {
        send to rank - 1 tag 1;
        recv from rank - 1 tag 1;
        checkpoint "odd";
      }
    }
  })";

TEST(Match, Jacobi2MessageEdges) {
  const mp::Program p = mp::parse(kJacobi2);
  const ExtendedCfg ext = build_extended_cfg(p);
  // The paper's Figure 4: even-send ↔ odd-recv and odd-send ↔ even-recv.
  // Even's dest rank+1 is odd; odd's dest rank-1 is even. No same-parity
  // edges can exist.
  EXPECT_EQ(ext.message_edges().size(), 2u);
  for (const auto& e : ext.message_edges()) {
    const auto& send_stmt =
        *static_cast<const mp::SendStmt*>(ext.graph().node(e.send).stmt);
    const auto& recv_stmt =
        *static_cast<const mp::RecvStmt*>(ext.graph().node(e.recv).stmt);
    EXPECT_EQ(send_stmt.tag, recv_stmt.tag);
    // Witness sender/receiver differ in parity.
    EXPECT_NE(e.witness.sender % 2, e.witness.receiver % 2);
  }
}

TEST(Match, TagMismatchPreventsMatching) {
  const mp::Program p = mp::parse(R"(
    program t {
      if (rank == 0) { send to 1 tag 5; } else { recv from 0 tag 6; }
    })");
  const ExtendedCfg ext = build_extended_cfg(p);
  EXPECT_TRUE(ext.message_edges().empty());
}

TEST(Match, RingShiftSelfStatementMatch) {
  // A single send+recv pair used by every rank: the send node matches the
  // recv node (different processes execute the same statements).
  const mp::Program p = mp::parse(R"(
    program ring {
      send to (rank + 1) % nprocs tag 2;
      recv from (rank - 1 + nprocs) % nprocs tag 2;
    })");
  const ExtendedCfg ext = build_extended_cfg(p);
  ASSERT_EQ(ext.message_edges().size(), 1u);
  const auto& e = ext.message_edges()[0];
  EXPECT_EQ(ext.graph().node(e.send).kind, cfg::NodeKind::kSend);
  EXPECT_EQ(ext.graph().node(e.recv).kind, cfg::NodeKind::kRecv);
}

TEST(Match, MasterGatherEdges) {
  const mp::Program p = mp::parse(R"(
    program gather {
      if (rank == 0) {
        for w in 1 .. nprocs { recv from w tag 3; }
      } else {
        send to 0 tag 3;
      }
    })");
  const ExtendedCfg ext = build_extended_cfg(p);
  ASSERT_EQ(ext.message_edges().size(), 1u);
  EXPECT_EQ(ext.message_edges()[0].witness.receiver, 0);
}

TEST(Match, AnySourceMatchesAllCompatibleSends) {
  const mp::Program p = mp::parse(R"(
    program anysrc {
      if (rank == 0) {
        recv from any tag 4;
      } else {
        if (rank == 1) { send to 0 tag 4; } else { send to 0 tag 4; }
      }
    })");
  const ExtendedCfg ext = build_extended_cfg(p);
  // Both send statements match the wildcard receive.
  EXPECT_EQ(ext.message_edges().size(), 2u);
}

TEST(Match, PaperGreedyIsOneToOneForRegularPatterns) {
  // Two textually identical guarded exchanges: conservative matching
  // cross-matches them (same tags and attributes), greedy pairs first-fit.
  const mp::Program p = mp::parse(R"(
    program twophase {
      if (rank == 0) { send to 1 tag 7; } else { recv from 0 tag 7; }
      if (rank == 0) { send to 1 tag 7; } else { recv from 0 tag 7; }
    })");
  MatchOptions conservative;
  const ExtendedCfg ext_c = build_extended_cfg(p, conservative);
  EXPECT_EQ(ext_c.message_edges().size(), 4u);  // 2 sends × 2 recvs

  MatchOptions greedy;
  greedy.policy = MatchPolicy::kPaperGreedy;
  const ExtendedCfg ext_g = build_extended_cfg(p, greedy);
  EXPECT_EQ(ext_g.message_edges().size(), 2u);  // one edge per pair
}

TEST(Match, GreedyStillMultiMatchesIrregular) {
  const mp::Program p = mp::parse(R"(
    program irr {
      if (rank == 0) {
        recv from any tag 1;
      } else {
        if (rank == 1) { send to 0 tag 1; } else { send to 0 tag 1; }
      }
    })");
  MatchOptions greedy;
  greedy.policy = MatchPolicy::kPaperGreedy;
  const ExtendedCfg ext = build_extended_cfg(p, greedy);
  EXPECT_EQ(ext.message_edges().size(), 2u);
}

TEST(Match, CollectiveGetsSelfEdge) {
  const mp::Program p = mp::parse("program t { barrier; }");
  const ExtendedCfg ext = build_extended_cfg(p);
  ASSERT_EQ(ext.message_edges().size(), 1u);
  EXPECT_EQ(ext.message_edges()[0].send, ext.message_edges()[0].recv);
  EXPECT_EQ(ext.graph().node(ext.message_edges()[0].send).kind,
            cfg::NodeKind::kCollective);
}

TEST(Match, LoweredCollectiveMatchesPointToPoint) {
  const mp::Program p = mp::parse("program t { bcast root 0; }");
  const mp::Program lowered = mp::lower_collectives(p);
  const ExtendedCfg ext = build_extended_cfg(lowered);
  // Root's guarded send-to-w matches the non-root recv-from-0.
  ASSERT_GE(ext.message_edges().size(), 1u);
  for (const auto& e : ext.message_edges())
    EXPECT_NE(e.send, e.recv);
}

TEST(Match, EdgesFromAndTo) {
  const mp::Program p = mp::parse(kJacobi2);
  const ExtendedCfg ext = build_extended_cfg(p);
  for (const auto& e : ext.message_edges()) {
    const auto from = ext.edges_from(e.send);
    ASSERT_FALSE(from.empty());
    EXPECT_EQ(from[0].send, e.send);
    const auto to = ext.edges_to(e.recv);
    ASSERT_FALSE(to.empty());
    EXPECT_EQ(to[0].recv, e.recv);
  }
}

TEST(MatchPaths, MisalignedJacobiHasHardPath) {
  // Figure 2/3: even's checkpoint → even's send ⇒ odd's recv → odd's
  // checkpoint, all within one iteration — a message path with no back
  // edge between the two members of S_1.
  const mp::Program p = mp::parse(kJacobi2);
  const ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  ASSERT_EQ(ckpts.size(), 2u);
  // Find which is "even" (appears before send in its arm).
  cfg::NodeId even = cfg::kNoNode, odd = cfg::kNoNode;
  for (const auto& n : ckpts) {
    const auto& c = *static_cast<const mp::CheckpointStmt*>(n.stmt);
    (c.note == "even" ? even : odd) = n.id;
  }
  const auto pc = classify_checked(ext, even, odd);
  EXPECT_TRUE(pc.has_message_path);
  EXPECT_TRUE(pc.message_path_without_back_edge);
  // The reverse direction only exists across iterations (via back edge).
  const auto rev = classify_checked(ext, odd, even);
  EXPECT_TRUE(rev.has_message_path);
  EXPECT_FALSE(rev.message_path_without_back_edge);
}

TEST(MatchPaths, AlignedJacobiHasOnlyLoopCarriedPaths) {
  // Figure 1: checkpoint at the top of the loop body for everyone; the
  // only message paths between members of S_1 cross the back edge.
  const mp::Program p = mp::parse(R"(
    program jacobi1 {
      for it in 0 .. 10 {
        checkpoint;
        compute 5.0;
        if (rank % 2 == 0) {
          send to rank + 1 tag 1; recv from rank + 1 tag 1;
        } else {
          send to rank - 1 tag 1; recv from rank - 1 tag 1;
        }
      }
    })");
  const ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  ASSERT_EQ(ckpts.size(), 1u);
  const auto pc = classify_checked(ext, ckpts[0].id, ckpts[0].id);
  EXPECT_TRUE(pc.has_message_path);
  EXPECT_FALSE(pc.message_path_without_back_edge);
}

TEST(MatchPaths, NoMessagePathWithoutCommunication) {
  const mp::Program p = mp::parse(R"(
    program quiet {
      if (rank % 2 == 0) { checkpoint; compute 1.0; }
      else { compute 1.0; checkpoint; }
    })");
  const ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  ASSERT_EQ(ckpts.size(), 2u);
  const auto pc = classify_checked(ext, ckpts[0].id, ckpts[1].id);
  EXPECT_FALSE(pc.has_message_path);
}

TEST(MatchPaths, DotContainsMessageEdges) {
  const mp::Program p = mp::parse(kJacobi2);
  const ExtendedCfg ext = build_extended_cfg(p);
  const std::string dot = ext.to_dot("jacobi2");
  EXPECT_NE(dot.find("msg"), std::string::npos);
}

}  // namespace

// Tests for the reduce/allreduce collectives across the full chain:
// parser/printer, lowering shape, native simulator semantics (blocking,
// clock merging), native-vs-lowered equivalence, CFG/matching treatment,
// safety of checkpointed reduction loops after repair, and the engine's
// errors for collective rounds whose members disagree.
#include <gtest/gtest.h>

#include <string>

#include "match/match.h"
#include "mp/generate.h"
#include "mp/lower.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "sim/engine.h"
#include "trace/analysis.h"
#include "util/error.h"

namespace {

using namespace acfc;

TEST(Collectives, ParseAndPrintRoundTrip) {
  const mp::Program p = mp::parse(
      "program c { reduce root 0 tag 2 bytes 64; allreduce tag 3 bytes 8; "
      "reduce root nprocs - 1; }");
  EXPECT_EQ(p.body.stmts[0]->kind(), mp::StmtKind::kReduce);
  EXPECT_EQ(p.body.stmts[1]->kind(), mp::StmtKind::kAllreduce);
  const mp::Program q = mp::parse(mp::print(p));
  EXPECT_EQ(mp::print(q), mp::print(p));
}

TEST(Collectives, DetectedAsCollectives) {
  EXPECT_TRUE(mp::has_collectives(mp::parse("program t { reduce root 0; }")));
  EXPECT_TRUE(mp::has_collectives(mp::parse("program t { allreduce; }")));
}

TEST(Collectives, LowerReduceShape) {
  const mp::Program q =
      mp::lower_collectives(mp::parse("program t { reduce root 0 bytes 32; }"));
  EXPECT_FALSE(mp::has_collectives(q));
  // Root arm: a receive loop; contributor arm: one send of 32 bytes.
  const auto& iff = static_cast<const mp::IfStmt&>(*q.body.stmts[0]);
  EXPECT_EQ(iff.then_body.stmts[0]->kind(), mp::StmtKind::kLoop);
  ASSERT_EQ(iff.else_body.size(), 1u);
  const auto& send = static_cast<const mp::SendStmt&>(*iff.else_body.stmts[0]);
  EXPECT_EQ(send.bytes, 32);
}

TEST(Collectives, LowerAllreduceIsReducePlusBcast) {
  const mp::Program q =
      mp::lower_collectives(mp::parse("program t { allreduce tag 1; }"));
  EXPECT_FALSE(mp::has_collectives(q));
  // Two top-level if statements: the reduce phase then the bcast phase.
  ASSERT_EQ(q.body.size(), 2u);
  EXPECT_EQ(q.body.stmts[0]->kind(), mp::StmtKind::kIf);
  EXPECT_EQ(q.body.stmts[1]->kind(), mp::StmtKind::kIf);
}

TEST(Collectives, NativeReduceBlocksRootOnly) {
  // Non-root ranks continue past the reduce immediately; the root waits
  // for the slowest contributor.
  const auto r = sim::simulate(mp::parse(R"(
    program red {
      if (rank == 1) { compute 50.0; } else { compute 1.0; }
      reduce root 0 bytes 16;
      compute 1.0;
    })"),
                               3);
  ASSERT_TRUE(r.trace.completed);
  // Rank 2's post-reduce compute finishes near t=2; rank 0's waits for
  // rank 1 (t≈50) first.
  double rank2_done = 0, rank0_done = 0;
  for (const auto& e : r.trace.events) {
    if (e.kind != trace::EventKind::kFinish) continue;
    if (e.proc == 2) rank2_done = e.time;
    if (e.proc == 0) rank0_done = e.time;
  }
  EXPECT_LT(rank2_done, 10.0);
  EXPECT_GT(rank0_done, 50.0);
}

TEST(Collectives, NativeReduceOrdersContributionsBeforeRoot) {
  const auto r = sim::simulate(
      mp::parse("program red { compute 1.0; reduce root 0; }"), 3);
  ASSERT_TRUE(r.trace.completed);
  // The root's collective event must causally follow every contributor's.
  const trace::EventRec* root_event = nullptr;
  std::vector<const trace::EventRec*> contributors;
  for (const auto& e : r.trace.events) {
    if (e.kind != trace::EventKind::kCollective) continue;
    if (e.proc == 0) {
      root_event = &e;
    } else {
      contributors.push_back(&e);
    }
  }
  ASSERT_NE(root_event, nullptr);
  ASSERT_EQ(contributors.size(), 2u);
  for (const auto* c : contributors)
    EXPECT_TRUE(c->vc.happened_before(root_event->vc));
}

TEST(Collectives, NativeAllreduceSynchronizesEveryone) {
  const auto r = sim::simulate(mp::parse(R"(
    program ar {
      if (rank == 0) { compute 20.0; } else { compute 1.0; }
      allreduce bytes 8;
      compute 1.0;
    })"),
                               3);
  ASSERT_TRUE(r.trace.completed);
  // Nobody finishes before the slowest process reaches the allreduce.
  for (const auto& e : r.trace.events) {
    if (e.kind == trace::EventKind::kFinish) {
      EXPECT_GT(e.time, 20.0);
    }
  }
  // All collective events are pairwise clock-equal or ordered only by the
  // merge: each saw every other's contribution.
  std::vector<trace::VClock> vcs;
  for (const auto& e : r.trace.events)
    if (e.kind == trace::EventKind::kCollective) vcs.push_back(e.vc);
  ASSERT_EQ(vcs.size(), 3u);
  for (const auto& a : vcs)
    for (const auto& b : vcs) EXPECT_FALSE(a.happened_before(b));
}

TEST(Collectives, NativeAndLoweredBothComplete) {
  const mp::Program native = mp::parse(
      "program c { compute 1.0; reduce root 0 bytes 8; allreduce; }");
  const mp::Program lowered = mp::lower_collectives(native);
  const auto rn = sim::simulate(native, 4);
  const auto rl = sim::simulate(lowered, 4);
  EXPECT_TRUE(rn.trace.completed);
  EXPECT_TRUE(rl.trace.completed);
  // Lowered reduce: n−1 sends; lowered allreduce: (n−1) + (n−1).
  EXPECT_EQ(rl.stats.app_messages, 3 + 3 + 3);
}

TEST(Collectives, CfgTreatsThemAsCollectiveNodes) {
  const mp::Program p =
      mp::parse("program c { reduce root 0; allreduce; }");
  const auto g = cfg::build_cfg(p);
  EXPECT_EQ(g.nodes_of_kind(cfg::NodeKind::kCollective).size(), 2u);
}

TEST(Collectives, MatchingAddsSelfEdges) {
  const mp::Program p =
      mp::parse("program c { reduce root 0; allreduce; }");
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  // Self edges on both; no cross edges (different kinds).
  int self = 0, cross = 0;
  for (const auto& e : ext.message_edges())
    (e.send == e.recv ? self : cross)++;
  EXPECT_EQ(self, 2);
  EXPECT_EQ(cross, 0);
}

TEST(Collectives, MisalignedCheckpointAroundReduceIsRepaired) {
  mp::Program p = mp::parse(R"(
    program red {
      loop 3 {
        compute 2.0;
        if (rank % 2 == 0) { checkpoint "even"; reduce root 0 bytes 8; }
        else { reduce root 0 bytes 8; checkpoint "odd"; }
      }
    })");
  const auto before = place::check_condition1(match::build_extended_cfg(p));
  EXPECT_GE(before.hard_count(), 1);
  const auto report = place::repair_placement(p);
  ASSERT_TRUE(report.success);
  // Validate on the lowered execution (collectives are bidirectional
  // causality, so straight cuts must now be consistent).
  const auto result = sim::simulate(p, 4, 1);
  ASSERT_TRUE(result.trace.completed);
  for (const auto& cut : trace::all_straight_cuts(result.trace))
    EXPECT_TRUE(trace::analyze_cut(result.trace, cut).consistent)
        << mp::print(p);
}

TEST(Collectives, GeneratedProgramsWithAllCollectivesRunSafely) {
  for (std::uint64_t seed = 30; seed < 38; ++seed) {
    mp::GenerateOptions gopts;
    gopts.seed = seed;
    gopts.segments = 8;
    gopts.allow_collectives = true;
    mp::Program program = mp::generate_program(gopts);
    const auto report = place::repair_placement(program);
    ASSERT_TRUE(report.success) << mp::print(program);
    const auto result = sim::simulate(program, 4, seed);
    ASSERT_TRUE(result.trace.completed) << mp::print(program);
    for (const auto& cut : trace::all_straight_cuts(result.trace))
      EXPECT_TRUE(trace::analyze_cut(result.trace, cut).consistent)
          << mp::print(program);
  }
}

// Sequence-matched rounds must agree on kind and root. Rank 0 always
// joins first (every wake is queued at t=0 in rank order), so it fixes the
// round and the first disagreeing rank throws.

/// Runs `text` on 3 processes and returns the ProgramError it must throw.
std::string mismatch_error(const char* text) {
  const mp::Program program = mp::parse(text);
  try {
    sim::simulate(program, 3);
  } catch (const util::ProgramError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no ProgramError for " << text;
  return "";
}

TEST(CollectiveMismatch, BcastJoiningABarrierRoundThrows) {
  const std::string what = mismatch_error(R"(
    program m { if (rank == 0) { barrier; } else { bcast root 0; } })");
  EXPECT_EQ(what.rfind("collective mismatch", 0), 0u) << what;
  EXPECT_NE(what.find("inconsistent bcast round"), std::string::npos) << what;
}

TEST(CollectiveMismatch, ReduceWithTwoRootsThrows) {
  const std::string what = mismatch_error(R"(
    program m {
      if (rank == 0) { reduce root 0; } else { reduce root 1; }
    })");
  EXPECT_EQ(what.rfind("collective mismatch", 0), 0u) << what;
  EXPECT_NE(what.find("inconsistent reduce round"), std::string::npos)
      << what;
}

TEST(CollectiveMismatch, BcastWithTwoRootsThrows) {
  const std::string what = mismatch_error(R"(
    program m {
      if (rank == 0) { bcast root 0; } else { bcast root 2; }
    })");
  EXPECT_EQ(what.rfind("collective mismatch", 0), 0u) << what;
  EXPECT_NE(what.find("inconsistent bcast round"), std::string::npos) << what;
}

TEST(CollectiveMismatch, BarrierJoiningAnAllreduceRoundThrows) {
  const std::string what = mismatch_error(R"(
    program m { if (rank == 0) { allreduce; } else { barrier; } })");
  EXPECT_EQ(what.rfind("collective mismatch", 0), 0u) << what;
  EXPECT_NE(what.find("barrier joined a non-barrier round"),
            std::string::npos)
      << what;
}

TEST(CollectiveMismatch, AllreduceJoiningABarrierRoundThrows) {
  const std::string what = mismatch_error(R"(
    program m { if (rank == 0) { barrier; } else { allreduce; } })");
  EXPECT_EQ(what.rfind("collective mismatch", 0), 0u) << what;
  EXPECT_NE(what.find("allreduce joined a different round"),
            std::string::npos)
      << what;
}

}  // namespace

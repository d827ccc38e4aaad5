// Unit tests for the trace analyses: cut consistency (orphans /
// in-transit), straight cuts, maximal recovery lines, rollback-dependency
// graphs, and zigzag (useless-checkpoint) detection — exercised on real
// simulated executions.
#include <gtest/gtest.h>

#include "mp/parser.h"
#include "sim/engine.h"
#include "trace/analysis.h"

namespace {

using namespace acfc;
using trace::analyze_cut;
using trace::Cut;
using trace::Trace;

Trace run(const std::string& source, int nprocs) {
  const mp::Program p = mp::parse(source);
  auto result = sim::simulate(p, nprocs);
  EXPECT_TRUE(result.trace.completed);
  return std::move(result.trace);
}

// Misaligned Jacobi (paper Figure 2): even checkpoints before the
// exchange, odd after.
constexpr const char* kMisaligned = R"(
  program mis {
    loop 3 {
      compute 1.0;
      if (rank % 2 == 0) {
        checkpoint "even";
        if (rank + 1 < nprocs) {
          send to rank + 1 tag 1;
          recv from rank + 1 tag 1;
        }
      } else {
        send to rank - 1 tag 1;
        recv from rank - 1 tag 1;
        checkpoint "odd";
      }
    }
  })";

// Aligned Jacobi (paper Figure 1).
constexpr const char* kAligned = R"(
  program ali {
    loop 3 {
      checkpoint;
      compute 1.0;
      if (rank % 2 == 0) {
        if (rank + 1 < nprocs) {
          send to rank + 1 tag 1;
          recv from rank + 1 tag 1;
        }
      } else {
        send to rank - 1 tag 1;
        recv from rank - 1 tag 1;
      }
    }
  })";

TEST(TraceCut, InitialCutIsConsistent) {
  const Trace t = run("program t { compute 1.0; }", 2);
  Cut cut;
  cut.member = {-1, -1};
  EXPECT_TRUE(analyze_cut(t, cut).consistent);
}

TEST(TraceCut, MisalignedStraightCutsInconsistent) {
  // Paper Figure 3: the straight cuts of the misaligned program are not
  // recovery lines.
  const Trace t = run(kMisaligned, 2);
  const auto cuts = trace::all_straight_cuts(t);
  ASSERT_FALSE(cuts.empty());
  int inconsistent = 0;
  for (const auto& cut : cuts) {
    const auto a = analyze_cut(t, cut);
    if (!a.consistent) {
      ++inconsistent;
      EXPECT_FALSE(a.orphan_msgs.empty());
    }
  }
  EXPECT_GT(inconsistent, 0);
}

TEST(TraceCut, AlignedStraightCutsConsistent) {
  const Trace t = run(kAligned, 4);
  const auto cuts = trace::all_straight_cuts(t);
  ASSERT_EQ(cuts.size(), 3u);  // one per iteration
  for (const auto& cut : cuts) EXPECT_TRUE(analyze_cut(t, cut).consistent);
}

TEST(TraceCut, StraightCutMissingInstanceIsNull) {
  const Trace t = run(kAligned, 2);
  EXPECT_TRUE(trace::straight_cut(t, 1, 0).has_value());
  EXPECT_FALSE(trace::straight_cut(t, 1, 99).has_value());
  EXPECT_FALSE(trace::straight_cut(t, 7, 0).has_value());
}

TEST(TraceCut, InTransitDetection) {
  // Sender checkpoints after send; receiver checkpoints before its recv
  // (which happens much later): the message crosses the cut.
  const Trace t = run(R"(
    program transit {
      if (rank == 0) {
        send to 1 tag 1;
        checkpoint;
      } else {
        checkpoint;
        compute 5.0;
        recv from 0 tag 1;
      }
    })",
                      2);
  const auto cut = trace::straight_cut(t, 1, 0);
  ASSERT_TRUE(cut.has_value());
  const auto a = analyze_cut(t, *cut);
  EXPECT_TRUE(a.consistent);  // in-transit does not break consistency
  EXPECT_EQ(a.in_transit_msgs.size(), 1u);
}

TEST(TraceRecovery, AlignedRollsBackToLatest) {
  const Trace t = run(kAligned, 4);
  // Fail right at the end: every process restores its latest checkpoint
  // without extra rollback... the latest checkpoints may straddle one
  // iteration boundary; demotion is bounded by one instance.
  const auto line = trace::max_recovery_line(t, t.end_time + 1.0);
  EXPECT_TRUE(line.consistent);
  for (const int r : line.rollbacks) EXPECT_LE(r, 1);
}

TEST(TraceRecovery, MisalignedNeedsDemotion) {
  const Trace t = run(kMisaligned, 2);
  // Pick a failure time right after an even checkpoint completes but
  // before the odd one: the greedy demotion must still find a consistent
  // line.
  for (double frac : {0.3, 0.5, 0.7, 0.9}) {
    const auto line = trace::max_recovery_line(t, frac * t.end_time);
    EXPECT_TRUE(line.consistent);
  }
}

TEST(TraceRecovery, EmptyHistoryFallsBackToInitial) {
  const Trace t = run("program t { compute 5.0; }", 3);
  const auto line = trace::max_recovery_line(t, 1.0);
  EXPECT_TRUE(line.consistent);
  for (const int m : line.cut.member) EXPECT_EQ(m, -1);
}

TEST(TraceRecovery, FailureAtTimeZeroRestoresInitialStates) {
  // Nothing can be committed at t = 0 (kMisaligned's first checkpoints
  // commit only after the first compute): the line is the all-initial
  // cut with zero demotions and zero lost work.
  const Trace t = run(kMisaligned, 4);
  const auto line = trace::max_recovery_line(t, 0.0);
  EXPECT_TRUE(line.consistent);
  for (const int m : line.cut.member) EXPECT_EQ(m, -1);
  for (const int r : line.rollbacks) EXPECT_EQ(r, 0);
  EXPECT_EQ(line.lost_work, 0.0);
}

TEST(TraceRecovery, FailureAfterFinalCheckpointUsesTailCheckpoints) {
  // A failure long after the last checkpoint commit: every member is that
  // process's final checkpoint, and the lost work grows with the gap
  // (tail work past the last checkpoint is lost too).
  const Trace t = run(kAligned, 4);
  const auto line = trace::max_recovery_line(t, t.end_time + 100.0);
  EXPECT_TRUE(line.consistent);
  for (size_t p = 0; p < line.cut.member.size(); ++p) {
    ASSERT_GE(line.cut.member[p], 0) << "process " << p;
    // No committed checkpoint of p may postdate the chosen member.
    const auto& chosen =
        t.checkpoints[static_cast<size_t>(line.cut.member[p])];
    for (const auto& c : t.checkpoints) {
      if (c.proc == static_cast<int>(p) &&
          line.rollbacks[p] == 0) {  // latest-checkpoint member
        EXPECT_LE(c.t_commit, chosen.t_commit + 1e-12);
      }
    }
  }
  EXPECT_GT(line.lost_work, 0.0);
}

TEST(TraceRecovery, ProcessThatNeverCheckpointsDragsPeersBack) {
  // Process 1 never checkpoints, so its member is always the initial
  // state; greedy demotion must drag any peer checkpoint that received
  // from it below the orphan horizon while staying consistent.
  const Trace t = run(R"(
    program lopsided {
      loop 3 {
        compute 1.0;
        if (rank == 0) {
          checkpoint;
          recv from 1 tag 1;
        }
        if (rank == 1) {
          send to 0 tag 1;
        }
      }
    })", 2);
  for (const double frac : {0.4, 0.8, 1.1}) {
    const auto line = trace::max_recovery_line(t, frac * t.end_time);
    EXPECT_TRUE(line.consistent);
    EXPECT_EQ(line.cut.member[1], -1);  // nothing stored, ever
    // Consistency re-check: the chosen cut really has no orphans.
    EXPECT_TRUE(analyze_cut(t, line.cut).consistent);
    // Process 0's checkpoint at iteration i has consumed i messages that
    // all postdate 1's (initial) cut state, so any member past iteration
    // 0 would orphan them: the greedy demotion must land on the
    // receive-free first checkpoint or the initial state.
    if (line.cut.member[0] >= 0) {
      const auto& chosen =
          t.checkpoints[static_cast<size_t>(line.cut.member[0])];
      for (const auto& c : t.checkpoints) {
        if (c.proc == 0) {
          EXPECT_LE(chosen.t_commit, c.t_commit + 1e-12);
        }
      }
    }
    // Once the whole run is visible, the latest checkpoint (iteration 2,
    // two consumed messages) must be demoted at least once.
    if (frac > 1.0) {
      EXPECT_GE(line.rollbacks[0], 1);
    }
  }
}

TEST(TraceRGraph, EdgesFollowMessages) {
  const Trace t = run(R"(
    program rg {
      if (rank == 0) {
        checkpoint;
        send to 1 tag 1;
      } else {
        recv from 0 tag 1;
        checkpoint;
      }
    })",
                      2);
  const auto g = trace::build_rgraph(t);
  EXPECT_EQ(g.nprocs, 2);
  // Proc 0: 1 checkpoint → 2 intervals; message sent in interval 1 of
  // proc 0 (after its checkpoint), received in interval 0 of proc 1.
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_EQ(g.edges[0].from_proc, 0);
  EXPECT_EQ(g.edges[0].from_interval, 1);
  EXPECT_EQ(g.edges[0].to_proc, 1);
  EXPECT_EQ(g.edges[0].to_interval, 0);
}

TEST(TraceZigzag, AlignedCheckpointsAreUseful) {
  const Trace t = run(kAligned, 4);
  EXPECT_TRUE(trace::useless_checkpoints(t).empty());
}

TEST(TraceZigzag, MiddleCheckpointOnZCycleIsUseless) {
  // The classic Netzer–Xu construction: rank 1's checkpoint sits between
  // recv(m1) and send(m2), where m1 was sent after rank 0's first
  // checkpoint and m2 is received before rank 0's second. Every cut
  // containing it is inconsistent.
  const Trace t = run(R"(
    program zz {
      if (rank == 0) {
        checkpoint "c1a";
        send to 1 tag 1;
        recv from 1 tag 2;
        checkpoint "c1b";
      } else {
        recv from 0 tag 1;
        checkpoint "c2";
        send to 0 tag 2;
      }
    })",
                      2);
  const auto useless = trace::useless_checkpoints(t);
  ASSERT_EQ(useless.size(), 1u);
  EXPECT_EQ(t.checkpoints[static_cast<size_t>(useless[0])].proc, 1);
  // And indeed the straddling cuts are inconsistent.
  Cut cut;
  // c1a is rank 0's first checkpoint, c2 is rank 1's only one.
  int c1a = -1, c2 = -1;
  for (size_t i = 0; i < t.checkpoints.size(); ++i) {
    if (t.checkpoints[i].proc == 0 && c1a < 0) c1a = static_cast<int>(i);
    if (t.checkpoints[i].proc == 1) c2 = static_cast<int>(i);
  }
  cut.member = {c1a, c2};
  EXPECT_FALSE(analyze_cut(t, cut).consistent);
}

TEST(TraceZigzag, SequentialMessagesNoCycle) {
  const Trace t = run(R"(
    program seq {
      if (rank == 0) {
        checkpoint;
        send to 1 tag 1;
      } else {
        recv from 0 tag 1;
        checkpoint;
      }
    })",
                      2);
  EXPECT_TRUE(trace::useless_checkpoints(t).empty());
}

TEST(TraceMisc, SummaryMentionsCounts) {
  const Trace t = run(kAligned, 2);
  const std::string s = t.summary();
  EXPECT_NE(s.find("2 procs"), std::string::npos);
  EXPECT_NE(s.find("completed"), std::string::npos);
}

TEST(TraceMisc, CheckpointsOfFiltersByProc) {
  const Trace t = run(kAligned, 3);
  const auto c0 = t.checkpoints_of(0);
  EXPECT_EQ(c0.size(), 3u);
  for (const auto& c : c0) EXPECT_EQ(c.proc, 0);
}

}  // namespace

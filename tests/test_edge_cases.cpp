// Edge-case coverage across modules: degenerate programs, deep nesting,
// unusual world sizes, analysis corner cases, and defensive-error paths
// that the mainline tests do not reach.
#include <gtest/gtest.h>

#include "attr/attr.h"
#include "match/match.h"
#include "mp/builder.h"
#include "mp/generate.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "sim/engine.h"
#include "trace/analysis.h"
#include "util/error.h"

namespace {

using namespace acfc;

// ---------------------------------------------------------------------------
// Degenerate programs
// ---------------------------------------------------------------------------

TEST(Edge, EmptyProgramSimulates) {
  const mp::Program p = mp::parse("program empty { }");
  const auto r = sim::simulate(p, 2);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.app_messages, 0);
  EXPECT_TRUE(trace::all_straight_cuts(r.trace).empty());
}

TEST(Edge, EmptyProgramAnalyzes) {
  mp::Program p = mp::parse("program empty { }");
  const auto report = place::repair_placement(p);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.initial_total, 0);
}

TEST(Edge, CheckpointOnlyProgram) {
  const mp::Program p =
      mp::parse("program c { checkpoint; checkpoint; checkpoint; }");
  const auto r = sim::simulate(p, 3);
  ASSERT_TRUE(r.trace.completed);
  EXPECT_EQ(r.trace.checkpoints.size(), 9u);
  for (const auto& cut : trace::all_straight_cuts(r.trace))
    EXPECT_TRUE(trace::analyze_cut(r.trace, cut).consistent);
}

TEST(Edge, ZeroTripLoopNeverRuns) {
  const mp::Program p =
      mp::parse("program z { for i in 5 .. 5 { send to 0 tag 1; } }");
  const auto r = sim::simulate(p, 2);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.app_messages, 0);
}

TEST(Edge, NegativeRangeLoopNeverRuns) {
  const mp::Program p =
      mp::parse("program z { for i in 5 .. 2 { compute 1.0; } }");
  const auto r = sim::simulate(p, 2);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_LT(r.trace.end_time, 0.5);
}

TEST(Edge, DeeplyNestedStructure) {
  mp::ProgramBuilder b("deep");
  std::function<void(mp::ProgramBuilder&, int)> nest =
      [&](mp::ProgramBuilder& b, int depth) {
        if (depth == 0) {
          b.compute(0.1);
          return;
        }
        b.for_("d" + std::to_string(depth), 0, 2,
               [&](mp::ProgramBuilder& b) {
                 b.if_(mp::Pred::ge(mp::Expr::rank(), mp::Expr::constant(0)),
                       [&](mp::ProgramBuilder& b) { nest(b, depth - 1); });
               });
      };
  nest(b, 6);
  const mp::Program p = b.take();
  const auto r = sim::simulate(p, 2);
  EXPECT_TRUE(r.trace.completed);
  // 2^6 = 64 leaf computes per process.
  int computes = 0;
  for (const auto& e : r.trace.events)
    if (e.kind == trace::EventKind::kCompute && e.proc == 0) ++computes;
  EXPECT_EQ(computes, 64);
}

TEST(Edge, TwoProcessMinimum) {
  const mp::Program p = mp::parse("program t { compute 1.0; }");
  sim::SimOptions opts;
  opts.nprocs = 1;
  EXPECT_THROW(sim::Engine(p, opts), util::InternalError);
}

// ---------------------------------------------------------------------------
// Analysis corner cases
// ---------------------------------------------------------------------------

TEST(Edge, SendWithNoMatchingRecvKeepsNoEdges) {
  // A send whose tag nobody receives: statically unmatched (and the
  // message is simply never consumed at runtime).
  const mp::Program p = mp::parse(
      "program t { if (rank == 0) { send to 1 tag 99; } compute 1.0; }");
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  EXPECT_TRUE(ext.message_edges().empty());
  const auto r = sim::simulate(p, 2);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_FALSE(r.trace.messages.empty());
  EXPECT_FALSE(r.trace.messages[0].consumed);
}

TEST(Edge, AttributeOfDeeplyGuardedStatement) {
  const mp::Program p = mp::parse(R"(
    program t {
      if (rank > 0) { if (rank < 4) { if (rank != 2) { compute 1.0; } } }
    })");
  int uid = -1;
  mp::for_each_stmt(p, [&](const mp::Stmt& s) {
    if (s.kind() == mp::StmtKind::kCompute) uid = s.uid();
  });
  const auto a = attr::attribute_of(p, uid);
  EXPECT_EQ(a.guards.size(), 3u);
  EXPECT_TRUE(attr::satisfiable(a));  // ranks 1 and 3 qualify
}

TEST(Edge, CustomWorldSizesRestrictWitnesses) {
  // With only n=2 in scope, a "rank == 2" guard is unsatisfiable.
  attr::PathAttribute a;
  a.guards.emplace_back(
      mp::Pred::eq(mp::Expr::rank(), mp::Expr::constant(2)), true);
  attr::SatOptions opts;
  opts.world_sizes = {2};
  EXPECT_FALSE(attr::satisfiable(a, opts));
  opts.world_sizes = {4};
  EXPECT_TRUE(attr::satisfiable(a, opts));
}

TEST(Edge, ConditionCheckOnUnbalancedProgramThrows) {
  const mp::Program p = mp::parse(
      "program u { if (rank == 0) { checkpoint; } else { compute 1.0; } }");
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  EXPECT_THROW(place::check_condition1(ext), util::ProgramError);
  // The message is index_checkpoints()'s diagnostic, word for word.
  std::string expected;
  try {
    ext.graph().index_checkpoints();
  } catch (const util::ProgramError& e) {
    expected = e.what();
  }
  EXPECT_NE(expected.find("unbalanced checkpoint counts"), std::string::npos);
  try {
    place::check_condition1(ext);
  } catch (const util::ProgramError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(Edge, EqualizeThenCheckSucceeds) {
  mp::Program p = mp::parse(
      "program u { if (rank == 0) { checkpoint; } else { compute 1.0; } }");
  place::equalize_checkpoints(p);
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  EXPECT_NO_THROW(place::check_condition1(ext));
}

TEST(Edge, RepairIdempotent) {
  mp::Program p = mp::parse(R"(
    program t {
      loop 3 {
        if (rank % 2 == 0) {
          checkpoint;
          if (rank + 1 < nprocs) { send to rank + 1 tag 1;
                                   recv from rank + 1 tag 1; }
        } else {
          send to rank - 1 tag 1;
          recv from rank - 1 tag 1;
          checkpoint;
        }
      }
    })");
  const auto first = place::repair_placement(p);
  ASSERT_TRUE(first.success);
  const auto second = place::repair_placement(p);
  EXPECT_TRUE(second.success);
  EXPECT_EQ(second.moves + second.merges + second.hoists, 0);
}

// ---------------------------------------------------------------------------
// Simulator corner cases
// ---------------------------------------------------------------------------

TEST(Edge, ManyProcesses) {
  const mp::Program p = mp::parse(R"(
    program big {
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    })");
  const auto r = sim::simulate(p, 64);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.app_messages, 64);
  const auto cut = trace::straight_cut(r.trace, 1, 0);
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(trace::analyze_cut(r.trace, *cut).consistent);
}

TEST(Edge, MaxEventsGuardStopsRunaway) {
  // An enormous loop hits the event cap and leaves an incomplete trace
  // instead of hanging.
  const mp::Program p =
      mp::parse("program r { loop 1000000 { compute 0.001; } }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.max_events = 10'000;
  const auto r = sim::Engine(p, opts).run();
  EXPECT_FALSE(r.trace.completed);
  EXPECT_LE(r.stats.events_processed, 10'000);
}

TEST(Edge, SelfDeliveryOrderWithEqualTimestamps) {
  // Multiple zero-cost sends to the same destination at the same instant:
  // FIFO seq must still be respected.
  const mp::Program p = mp::parse(R"(
    program t {
      if (rank == 0) {
        send to 1 tag 1; send to 1 tag 1; send to 1 tag 1;
      } else {
        recv from 0 tag 1; recv from 0 tag 1; recv from 0 tag 1;
      }
    })");
  const auto r = sim::simulate(p, 2);
  ASSERT_TRUE(r.trace.completed);
  long prev_seq = 0;
  for (const auto& e : r.trace.events) {
    if (e.kind != trace::EventKind::kRecv) continue;
    const auto& m = r.trace.messages[static_cast<size_t>(e.msg_id)];
    EXPECT_EQ(m.seq, prev_seq + 1);
    prev_seq = m.seq;
  }
}

TEST(Edge, FailureAtTimeZero) {
  const mp::Program p = mp::parse(
      "program t { compute 2.0; checkpoint; compute 1.0; }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 0.0)};
  const auto r = sim::Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.restarts, 1);
}

TEST(Edge, SimultaneousFailures) {
  const mp::Program p = mp::parse(R"(
    program t { loop 3 { compute 2.0; checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1; } })");
  sim::SimOptions opts;
  opts.nprocs = 3;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 5.0),
                            sim::FaultPlan::at_time(1, 5.0)};
  const auto r = sim::Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.restarts, 2);
}

// ---------------------------------------------------------------------------
// Output/rendering corner cases
// ---------------------------------------------------------------------------

TEST(Edge, PrinterUidAnnotations) {
  const mp::Program p = mp::parse("program t { compute 1.0; }");
  mp::PrintOptions opts;
  opts.show_uids = true;
  EXPECT_NE(mp::print(p, opts).find("# uid=0"), std::string::npos);
}

TEST(Edge, DotOnLargeGeneratedProgram) {
  mp::GenerateOptions gopts;
  gopts.seed = 99;
  gopts.segments = 20;
  const mp::Program p = mp::generate_program(gopts);
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  const std::string dot = ext.to_dot("big");
  EXPECT_GT(dot.size(), 1000u);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Edge, RecoveryLineAtExactCheckpointBoundary) {
  const mp::Program p = mp::parse(
      "program t { compute 1.0; checkpoint; compute 1.0; }");
  const auto r = sim::simulate(p, 2);
  // Query exactly at the checkpoint completion instant.
  const double t = r.trace.checkpoints[0].t_end;
  const auto line = trace::max_recovery_line(r.trace, t);
  EXPECT_TRUE(line.consistent);
}

TEST(Edge, StraightCutWithForcedCheckpointsIgnoresThem) {
  // Forced (protocol) checkpoints carry static_index −1 and must not
  // pollute straight-cut enumeration.
  const mp::Program p = mp::parse("program t { compute 5.0; checkpoint; }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  sim::Engine engine(p, opts);
  engine.schedule_timer(0, 1.0, 0);  // no driver: timer is a no-op
  const auto r = engine.run();
  const auto cuts = trace::all_straight_cuts(r.trace);
  EXPECT_EQ(cuts.size(), 1u);
}

}  // namespace

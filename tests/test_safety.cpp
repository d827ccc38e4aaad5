// End-to-end validation of the paper's central claims.
//
// Theorem 3.2 / Condition 1 (safety): after Phase III repairs a program's
// checkpoint placement, every straight cut of checkpoints in every
// execution is a recovery line. We property-test this over randomly
// generated SPMD programs × world sizes × seeds: run the offline pipeline,
// simulate, enumerate every instanced straight cut, and check consistency
// via vector clocks.
//
// Lemma 3.1 (matching soundness): the true dynamic sender of every received
// message is among the statically matched send nodes — checked by
// comparing each simulated message's (send stmt, recv stmt) pair against
// the extended CFG's message edges.
//
// The completeness direction: programs reported as violating by the
// checker do exhibit inconsistent straight cuts in some execution.
#include <gtest/gtest.h>

#include "match/match.h"
#include "mp/generate.h"
#include "mp/lower.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "sim/engine.h"
#include "trace/analysis.h"

namespace {

using namespace acfc;

struct SafetyOutcome {
  int cuts_checked = 0;
  int inconsistent = 0;
};

SafetyOutcome check_all_straight_cuts(const trace::Trace& trace) {
  SafetyOutcome out;
  for (const auto& cut : trace::all_straight_cuts(trace)) {
    ++out.cuts_checked;
    if (!trace::analyze_cut(trace, cut).consistent) ++out.inconsistent;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lemma 3.1 on concrete executions
// ---------------------------------------------------------------------------

void expect_lemma31(const mp::Program& program, int nprocs,
                    std::uint64_t seed) {
  const match::ExtendedCfg ext = match::build_extended_cfg(program);
  const auto result = sim::simulate(program, nprocs, seed);
  ASSERT_TRUE(result.trace.completed)
      << "deadlock in " << mp::print(program);
  for (const auto& m : result.trace.app_messages()) {
    if (!m.consumed) continue;
    const auto send_node = ext.graph().node_for_stmt(m.send_stmt_uid);
    const auto recv_node = ext.graph().node_for_stmt(m.recv_stmt_uid);
    ASSERT_TRUE(send_node.has_value());
    ASSERT_TRUE(recv_node.has_value());
    bool matched = false;
    for (const auto& e : ext.message_edges())
      if (e.send == *send_node && e.recv == *recv_node) matched = true;
    EXPECT_TRUE(matched) << "dynamic message " << m.src << "→" << m.dst
                         << " (stmt " << m.send_stmt_uid << "→"
                         << m.recv_stmt_uid
                         << ") not statically matched in:\n"
                         << mp::print(program);
  }
}

TEST(Lemma31, JacobiPrograms) {
  const mp::Program p = mp::parse(R"(
    program jacobi {
      loop 3 {
        compute 1.0;
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
  for (int n : {2, 3, 4, 5, 8}) expect_lemma31(p, n, 1);
}

class Lemma31Random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma31Random, TrueSenderAlwaysMatched) {
  mp::GenerateOptions opts;
  opts.seed = GetParam();
  opts.segments = 8;
  opts.allow_collectives = false;  // collectives use self edges, not pairs
  opts.allow_irregular = true;
  const mp::Program p = mp::generate_program(opts);
  for (int n : {2, 4, 5}) expect_lemma31(p, n, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma31Random,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Completeness direction: flagged programs do break
// ---------------------------------------------------------------------------

TEST(SafetyCounterexample, MisalignedJacobiBreaksStraightCuts) {
  const mp::Program p = mp::parse(R"(
    program mis {
      loop 3 {
        compute 1.0;
        if (rank % 2 == 0) {
          checkpoint;
          send to rank + 1 tag 1;
          recv from rank + 1 tag 1;
        } else {
          send to rank - 1 tag 1;
          recv from rank - 1 tag 1;
          checkpoint;
        }
      }
    })");
  // Checker flags it...
  const auto check =
      place::check_condition1(match::build_extended_cfg(p));
  EXPECT_GE(check.hard_count(), 1);
  // ...and the execution confirms.
  const auto result = sim::simulate(p, 4, 1);
  ASSERT_TRUE(result.trace.completed);
  const auto outcome = check_all_straight_cuts(result.trace);
  EXPECT_GT(outcome.inconsistent, 0);
}

// ---------------------------------------------------------------------------
// Safety: repaired placements have only consistent straight cuts
// ---------------------------------------------------------------------------

struct SafetyCase {
  std::uint64_t seed;
  bool misalign;
};

class SafetyRandom
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(SafetyRandom, RepairedStraightCutsAreRecoveryLines) {
  const auto [seed, misalign] = GetParam();
  mp::GenerateOptions gopts;
  gopts.seed = seed;
  gopts.segments = 7;
  gopts.misalign_checkpoints = misalign;
  gopts.allow_collectives = false;
  mp::Program program = mp::generate_program(gopts);

  place::RepairOptions ropts;
  const auto report = place::repair_placement(program, ropts);
  ASSERT_TRUE(report.success) << mp::print(program);

  int total_cuts = 0;
  for (const int nprocs : {2, 3, 4, 6}) {
    for (const std::uint64_t sim_seed : {1ull, 2ull}) {
      const mp::Program frozen = program.clone();
      const auto result = sim::simulate(frozen, nprocs, sim_seed);
      ASSERT_TRUE(result.trace.completed)
          << "deadlock (n=" << nprocs << "):\n" << mp::print(program);
      const auto outcome = check_all_straight_cuts(result.trace);
      total_cuts += outcome.cuts_checked;
      EXPECT_EQ(outcome.inconsistent, 0)
          << "inconsistent straight cut (n=" << nprocs << ", seed "
          << sim_seed << ") in repaired program:\n"
          << mp::print(program);
    }
  }
  // The property must not hold vacuously for programs with checkpoints.
  if (mp::checkpoint_count(program) > 0) {
    EXPECT_GT(total_cuts, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlignedSeeds, SafetyRandom,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 16),
                       ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    MisalignedSeeds, SafetyRandom,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 16),
                       ::testing::Values(true)));

// ---------------------------------------------------------------------------
// Safety with collectives, exercised through lowering
// ---------------------------------------------------------------------------

class SafetyCollectives : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafetyCollectives, LoweredCollectiveProgramsStaySafe) {
  mp::GenerateOptions gopts;
  gopts.seed = GetParam();
  gopts.segments = 6;
  gopts.allow_collectives = true;
  gopts.misalign_checkpoints = true;
  mp::Program program =
      mp::lower_collectives(mp::generate_program(gopts));

  const auto report = place::repair_placement(program);
  ASSERT_TRUE(report.success) << mp::print(program);

  for (const int nprocs : {2, 3, 5}) {
    const auto result = sim::simulate(program, nprocs, 1);
    ASSERT_TRUE(result.trace.completed) << mp::print(program);
    for (const auto& cut : trace::all_straight_cuts(result.trace))
      EXPECT_TRUE(trace::analyze_cut(result.trace, cut).consistent)
          << "n=" << nprocs << "\n" << mp::print(program);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyCollectives,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// The paper's greedy matching policy is still safe on regular programs
// ---------------------------------------------------------------------------

class SafetyGreedyMatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafetyGreedyMatch, GreedyPolicyRepairsSafely) {
  mp::GenerateOptions gopts;
  gopts.seed = GetParam();
  gopts.segments = 6;
  gopts.misalign_checkpoints = true;
  gopts.allow_collectives = false;
  mp::Program program = mp::generate_program(gopts);

  place::RepairOptions ropts;
  ropts.match.policy = match::MatchPolicy::kPaperGreedy;
  const auto report = place::repair_placement(program, ropts);
  ASSERT_TRUE(report.success) << mp::print(program);

  const auto result = sim::simulate(program, 4, 1);
  ASSERT_TRUE(result.trace.completed);
  for (const auto& cut : trace::all_straight_cuts(result.trace))
    EXPECT_TRUE(trace::analyze_cut(result.trace, cut).consistent)
        << mp::print(program);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyGreedyMatch,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Strict policy: even "latest" cuts become recovery lines
// ---------------------------------------------------------------------------

class StrictSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrictSafety, LatestCutsAreRecoveryLinesAtAnyTime) {
  mp::GenerateOptions gopts;
  gopts.seed = GetParam();
  gopts.segments = 6;
  gopts.misalign_checkpoints = true;
  gopts.allow_collectives = false;
  mp::Program program = mp::generate_program(gopts);

  place::RepairOptions ropts;
  ropts.policy = place::RepairPolicy::kStrict;
  const auto report = place::repair_placement(program, ropts);
  ASSERT_TRUE(report.success) << mp::print(program);

  const auto result = sim::simulate(program, 4, 1);
  ASSERT_TRUE(result.trace.completed);
  // Sample failure times across the run: for every static index, the cut
  // of latest index-i checkpoints must be consistent even when processes
  // are at different instances — zero rollback propagation, the paper's
  // headline property (strict reading of Condition 1).
  int max_index = 0;
  for (const auto& c : result.trace.checkpoints)
    max_index = std::max(max_index, c.static_index);
  const double end = result.trace.end_time;
  for (int i = 1; i <= 20; ++i) {
    const double t = end * i / 20.0;
    for (int index = 1; index <= max_index; ++index) {
      const auto cut =
          trace::latest_straight_cut_at(result.trace, index, t);
      if (!cut) continue;  // some process has not reached index yet
      EXPECT_TRUE(trace::analyze_cut(result.trace, *cut).consistent)
          << "latest S_" << index << " cut at t=" << t
          << " inconsistent in:\n"
          << mp::print(program);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrictSafety,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Recovery manager end-to-end under repaired placements
// ---------------------------------------------------------------------------

class RecoveryE2E : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryE2E, FailureInjectionReplaysToSameDigest) {
  mp::GenerateOptions gopts;
  gopts.seed = GetParam();
  gopts.segments = 6;
  gopts.allow_collectives = false;
  gopts.allow_irregular = false;
  mp::Program program = mp::generate_program(gopts);
  const auto report = place::repair_placement(program);
  ASSERT_TRUE(report.success);

  sim::SimOptions clean;
  clean.nprocs = 4;
  sim::Engine base_engine(program, clean);
  const auto base = base_engine.run();
  ASSERT_TRUE(base.trace.completed);

  sim::SimOptions faulty;
  faulty.nprocs = 4;
  faulty.recovery_overhead = 0.5;
  faulty.fault_plan.faults = {
      sim::FaultPlan::at_time(static_cast<int>(GetParam() % 4),
                              0.4 * base.trace.end_time),
      sim::FaultPlan::at_time(static_cast<int>((GetParam() + 1) % 4),
                              0.9 * base.trace.end_time)};
  sim::Engine engine(program, faulty);
  const auto rec = engine.run();
  EXPECT_TRUE(rec.trace.completed) << mp::print(program);
  EXPECT_EQ(rec.trace.final_digest, base.trace.final_digest)
      << mp::print(program);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryE2E,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace

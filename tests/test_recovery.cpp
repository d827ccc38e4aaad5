// The end-to-end recovery oracle (sim/recovery.h) exercised as a property
// test — the runnable form of the paper's recovery claim: after Phase III
// placement, a failed execution rolls back to a consistent cut, replays
// the in-transit messages, and converges to the exact failure-free
// execution.
//
//  * RecoveryProperty: ≥100 generated program × seed × fault-plan
//    combinations (misaligned placements included, repaired first); every
//    combination must restore consistent cuts, end with zero orphan
//    messages, and replay bit-identically to the failure-free reference.
//  * FaultPlanTriggers: the after-checkpoint / after-events / at-time
//    triggers fire where they claim to.
//  * ProtocolRecovery: the same oracle through every protocol baseline
//    (sync-and-stop, Chandy–Lamport, Koo–Toueg, CIC, uncoordinated).
//  * StoreBackedRecovery: restore costs derived from a StableStore's
//    incremental chains shift the per-process restart times.
#include <algorithm>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "mp/generate.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "proto/protocols.h"
#include "sim/montecarlo.h"
#include "sim/recovery.h"
#include "store/store.h"
#include "trace/analysis.h"
#include "util/error.h"

namespace {

using namespace acfc;

constexpr const char* kRing = R"(
  program ring {
    loop 6 {
      compute 3.0;
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

/// A checkpoint-free ring for the protocol baselines (their drivers
/// provide all checkpoints).
constexpr const char* kBareRing = R"(
  program bare_ring {
    loop 6 {
      compute 3.0;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

// ---------------------------------------------------------------------------
// The ≥100-combination property sweep
// ---------------------------------------------------------------------------

/// One parameter = (generator seed, misaligned placement); each test runs
/// two independent fault plans, so 26 seeds × 2 alignments × 2 plans gives
/// 104 program × seed × fault-plan combinations.
class RecoveryProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RecoveryProperty, RollbackReplaysToFailureFreeExecution) {
  const auto [seed, misalign] = GetParam();
  mp::GenerateOptions gopts;
  gopts.seed = seed;
  gopts.segments = 6;
  gopts.misalign_checkpoints = misalign;
  gopts.allow_collectives = false;
  gopts.allow_irregular = false;
  mp::Program program = mp::generate_program(gopts);
  const auto report = place::repair_placement(program);
  ASSERT_TRUE(report.success) << mp::print(program);

  sim::SimOptions base;
  base.nprocs = 4;
  base.seed = seed;
  base.recovery_overhead = 0.5;

  // Scale at-time triggers to this program's actual makespan.
  const auto probe = sim::simulate(program, base.nprocs, base.seed);
  ASSERT_TRUE(probe.trace.completed) << mp::print(program);

  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE("fault plan variant " + std::to_string(variant));
    const sim::FaultPlan plan = sim::random_fault_plan(
        seed * 131 + static_cast<std::uint64_t>(variant), base.nprocs,
        probe.trace.end_time * 0.9);
    const sim::OracleReport oracle =
        sim::check_recovery(program, base, plan);
    EXPECT_TRUE(oracle.ok) << oracle.failure << "\n" << mp::print(program);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 27),
                       ::testing::Bool()));

TEST(RecoveryProperty, SweepIsNotVacuous) {
  // The parameterized sweep re-run in aggregate: a healthy share of the
  // random fault plans must actually trigger rollbacks (a fault landing
  // after completion is a silent no-op, so this guards against the whole
  // sweep degenerating into failure-free runs).
  long rollbacks = 0;
  long combos = 0;
  for (std::uint64_t seed = 1; seed <= 26; ++seed) {
    for (const bool misalign : {false, true}) {
      mp::GenerateOptions gopts;
      gopts.seed = seed;
      gopts.segments = 6;
      gopts.misalign_checkpoints = misalign;
      gopts.allow_collectives = false;
      gopts.allow_irregular = false;
      mp::Program program = mp::generate_program(gopts);
      ASSERT_TRUE(place::repair_placement(program).success);
      sim::SimOptions base;
      base.nprocs = 4;
      base.seed = seed;
      base.recovery_overhead = 0.5;
      const auto probe = sim::simulate(program, base.nprocs, base.seed);
      for (int variant = 0; variant < 2; ++variant) {
        ++combos;
        const sim::FaultPlan plan = sim::random_fault_plan(
            seed * 131 + static_cast<std::uint64_t>(variant), base.nprocs,
            probe.trace.end_time * 0.9);
        const sim::OracleReport oracle =
            sim::check_recovery(program, base, plan);
        ASSERT_TRUE(oracle.ok) << oracle.failure;
        rollbacks += oracle.restarts;
      }
    }
  }
  EXPECT_GE(combos, 100);
  EXPECT_GE(rollbacks, combos / 4);
}

// ---------------------------------------------------------------------------
// Fault-plan triggers
// ---------------------------------------------------------------------------

TEST(FaultPlanTriggers, AtTimeFiresAndRecords) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 1.0;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(2, 10.0)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  const sim::RecoveryRec& rec = result.recoveries[0];
  EXPECT_EQ(rec.failed_proc, 2);
  EXPECT_DOUBLE_EQ(rec.fail_time, 10.0);
  EXPECT_GE(rec.resume_time, rec.fail_time + 1.0);
  EXPECT_GE(rec.lost_work, 0.0);
  EXPECT_EQ(rec.rollbacks.size(), 4u);
  EXPECT_TRUE(trace::analyze_cut(result.trace, rec.cut).consistent);
}

TEST(FaultPlanTriggers, AfterCheckpointFiresAtTheCountedCheckpoint) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 3)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_EQ(result.recoveries[0].failed_proc, 1);
  // The third checkpoint of process 1 must be committed by the fail time.
  int committed = 0;
  for (const auto& c : result.trace.checkpoints)
    if (c.proc == 1 && c.t_commit <= result.recoveries[0].fail_time)
      ++committed;
  EXPECT_GE(committed, 3);
}

TEST(FaultPlanTriggers, AfterEventsFiresOnceEventCountReached) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.fault_plan.faults = {sim::FaultPlan::after_events(0, 40)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_EQ(result.recoveries[0].failed_proc, 0);
  EXPECT_EQ(result.stats.restarts, 1);
}

TEST(FaultPlanTriggers, OverlappingFaultsAllRecover) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 8.0),
                            sim::FaultPlan::at_time(3, 16.0),
                            sim::FaultPlan::after_checkpoint(2, 4)};
  const sim::OracleReport oracle =
      sim::check_recovery(program, opts, opts.fault_plan);
  EXPECT_TRUE(oracle.ok) << oracle.failure;
  EXPECT_GE(oracle.restarts, 2);
}

TEST(FaultPlanValidation, ProcessOutsideTheWorldRejectedAtConstruction) {
  const mp::Program program = mp::parse(kRing);
  for (const sim::FaultSpec& fault :
       {sim::FaultPlan::at_time(-1, 3.0), sim::FaultPlan::at_time(4, 3.0),
        sim::FaultPlan::after_checkpoint(4, 1),
        sim::FaultPlan::after_events(-1, 10)}) {
    SCOPED_TRACE("proc=" + std::to_string(fault.proc));
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.fault_plan.faults = {fault};
    EXPECT_THROW(sim::Engine(program, opts), util::InternalError);
  }
}

TEST(FaultPlanValidation, TimedFaultMustFireAtAFiniteNonNegativeTime) {
  const mp::Program program = mp::parse(kRing);
  for (const double time : {-5.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE("time=" + std::to_string(time));
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.fault_plan.faults = {sim::FaultPlan::at_time(1, time)};
    EXPECT_THROW(sim::Engine(program, opts), util::InternalError);
  }
  // Time 0 is the earliest legal crash.
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 0.0)};
  sim::Engine engine(program, opts);
  EXPECT_EQ(engine.run().stats.restarts, 1);
}

// ---------------------------------------------------------------------------
// Recovery metrics
// ---------------------------------------------------------------------------

TEST(RecoveryMetrics, AggregatesAcrossRuns) {
  const mp::Program program = mp::parse(kRing);
  std::vector<sim::SimOptions> configs;
  for (int i = 0; i < 4; ++i) {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.seed = sim::run_seed(11, i);
    opts.recovery_overhead = 1.0;
    opts.fault_plan.faults = {sim::FaultPlan::at_time(i % 4, 9.0 + i)};
    configs.push_back(opts);
  }
  std::vector<sim::SimResult> runs;
  for (const auto& config : configs) {
    sim::Engine engine(program, config);
    runs.push_back(engine.run());
  }
  const sim::RecoveryMetrics metrics = sim::recovery_metrics(runs);
  EXPECT_EQ(metrics.runs, 4);
  EXPECT_EQ(metrics.completed, 4);
  EXPECT_EQ(metrics.failures, 4);
  EXPECT_GE(metrics.mean_recovery_latency, 1.0);  // ≥ recovery_overhead
  EXPECT_GE(metrics.mean_lost_work, 0.0);
  EXPECT_GE(metrics.mean_rollback_distance, 0.0);
}

TEST(RecoveryMetrics, RandomFaultPlansAreDeterministic) {
  const sim::FaultPlan a = sim::random_fault_plan(7, 4, 100.0);
  const sim::FaultPlan b = sim::random_fault_plan(7, 4, 100.0);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  EXPECT_FALSE(a.empty());
  for (size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].proc, b.faults[i].proc);
    EXPECT_EQ(a.faults[i].trigger, b.faults[i].trigger);
    EXPECT_EQ(a.faults[i].time, b.faults[i].time);
    EXPECT_EQ(a.faults[i].count, b.faults[i].count);
    EXPECT_GE(a.faults[i].proc, 0);
    EXPECT_LT(a.faults[i].proc, 4);
  }
}

TEST(RecoveryMetrics, ExtendedFaultPlanDrawsAreAppendOnly) {
  // The partition/stall draws happen strictly AFTER the crash draws, so
  // enabling them must leave every (seed, max_faults) crash schedule
  // bit-identical to what crash-only callers have always received.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 20260808ULL}) {
    const sim::FaultPlan base = sim::random_fault_plan(seed, 4, 100.0);
    const sim::FaultPlan ext =
        sim::random_fault_plan(seed, 4, 100.0, 2, 2, 2);
    ASSERT_EQ(ext.faults.size(), base.faults.size()) << "seed=" << seed;
    for (size_t i = 0; i < base.faults.size(); ++i) {
      EXPECT_EQ(ext.faults[i].proc, base.faults[i].proc);
      EXPECT_EQ(ext.faults[i].trigger, base.faults[i].trigger);
      EXPECT_EQ(ext.faults[i].time, base.faults[i].time);
      EXPECT_EQ(ext.faults[i].count, base.faults[i].count);
    }
    // The extended draws are themselves deterministic and well-formed.
    const sim::FaultPlan again =
        sim::random_fault_plan(seed, 4, 100.0, 2, 2, 2);
    ASSERT_EQ(again.partitions.size(), ext.partitions.size());
    ASSERT_EQ(again.stalls.size(), ext.stalls.size());
    for (size_t i = 0; i < ext.partitions.size(); ++i) {
      const sim::PartitionSpec& p = ext.partitions[i];
      EXPECT_EQ(again.partitions[i].group, p.group);
      EXPECT_EQ(again.partitions[i].start, p.start);
      EXPECT_EQ(again.partitions[i].heal, p.heal);
      EXPECT_EQ(again.partitions[i].symmetric, p.symmetric);
      ASSERT_EQ(p.group.size(), 1u);
      EXPECT_GE(p.group[0], 0);
      EXPECT_LT(p.group[0], 4);
      EXPECT_GT(p.heal, p.start);
      EXPECT_LE(p.heal, 100.0);
    }
    for (size_t i = 0; i < ext.stalls.size(); ++i) {
      const sim::StallSpec& s = ext.stalls[i];
      EXPECT_EQ(again.stalls[i].proc, s.proc);
      EXPECT_EQ(again.stalls[i].start, s.start);
      EXPECT_EQ(again.stalls[i].duration, s.duration);
      EXPECT_GE(s.proc, 0);
      EXPECT_LT(s.proc, 4);
      EXPECT_GT(s.duration, 0.0);
    }
  }
}

TEST(RecoveryMetrics, ExtendedFaultPlanMatchesTheGoldenPlan) {
  // Pinned draws for one seed: any reordering of the crash or window draw
  // streams — even one that stays self-consistent — shows up here.
  const sim::FaultPlan plan = sim::random_fault_plan(7, 4, 100.0, 2, 2, 2);
  ASSERT_EQ(plan.faults.size(), 1u);
  EXPECT_EQ(plan.faults[0].proc, 3);
  EXPECT_EQ(plan.faults[0].trigger, sim::FaultSpec::Trigger::kAfterEvents);
  EXPECT_EQ(plan.faults[0].count, 223);
  ASSERT_EQ(plan.partitions.size(), 2u);
  EXPECT_EQ(plan.partitions[0].group, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(plan.partitions[0].start, 22.237184497653029);
  EXPECT_DOUBLE_EQ(plan.partitions[0].heal, 38.320079873930496);
  EXPECT_FALSE(plan.partitions[0].symmetric);
  EXPECT_EQ(plan.partitions[1].group, std::vector<int>{2});
  EXPECT_DOUBLE_EQ(plan.partitions[1].start, 68.476093153220972);
  EXPECT_DOUBLE_EQ(plan.partitions[1].heal, 82.850706698335713);
  EXPECT_TRUE(plan.partitions[1].symmetric);
  EXPECT_TRUE(plan.stalls.empty());
}

// ---------------------------------------------------------------------------
// Protocol baselines under failure injection
// ---------------------------------------------------------------------------

class ProtocolRecovery : public ::testing::TestWithParam<proto::Protocol> {};

TEST_P(ProtocolRecovery, OracleHoldsUnderEveryBaseline) {
  const proto::Protocol protocol = GetParam();
  const mp::Program program = mp::parse(
      protocol == proto::Protocol::kAppDriven ? kRing : kBareRing);

  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 1.0;

  proto::ProtocolOptions popts;
  popts.interval = 8.0;  // several rounds inside the ~40 s makespan

  sim::FaultPlan plan;
  plan.faults = {sim::FaultPlan::at_time(1, 13.0)};

  const sim::OracleReport oracle =
      proto::check_protocol_recovery(program, protocol, opts, plan, popts);
  EXPECT_TRUE(oracle.ok) << proto::protocol_name(protocol) << ": "
                         << oracle.failure;
  EXPECT_GE(oracle.restarts, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, ProtocolRecovery,
    ::testing::Values(proto::Protocol::kAppDriven,
                      proto::Protocol::kSyncAndStop,
                      proto::Protocol::kChandyLamport,
                      proto::Protocol::kKooToueg, proto::Protocol::kCic,
                      proto::Protocol::kUncoordinated),
    [](const ::testing::TestParamInfo<proto::Protocol>& info) {
      std::string name = proto::protocol_name(info.param);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(ProtocolRecovery, CoordinatedRollbackIsShallow) {
  // Under app-driven placement the recovery line is the latest checkpoints
  // (zero demotions) — the paper's coordinated-quality recovery claim.
  mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 1.0;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(2, 12.0)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  for (const int demotions : result.recoveries[0].rollbacks)
    EXPECT_EQ(demotions, 0);
}

// ---------------------------------------------------------------------------
// Store-backed restore costs
// ---------------------------------------------------------------------------

TEST(StoreBackedRecovery, RestoreChainDelaysRestart) {
  const mp::Program program = mp::parse(kRing);

  store::StorageModel model;
  model.write_bandwidth = 1e6;  // slow store: visible (o, l) and restores
  model.read_bandwidth = 1e6;
  store::StableStore store(model, store::CheckpointMode::kIncremental, 4);

  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 1.0;
  opts.checkpoint_cost_fn =
      store::checkpoint_cost_fn(store, [](int) { return 500'000L; });
  opts.recovery_cost_fn = store::restore_cost_fn(store);
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 15.0)};

  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  const sim::RecoveryRec& rec = result.recoveries[0];
  // The restart is delayed past R by the store's restore chain. (The
  // store keeps accumulating records after recovery, so compare against a
  // lower bound, not the end-of-run chain.)
  double max_restore = 0.0;
  for (int p = 0; p < 4; ++p)
    max_restore = std::max(max_restore, store.restore_seconds(p));
  EXPECT_GT(max_restore, 0.0);
  EXPECT_GT(rec.resume_time, rec.fail_time + 1.0);
  EXPECT_TRUE(trace::analyze_cut(result.trace, rec.cut).consistent);
}

// ---------------------------------------------------------------------------
// Zero-orphan counters are exposed even failure-free
// ---------------------------------------------------------------------------

TEST(FinalCounters, BalancedOnCompletedRuns) {
  const mp::Program program = mp::parse(kRing);
  const auto result = sim::simulate(program, 4, 1);
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.final_sends.size(), 16u);
  ASSERT_EQ(result.final_recvs.size(), 16u);
  for (int s = 0; s < 4; ++s)
    for (int d = 0; d < 4; ++d)
      EXPECT_EQ(result.final_recvs[static_cast<size_t>(d) * 4 +
                                   static_cast<size_t>(s)],
                result.final_sends[static_cast<size_t>(s) * 4 +
                                   static_cast<size_t>(d)])
          << s << "→" << d;
  EXPECT_TRUE(result.recoveries.empty());
}

}  // namespace

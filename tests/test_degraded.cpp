// Degraded-mode recovery and the lossy-transport shim, end to end:
//
//  * DegradedSelection: rollback with corrupt stored checkpoints falls
//    back to the deepest fully-verifiable consistent cut — the corrupt
//    record is skipped (never restored), fallback depth and skip counts
//    are reported, stale manifests heal once the next publish covers them,
//    and corruption never re-enters rollback recursively.
//  * NegativeControl: the deliberately weakened no-verify mode
//    (verify_stored_checkpoints = false) restores rotten storage and the
//    recovery oracle MUST catch it — the oracle's teeth.
//  * StoreWired: the same selection driven by a real StableStore through
//    checkpoint_verify_fn instead of the declarative plan.
//  * LossyTransport: the reliable shim restores exactly-once FIFO delivery
//    over a dropping/duplicating/reordering wire — bit-identical app
//    digests vs the loss-free run, retransmit accounting, retry-cap
//    give-ups, and every protocol baseline surviving loss.
//  * DegradedSweep: ≥100 program × seed × (crash, corruption, loss)
//    combinations through the full oracle, non-vacuously.
//  * ParallelDeterminism: run_batch over combined crash+corruption+loss
//    configurations is bit-identical across thread counts.
#include <algorithm>
#include <set>
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
#include "workloads/workloads.h"

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

constexpr const char* kBareRing = R"(
  program bare_ring {
    loop 6 {
      compute 3.0;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

sim::DelayModel lossy_delay(double drop, double dup = 0.0,
                            double reorder = 0.0) {
  sim::DelayModel d;
  d.drop = drop;
  d.dup = dup;
  d.reorder = reorder;
  return d;
}

// ---------------------------------------------------------------------------
// Degraded cut selection (declarative storage faults, no store attached)
// ---------------------------------------------------------------------------

TEST(DegradedSelection, CorruptNewestRecordFallsBackOneDeeper) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  // Process 2's 3rd stored image rots; process 2 crashes right after
  // taking it, so the rotten record is exactly what a naive rollback
  // would restore.
  opts.storage_faults.faults = {store::StorageFaultPlan::bit_flip(2, 3)};
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(2, 3)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  const sim::RecoveryRec& rec = result.recoveries[0];
  EXPECT_TRUE(rec.degraded);
  EXPECT_GE(rec.fallback_depth, 1);
  EXPECT_GE(rec.corrupt_records_skipped, 1);
  // The corrupt checkpoint is reported and is NOT a member of the cut.
  ASSERT_FALSE(result.corrupt_checkpoints.empty());
  for (const int corrupt : result.corrupt_checkpoints)
    for (const int member : rec.cut.member) EXPECT_NE(member, corrupt);
  EXPECT_TRUE(trace::analyze_cut(result.trace, rec.cut).consistent);
}

TEST(DegradedSelection, EveryPermanentFaultKindIsSkipped) {
  for (const auto fault : {store::StorageFaultPlan::torn_write(1, 2),
                           store::StorageFaultPlan::bit_flip(1, 2),
                           store::StorageFaultPlan::lost_manifest_entry(1,
                                                                        2)}) {
    const mp::Program program = mp::parse(kRing);
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.recovery_overhead = 0.5;
    opts.storage_faults.faults = {fault};
    opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 2)};
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    ASSERT_TRUE(result.trace.completed)
        << store::storage_fault_name(fault.kind);
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_TRUE(result.recoveries[0].degraded)
        << store::storage_fault_name(fault.kind);
  }
}

TEST(DegradedSelection, StaleManifestDegradesOnlyWhileNewest) {
  const mp::Program program = mp::parse(kRing);
  // Crash while the stale record is the newest write: it is invisible
  // (publish failed), so rollback must fall back.
  {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.recovery_overhead = 0.5;
    opts.storage_faults.faults = {
        store::StorageFaultPlan::stale_manifest(1, 3)};
    opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 3)};
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    ASSERT_TRUE(result.trace.completed);
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_TRUE(result.recoveries[0].degraded);
    // Transient: not reported as permanent corruption.
    EXPECT_TRUE(result.corrupt_checkpoints.empty());
  }
  // Crash two checkpoints later: the next publish covered the record, the
  // fault healed, recovery is clean.
  {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.recovery_overhead = 0.5;
    opts.storage_faults.faults = {
        store::StorageFaultPlan::stale_manifest(1, 3)};
    opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 5)};
    sim::Engine engine(program, opts);
    const auto result = engine.run();
    ASSERT_TRUE(result.trace.completed);
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_FALSE(result.recoveries[0].degraded);
    EXPECT_EQ(result.recoveries[0].corrupt_records_skipped, 0);
  }
}

TEST(DegradedSelection, CorruptionNeverReentersRollback) {
  // Regression: a storage fault discovered during rollback is resolved
  // inside that one selection — it must not arm a second failure or
  // restart recovery recursively. Exactly one restart, degraded.
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.storage_faults.faults = {store::StorageFaultPlan::bit_flip(0, 4),
                                store::StorageFaultPlan::torn_write(0, 3)};
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(0, 4)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  EXPECT_EQ(result.stats.restarts, 1);
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_TRUE(result.recoveries[0].degraded);
  EXPECT_GE(result.recoveries[0].fallback_depth, 2);  // two rotten records
  const sim::OracleReport oracle =
      sim::check_recovery(program, opts, opts.fault_plan);
  EXPECT_TRUE(oracle.ok) << oracle.failure;
}

TEST(DegradedSelection, CrashAndCorruptionComposeAcrossRollbacks) {
  // A counter-triggered crash composes with corruption of a RE-TAKEN
  // record: ordinals count every write, so ordinal 5 of process 1 lands
  // after its first rollback re-takes checkpoints. The second crash then
  // must skip it. Both rollbacks recover; the oracle holds end to end.
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.storage_faults.faults = {store::StorageFaultPlan::bit_flip(1, 5)};
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 3),
                            sim::FaultPlan::after_checkpoint(1, 5)};
  const sim::OracleReport oracle =
      sim::check_recovery(program, opts, opts.fault_plan);
  EXPECT_TRUE(oracle.ok) << oracle.failure;
  EXPECT_GE(oracle.restarts, 2);
  // The second crash lands right on the corrupt write: it must have been
  // skipped, not restored.
  EXPECT_GE(oracle.metrics.degraded_rollbacks, 1);
  EXPECT_GE(oracle.metrics.corrupt_records_skipped, 1);
}

TEST(DegradedSelection, AppDrivenFallbackStaysLocal) {
  // The paper's claim extended to degraded mode: on an app-driven
  // placement, k corrupt records on one process cost O(k) fallback depth —
  // every straight cut is a recovery line, so stepping one process down
  // k instances drags the others at most k instances, never a domino
  // proportional to execution length.
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.storage_faults.faults = {store::StorageFaultPlan::bit_flip(2, 5),
                                store::StorageFaultPlan::bit_flip(2, 4)};
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(2, 5)};
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  const sim::RecoveryRec& rec = result.recoveries[0];
  EXPECT_TRUE(rec.degraded);
  // Two corrupt records → depth exactly 2 (skips), no extra cascading.
  EXPECT_EQ(rec.fallback_depth, 2);
  EXPECT_EQ(rec.corrupt_records_skipped, 2);
}

// ---------------------------------------------------------------------------
// The no-verify negative control: the oracle must catch trusted rot
// ---------------------------------------------------------------------------

TEST(NegativeControl, NoVerifyModeIsCaughtByTheOracle) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.storage_faults.faults = {store::StorageFaultPlan::bit_flip(2, 3)};
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(2, 3)};

  // Verification on: recovery skips the rotten record, oracle passes.
  opts.verify_stored_checkpoints = true;
  const sim::OracleReport healthy =
      sim::check_recovery(program, opts, opts.fault_plan);
  EXPECT_TRUE(healthy.ok) << healthy.failure;

  // Verification off (the weakened mode): the engine restores the corrupt
  // image and the oracle MUST reject the run.
  opts.verify_stored_checkpoints = false;
  const sim::OracleReport weakened =
      sim::check_recovery(program, opts, opts.fault_plan);
  EXPECT_FALSE(weakened.ok);
  EXPECT_NE(weakened.failure.find("corrupt"), std::string::npos)
      << weakened.failure;
}

// ---------------------------------------------------------------------------
// Store-wired verification (a real StableStore behind the engine)
// ---------------------------------------------------------------------------

TEST(StoreWired, StableStoreDrivesDegradedSelection) {
  const mp::Program program = mp::parse(kRing);
  store::StorageModel model;
  model.full_every = 4;
  store::StorageFaultPlan faults;
  faults.faults = {store::StorageFaultPlan::bit_flip(1, 3)};
  store::StableStore store(model, store::CheckpointMode::kIncremental, 4,
                           faults);

  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.checkpoint_cost_fn =
      store::checkpoint_cost_fn(store, [](int) { return 1'000'000L; });
  opts.checkpoint_verify_fn = store::checkpoint_verify_fn(store);
  // Crash after take 4: with a real store the 4th write has not committed
  // yet (t_commit = now + latency), so the newest *candidate* record is
  // take 3 — exactly the one whose chain the bit flip rotted.
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 4)};

  sim::Engine engine(program, opts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  ASSERT_EQ(result.recoveries.size(), 1u);
  const sim::RecoveryRec& rec = result.recoveries[0];
  EXPECT_TRUE(rec.degraded);
  EXPECT_GE(rec.corrupt_records_skipped, 1);
  EXPECT_TRUE(trace::analyze_cut(result.trace, rec.cut).consistent);
  // The store agrees: ordinal 3 of process 1 does not verify, and the
  // degraded restore scan lands below it.
  EXPECT_FALSE(store.verify_record(1, 3));
  EXPECT_GT(store.latest_valid_index(1), 0);
}

// ---------------------------------------------------------------------------
// Lossy transport: the reliable shim under drop / dup / reorder
// ---------------------------------------------------------------------------

TEST(LossyTransport, ReliableShimPreservesExecution) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions clean;
  clean.nprocs = 4;
  const auto reference = sim::simulate(program, clean.nprocs, clean.seed);
  ASSERT_TRUE(reference.trace.completed);

  sim::SimOptions lossy = clean;
  lossy.delay = lossy_delay(0.2, 0.1, 0.3);
  sim::Engine engine(program, lossy);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  // Exactly-once FIFO delivery above the shim: identical digests and
  // channel counters, despite a wire that drops a fifth of all attempts.
  EXPECT_EQ(result.trace.final_digest, reference.trace.final_digest);
  EXPECT_EQ(result.final_sends, reference.final_sends);
  EXPECT_EQ(result.final_recvs, reference.final_recvs);
  // The reliability was not free:
  EXPECT_GT(result.stats.transport_sends, 0);
  EXPECT_GT(result.stats.transport_retransmits, 0);
  EXPECT_GT(result.stats.transport_dropped, 0);
  EXPECT_GT(result.stats.transport_acks, 0);
  EXPECT_EQ(result.stats.transport_give_ups, 0);
}

TEST(LossyTransport, ShimIsInertOnAReliableWire) {
  const mp::Program program = mp::parse(kRing);
  const auto result = sim::simulate(program, 4, 1);
  EXPECT_EQ(result.stats.transport_sends, 0);
  EXPECT_EQ(result.stats.transport_retransmits, 0);
  EXPECT_EQ(result.stats.transport_acks, 0);
  EXPECT_EQ(result.stats.transport_dropped, 0);
  EXPECT_EQ(result.stats.transport_give_ups, 0);
}

TEST(LossyTransport, RetryCapAbandonsUndeliverableTraffic) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.delay = lossy_delay(0.9);
  opts.transport.max_retries = 1;  // p(give-up) = 0.9² per payload
  sim::Engine engine(program, opts);
  const auto result = engine.run();
  EXPECT_GT(result.stats.transport_give_ups, 0);
  // Abandoned payloads starve blocked receivers: the run winds down
  // incomplete instead of spinning.
  EXPECT_FALSE(result.trace.completed);
}

TEST(LossyTransport, CrashRecoveryComposesWithLoss) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.delay = lossy_delay(0.1, 0.05, 0.2);
  sim::FaultPlan plan;
  plan.faults = {sim::FaultPlan::at_time(1, 12.0)};
  const sim::OracleReport oracle = sim::check_recovery(program, opts, plan);
  EXPECT_TRUE(oracle.ok) << oracle.failure;
  EXPECT_GE(oracle.restarts, 1);
  EXPECT_GT(oracle.metrics.transport_sends, 0);
}

TEST(LossyTransport, RetransmitFillsAHoleBehindAReplayBurst) {
  // Process 1's first five checkpoint images are torn, so the crash of
  // process 3 at t=60 sends process 1 back to its initial state, and 0's
  // in-transit sends to 1 are replayed in one burst — more than the
  // receiver's 16 initial reorder slots. With this seed the wire drops an
  // early message of the burst: the later ones fill and grow 1's reorder
  // buffer before the hole's retransmit arrives, which must still be
  // accepted.
  mp::WorkloadParams params;
  params.iterations = 12;
  const mp::Program program = mp::pipeline(params);
  sim::SimOptions opts;
  opts.nprocs = 8;
  opts.seed = 1;
  opts.checkpoint_overhead = 0.5;
  opts.recovery_overhead = 1.0;
  opts.delay.drop = 0.02;
  for (long ordinal = 1; ordinal <= 5; ++ordinal)
    opts.storage_faults.faults.push_back(
        store::StorageFaultPlan::torn_write(1, ordinal));
  sim::FaultPlan plan;
  plan.faults = {sim::FaultPlan::at_time(3, 60.0)};
  // The oracle requires completion, a consistent restored cut and a replay
  // that reaches the failure-free digests.
  const sim::OracleReport oracle = sim::check_recovery(program, opts, plan);
  EXPECT_TRUE(oracle.ok) << oracle.failure;
  EXPECT_EQ(oracle.restarts, 1);

  // Every straight cut of the failure-free run over the same lossy wire is
  // consistent. (The faulty trace keeps process 0's checkpoints while the
  // others re-take theirs, so its instance numbering no longer lines up.)
  const sim::SimResult clean = sim::Engine(program, opts).run();
  ASSERT_TRUE(clean.trace.completed);
  const auto cuts = trace::all_straight_cuts(clean.trace);
  EXPECT_EQ(cuts.size(), 12u);
  for (const auto& cut : cuts)
    EXPECT_TRUE(trace::analyze_cut(clean.trace, cut).consistent);

  // The scenario really drives the reorder buffer past its initial slots.
  opts.fault_plan = plan;
  const sim::SimResult faulty = sim::Engine(program, opts).run();
  ASSERT_EQ(faulty.recoveries.size(), 1u);
  EXPECT_GT(faulty.recoveries[0].replayed_messages, 16);
  EXPECT_GT(faulty.stats.transport_reorder_high_water, 16);
}

class ProtocolsUnderLoss : public ::testing::TestWithParam<proto::Protocol> {
};

TEST_P(ProtocolsUnderLoss, EveryBaselineSurvivesALossyWire) {
  const proto::Protocol protocol = GetParam();
  const mp::Program program = mp::parse(
      protocol == proto::Protocol::kAppDriven ? kRing : kBareRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 1.0;
  opts.delay = lossy_delay(0.05, 0.0, 0.1);
  proto::ProtocolOptions popts;
  popts.interval = 8.0;
  sim::FaultPlan plan;
  plan.faults = {sim::FaultPlan::at_time(1, 13.0)};
  const sim::OracleReport oracle =
      proto::check_protocol_recovery(program, protocol, opts, plan, popts);
  EXPECT_TRUE(oracle.ok) << proto::protocol_name(protocol) << ": "
                         << oracle.failure;
  EXPECT_GE(oracle.restarts, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, ProtocolsUnderLoss,
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

// ---------------------------------------------------------------------------
// The ≥100-combination joint sweep: crash × corruption × loss
// ---------------------------------------------------------------------------

sim::DelayModel sweep_delay(int variant) {
  switch (variant) {
    case 0:
      return sim::DelayModel{};  // reliable wire
    case 1:
      return lossy_delay(0.05);
    default:
      return lossy_delay(0.1, 0.05, 0.2);
  }
}

/// One parameter = (generator seed, misaligned placement); each test runs
/// 3 loss variants with jointly-derived crash and corruption plans, so
/// 17 seeds × 2 alignments × 3 variants = 102 combinations.
class DegradedSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(DegradedSweep, OracleHoldsUnderCrashCorruptionAndLoss) {
  const auto [seed, misalign] = GetParam();
  mp::GenerateOptions gopts;
  gopts.seed = seed;
  gopts.segments = 6;
  gopts.misalign_checkpoints = misalign;
  gopts.allow_collectives = false;
  gopts.allow_irregular = false;
  mp::Program program = mp::generate_program(gopts);
  ASSERT_TRUE(place::repair_placement(program).success)
      << mp::print(program);

  sim::SimOptions base;
  base.nprocs = 4;
  base.seed = seed;
  base.recovery_overhead = 0.5;
  const auto probe = sim::simulate(program, base.nprocs, base.seed);
  ASSERT_TRUE(probe.trace.completed) << mp::print(program);

  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    sim::SimOptions opts = base;
    opts.delay = sweep_delay(variant);
    opts.storage_faults = sim::random_storage_fault_plan(
        seed * 977 + static_cast<std::uint64_t>(variant), opts.nprocs,
        /*max_ordinal=*/6);
    const sim::FaultPlan plan = sim::random_fault_plan(
        seed * 131 + static_cast<std::uint64_t>(variant), opts.nprocs,
        probe.trace.end_time * 0.9);
    const sim::OracleReport oracle =
        sim::check_recovery(program, opts, plan);
    EXPECT_TRUE(oracle.ok) << oracle.failure << "\n" << mp::print(program);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Joint, DegradedSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 18),
                       ::testing::Bool()));

TEST(DegradedSweep, JointSweepIsNotVacuous) {
  // The sweep re-run in aggregate: enough combinations must actually
  // exercise rollbacks, degraded fallbacks, AND retransmissions — guarding
  // against the whole matrix silently degenerating into clean runs.
  long combos = 0;
  long rollbacks = 0;
  long degraded = 0;
  long retransmits = 0;
  for (std::uint64_t seed = 1; seed <= 17; ++seed) {
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
      for (int variant = 0; variant < 3; ++variant) {
        ++combos;
        sim::SimOptions opts = base;
        opts.delay = sweep_delay(variant);
        opts.storage_faults = sim::random_storage_fault_plan(
            seed * 977 + static_cast<std::uint64_t>(variant), opts.nprocs,
            6);
        const sim::FaultPlan plan = sim::random_fault_plan(
            seed * 131 + static_cast<std::uint64_t>(variant), opts.nprocs,
            probe.trace.end_time * 0.9);
        const sim::OracleReport oracle =
            sim::check_recovery(program, opts, plan);
        ASSERT_TRUE(oracle.ok) << oracle.failure;
        rollbacks += oracle.restarts;
        degraded += oracle.metrics.degraded_rollbacks;
        retransmits += oracle.metrics.transport_retransmits;
      }
    }
  }
  EXPECT_GE(combos, 100);
  EXPECT_GE(rollbacks, combos / 4);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(retransmits, 0);
}

// ---------------------------------------------------------------------------
// Parallel determinism under the combined fault model
// ---------------------------------------------------------------------------

TEST(ParallelDeterminism, BatchBitIdenticalUnderCrashCorruptionAndLoss) {
  const mp::Program program = mp::parse(kRing);
  std::vector<sim::SimOptions> configs;
  for (int i = 0; i < 12; ++i) {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.seed = sim::run_seed(99, i);
    opts.recovery_overhead = 0.5;
    opts.delay = sweep_delay(i % 3);
    opts.storage_faults =
        sim::random_storage_fault_plan(opts.seed, opts.nprocs, 6);
    opts.fault_plan = sim::random_fault_plan(opts.seed, opts.nprocs, 30.0);
    configs.push_back(opts);
  }
  const auto serial = sim::run_batch(program, configs, {.threads = 1});
  const auto parallel = sim::run_batch(program, configs, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace.final_digest, parallel[i].trace.final_digest)
        << "run " << i;
    EXPECT_EQ(serial[i].trace.events.size(),
              parallel[i].trace.events.size())
        << "run " << i;
    EXPECT_EQ(serial[i].stats.transport_retransmits,
              parallel[i].stats.transport_retransmits)
        << "run " << i;
    EXPECT_EQ(serial[i].recoveries.size(), parallel[i].recoveries.size())
        << "run " << i;
    for (size_t r = 0; r < serial[i].recoveries.size(); ++r) {
      EXPECT_EQ(serial[i].recoveries[r].fallback_depth,
                parallel[i].recoveries[r].fallback_depth);
      EXPECT_EQ(serial[i].recoveries[r].degraded,
                parallel[i].recoveries[r].degraded);
    }
  }
  EXPECT_EQ(sim::aggregate(serial).digest, sim::aggregate(parallel).digest);
}

// ---------------------------------------------------------------------------
// Degraded metrics surface through recovery_metrics
// ---------------------------------------------------------------------------

TEST(DegradedMetrics, AggregatesFallbackAndTransportAxes) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.recovery_overhead = 0.5;
  opts.delay = lossy_delay(0.1);
  opts.storage_faults.faults = {store::StorageFaultPlan::bit_flip(2, 3)};
  opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(2, 3)};
  sim::Engine engine(program, opts);
  std::vector<sim::SimResult> runs;
  runs.push_back(engine.run());
  const sim::RecoveryMetrics metrics = sim::recovery_metrics(runs);
  EXPECT_EQ(metrics.failures, 1);
  EXPECT_EQ(metrics.degraded_rollbacks, 1);
  EXPECT_GE(metrics.corrupt_records_skipped, 1);
  EXPECT_GE(metrics.mean_fallback_depth, 1.0);
  EXPECT_GT(metrics.transport_sends, 0);
  EXPECT_GT(metrics.retransmit_overhead, 0.0);
}

TEST(DegradedMetrics, RandomStoragePlansAreDeterministicAndInRange) {
  const auto a = sim::random_storage_fault_plan(7, 4, 6, 3);
  const auto b = sim::random_storage_fault_plan(7, 4, 6, 3);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  EXPECT_FALSE(a.empty());
  for (size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].proc, b.faults[i].proc);
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].ckpt_ordinal, b.faults[i].ckpt_ordinal);
    EXPECT_GE(a.faults[i].proc, 0);
    EXPECT_LT(a.faults[i].proc, 4);
    EXPECT_GE(a.faults[i].ckpt_ordinal, 1);
    EXPECT_LE(a.faults[i].ckpt_ordinal, 6);
  }
}

}  // namespace

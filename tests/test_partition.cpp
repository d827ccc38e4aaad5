// Partition / gray-failure / supervision tests (docs/simulator.md,
// "Partitions, gray failures & supervision"):
//
//  * fault-model semantics: fast-path partitions defer departures to the
//    heal, lossy-wire partitions drop attempts and the reliable shim's
//    retransmits carry across, stalls defer a process's events in order,
//    slow links stretch the schedule — all without changing final state;
//  * the heartbeat Detector as a pure state machine;
//  * the Supervisor: crash → unanimous suspicion → backoff restart →
//    completion with detection latency / downtime stamped; false suspicion
//    under partition is safe (wasteful rollback, identical final state);
//    budget exhaustion quarantines and the run degrades gracefully —
//    upstream pipeline stages still finish, a wedged ring terminates via
//    dormancy instead of spinning to max_events;
//  * bit-determinism: same seed ⇒ identical digests, detection times, and
//    restart counts; serial ≡ parallel batches;
//  * PartitionOracleSlow: a 104-combination crash × partition × stall
//    sweep through the recovery oracle under supervision.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mp/parser.h"
#include "obs/metrics.h"
#include "sim/detector.h"
#include "sim/engine.h"
#include "sim/montecarlo.h"
#include "sim/recovery.h"
#include "sim/supervisor.h"
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

sim::SimOptions ring_options() {
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.seed = 1;
  opts.recovery_overhead = 0.5;
  return opts;
}

sim::SimResult run_ring(const sim::SimOptions& opts,
                        sim::ProtocolDriver* driver = nullptr) {
  const mp::Program program = mp::parse(kRing);
  sim::Engine engine(program, opts, driver);
  return engine.run();
}

/// Supervision tuned to the ring's ~20 s makespan: heartbeats every 0.5 s,
/// suspicion after 2 s of silence, a 1 s detector sweep.
sim::SupervisorOptions ring_supervision(int budget = 3) {
  sim::SupervisorOptions so;
  so.detector.hb_interval = 0.5;
  so.detector.timeout = 2.0;
  so.detector.hb_bytes = 1;
  so.poll_interval = 1.0;
  so.restart_budget = budget;
  so.backoff_base = 0.5;
  so.backoff_factor = 2.0;
  so.backoff_max = 2.0;
  return so;
}

// ---------------------------------------------------------------------------
// Fault-model plumbing

TEST(FaultPlanModel, WindowHelpersAndEmptinessCoverTheNewKinds) {
  sim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.partitions = {sim::FaultPlan::partition({1, 2}, 3.0, 7.0, false)};
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.partitions[0].group, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(plan.partitions[0].start, 3.0);
  EXPECT_DOUBLE_EQ(plan.partitions[0].heal, 7.0);
  EXPECT_FALSE(plan.partitions[0].symmetric);

  plan = {};
  plan.stalls = {sim::FaultPlan::stall(2, 1.0, 0.5)};
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.stalls[0].proc, 2);
  EXPECT_DOUBLE_EQ(plan.stalls[0].duration, 0.5);

  plan = {};
  plan.slow_links = {sim::FaultPlan::slow_link(0, 3, 2.0, 9.0, 10.0)};
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.slow_links[0].src, 0);
  EXPECT_EQ(plan.slow_links[0].dst, 3);
  EXPECT_DOUBLE_EQ(plan.slow_links[0].factor, 10.0);
}

// ---------------------------------------------------------------------------
// Partition / stall / slow-link semantics on the engine

TEST(Partition, FastPathDefersSendsToTheHealAndReplaysIdentically) {
  const sim::SimResult reference = run_ring(ring_options());
  ASSERT_TRUE(reference.trace.completed);

  sim::SimOptions opts = ring_options();
  opts.fault_plan.partitions = {sim::FaultPlan::partition({1}, 5.0, 12.0)};
  const sim::SimResult cut = run_ring(opts);
  ASSERT_TRUE(cut.trace.completed);
  EXPECT_GT(cut.stats.partition_deferred_sends, 0);
  EXPECT_EQ(cut.stats.partition_dropped_attempts, 0);  // reliable fast path
  // Deferral only delays delivery; the final state is unchanged and the
  // schedule is strictly no shorter.
  EXPECT_EQ(cut.trace.final_digest, reference.trace.final_digest);
  EXPECT_GE(cut.trace.end_time, reference.trace.end_time);
}

TEST(Partition, AsymmetricCutBlocksOnlyGroupToComplement) {
  const sim::SimResult reference = run_ring(ring_options());

  sim::SimOptions sym = ring_options();
  sym.fault_plan.partitions = {
      sim::FaultPlan::partition({1}, 5.0, 12.0, /*symmetric=*/true)};
  const sim::SimResult sym_run = run_ring(sym);

  sim::SimOptions asym = ring_options();
  asym.fault_plan.partitions = {
      sim::FaultPlan::partition({1}, 5.0, 12.0, /*symmetric=*/false)};
  const sim::SimResult asym_run = run_ring(asym);

  ASSERT_TRUE(sym_run.trace.completed);
  ASSERT_TRUE(asym_run.trace.completed);
  // The one-way cut still defers 1's departures, but leaves 0→1 alone —
  // the two-way cut can only defer more.
  EXPECT_GT(asym_run.stats.partition_deferred_sends, 0);
  EXPECT_GE(sym_run.stats.partition_deferred_sends,
            asym_run.stats.partition_deferred_sends);
  EXPECT_EQ(sym_run.trace.final_digest, reference.trace.final_digest);
  EXPECT_EQ(asym_run.trace.final_digest, reference.trace.final_digest);
}

TEST(Partition, LossyWireDropsAttemptsAndTheShimCarriesAcrossTheHeal) {
  sim::SimOptions base = ring_options();
  base.delay.drop = 0.02;  // activates the reliable-transport shim
  const sim::SimResult reference = run_ring(base);
  ASSERT_TRUE(reference.trace.completed);

  sim::SimOptions opts = base;
  opts.fault_plan.partitions = {sim::FaultPlan::partition({2}, 4.0, 8.0)};
  const sim::SimResult cut = run_ring(opts);
  ASSERT_TRUE(cut.trace.completed);
  // On the lossy wire the cut eats transmission attempts outright; the
  // RTO retransmissions after the heal are what deliver the payloads.
  EXPECT_GT(cut.stats.partition_dropped_attempts, 0);
  EXPECT_EQ(cut.stats.partition_deferred_sends, 0);
  EXPECT_GT(cut.stats.transport_retransmits,
            reference.stats.transport_retransmits);
  EXPECT_EQ(cut.stats.transport_give_ups, 0);
  EXPECT_EQ(cut.trace.final_digest, reference.trace.final_digest);
}

TEST(Stall, DefersTheProcessesEventsInOrderAndReplaysIdentically) {
  const sim::SimResult reference = run_ring(ring_options());

  sim::SimOptions opts = ring_options();
  opts.fault_plan.stalls = {sim::FaultPlan::stall(2, 4.0, 5.0)};
  const sim::SimResult stalled = run_ring(opts);
  ASSERT_TRUE(stalled.trace.completed);
  EXPECT_GT(stalled.stats.stall_deferred_events, 0);
  EXPECT_EQ(stalled.trace.final_digest, reference.trace.final_digest);
  EXPECT_GE(stalled.trace.end_time, reference.trace.end_time);
}

TEST(SlowLink, StretchesTheScheduleWithoutChangingFinalState) {
  const sim::SimResult reference = run_ring(ring_options());

  sim::SimOptions opts = ring_options();
  opts.fault_plan.slow_links = {
      sim::FaultPlan::slow_link(-1, -1, 0.0, 1e6, 100.0)};
  const sim::SimResult slowed = run_ring(opts);
  ASSERT_TRUE(slowed.trace.completed);
  EXPECT_EQ(slowed.trace.final_digest, reference.trace.final_digest);
  EXPECT_GT(slowed.trace.end_time, reference.trace.end_time);
}

// ---------------------------------------------------------------------------
// The heartbeat detector as a pure state machine

TEST(Detector, BootCountsAsAHeartbeatAndSilenceTimesOut) {
  sim::DetectorOptions dopts;
  dopts.hb_interval = 0.5;
  dopts.timeout = 2.0;
  sim::Detector d(3, dopts);
  EXPECT_FALSE(d.timed_out(0, 1, 1.9));
  EXPECT_TRUE(d.timed_out(0, 1, 2.5));
  d.note_heartbeat(0, 1, 1.0);
  EXPECT_FALSE(d.timed_out(0, 1, 2.5));
  EXPECT_TRUE(d.timed_out(0, 1, 3.5));
}

TEST(Detector, HeartbeatTimesAreMonotone) {
  sim::Detector d(2, {});
  d.note_heartbeat(0, 1, 5.0);
  d.note_heartbeat(0, 1, 4.0);  // late arrival of an older heartbeat
  EXPECT_FALSE(d.timed_out(0, 1, 5.0 + d.options().timeout));
}

TEST(Detector, SuspectAndTrustTransitionsCountOnce) {
  sim::Detector d(2, {});
  EXPECT_FALSE(d.suspected(0, 1));
  d.mark_suspected(0, 1);
  d.mark_suspected(0, 1);  // idempotent
  EXPECT_TRUE(d.suspected(0, 1));
  EXPECT_EQ(d.suspect_transitions(), 1);
  d.note_heartbeat(0, 1, 9.0);  // trust transition
  EXPECT_FALSE(d.suspected(0, 1));
  EXPECT_EQ(d.trust_transitions(), 1);
}

TEST(Detector, ResetClearsSuspicionsAndRestartsTheClock) {
  sim::DetectorOptions dopts;
  dopts.timeout = 1.5;
  sim::Detector d(3, dopts);
  d.mark_suspected(2, 0);
  d.reset(10.0);
  EXPECT_FALSE(d.suspected(2, 0));
  EXPECT_FALSE(d.timed_out(2, 0, 11.0));
  EXPECT_TRUE(d.timed_out(2, 0, 11.6));
}

// ---------------------------------------------------------------------------
// The supervisor: detection, restart, false suspicion, quarantine

TEST(Supervisor, DetectsACrashRestartsAndCompletesBitIdentically) {
  const mp::Program program = mp::parse(kRing);

  sim::Supervisor ref_sup(ring_supervision());
  sim::Engine ref_engine(program, ring_options(), &ref_sup);
  const sim::SimResult reference = ref_engine.run();
  ASSERT_TRUE(reference.trace.completed);
  EXPECT_EQ(reference.stats.suspicions, 0);

  sim::SimOptions opts = ring_options();
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 7.0)};
  sim::Supervisor sup(ring_supervision());
  sim::Engine engine(program, opts, &sup);
  const sim::SimResult result = engine.run();

  ASSERT_TRUE(result.trace.completed);
  ASSERT_GE(result.recoveries.size(), 1u);
  const sim::RecoveryRec& rec = result.recoveries.front();
  EXPECT_EQ(rec.failed_proc, 1);
  EXPECT_FALSE(rec.false_suspicion);
  // Detection is an in-model protocol event: crash → ≥ timeout −
  // hb_interval of silence → the next poll reaches the verdict.
  EXPECT_GE(rec.detection_latency, 1.0);
  EXPECT_LE(rec.detection_latency, 5.0);
  EXPECT_GE(rec.downtime, rec.detection_latency);
  EXPECT_GE(result.stats.suspicions, 1);
  EXPECT_EQ(result.stats.false_suspicions, 0);
  EXPECT_GE(result.stats.supervised_restarts, 1);
  EXPECT_EQ(result.stats.quarantines, 0);
  // Heartbeats aimed at the dead process were dropped, not delivered.
  EXPECT_GT(result.stats.crash_dropped_events, 0);
  EXPECT_GE(sup.restarts(), 1);
  EXPECT_FALSE(sup.dormant());
  // Rollback recovery replays bit-identically to the failure-free run.
  EXPECT_EQ(result.trace.final_digest, reference.trace.final_digest);
}

TEST(Supervisor, FalseSuspicionUnderPartitionIsSafeButWasteful) {
  const mp::Program program = mp::parse(kRing);

  sim::Supervisor ref_sup(ring_supervision(/*budget=*/10));
  sim::Engine ref_engine(program, ring_options(), &ref_sup);
  const sim::SimResult reference = ref_engine.run();

  // No crash anywhere — a symmetric partition of {1} merely suppresses its
  // heartbeats for longer than the detector timeout.
  sim::SimOptions opts = ring_options();
  opts.fault_plan.partitions = {sim::FaultPlan::partition({1}, 6.0, 16.0)};
  sim::Supervisor sup(ring_supervision(/*budget=*/10));
  sim::Engine engine(program, opts, &sup);
  const sim::SimResult result = engine.run();

  ASSERT_TRUE(result.trace.completed);
  EXPECT_GE(result.stats.false_suspicions, 1);
  EXPECT_EQ(result.stats.quarantines, 0);
  bool saw_false_suspicion_rec = false;
  for (const auto& rec : result.recoveries)
    if (rec.false_suspicion) {
      saw_false_suspicion_rec = true;
      EXPECT_EQ(rec.failed_proc, 1);
    }
  EXPECT_TRUE(saw_false_suspicion_rec);
  EXPECT_GE(sup.false_suspicions(), 1);
  // Safety: the wasteful rollbacks still replay to the identical state.
  EXPECT_EQ(result.trace.final_digest, reference.trace.final_digest);
}

TEST(Supervisor, QuarantineTerminatesAWedgedRingGracefully) {
  // Budget 0: the first verdict retires the subject. Every ring process
  // depends on its neighbours, so the survivors wedge — the dormancy
  // watchdog must notice and let the run terminate incomplete instead of
  // spinning the control plane to max_events.
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts = ring_options();
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 6.0)};
  sim::Supervisor sup(ring_supervision(/*budget=*/0));
  sim::Engine engine(program, opts, &sup);
  const sim::SimResult result = engine.run();

  EXPECT_FALSE(result.trace.completed);
  EXPECT_GE(result.stats.quarantines, 1);
  EXPECT_EQ(result.stats.supervised_restarts, 0);
  EXPECT_TRUE(engine.is_quarantined(1));
  EXPECT_TRUE(sup.dormant());
  EXPECT_LT(result.stats.events_processed, 200'000);
}

TEST(Supervisor, QuarantinedSinkStillLetsUpstreamStagesFinish) {
  // A one-directional pipeline: stage r feeds r+1, the last stage is a
  // pure sink. Quarantining the sink must not stop stages 0..n-2 — this is
  // the graceful-degradation payoff over whole-run wedging.
  mp::WorkloadParams params;
  params.iterations = 4;
  params.compute_cost = 2.0;
  params.message_bytes = 64;
  const mp::Program program = mp::pipeline(params);

  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.seed = 1;
  opts.recovery_overhead = 0.5;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(3, 5.0)};

  sim::SupervisorOptions sopts = ring_supervision(/*budget=*/0);
  sopts.detector.hb_interval = 0.25;
  sopts.detector.timeout = 1.0;
  sopts.poll_interval = 0.5;
  sim::Supervisor sup(sopts);
  sim::Engine engine(program, opts, &sup);
  const sim::SimResult result = engine.run();

  EXPECT_FALSE(result.trace.completed);
  EXPECT_GE(result.stats.quarantines, 1);
  EXPECT_TRUE(engine.is_quarantined(3));
  for (int p = 0; p < 3; ++p)
    EXPECT_TRUE(engine.is_done(p)) << "upstream stage " << p << " wedged";
}

// ---------------------------------------------------------------------------
// Bit-determinism of supervised and window-injected runs

TEST(Determinism, SupervisedRunsAreBitIdenticalAcrossRepeats) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts = ring_options();
  opts.fault_plan.faults = {sim::FaultPlan::at_time(2, 8.0)};
  opts.fault_plan.partitions = {sim::FaultPlan::partition({0}, 4.0, 7.0)};
  opts.fault_plan.stalls = {sim::FaultPlan::stall(3, 10.0, 1.5)};

  auto run_once = [&] {
    sim::Supervisor sup(ring_supervision(/*budget=*/10));
    sim::Engine engine(program, opts, &sup);
    return engine.run();
  };
  const sim::SimResult a = run_once();
  const sim::SimResult b = run_once();

  EXPECT_EQ(a.trace.final_digest, b.trace.final_digest);
  EXPECT_DOUBLE_EQ(a.trace.end_time, b.trace.end_time);
  EXPECT_EQ(a.stats.supervised_restarts, b.stats.supervised_restarts);
  EXPECT_EQ(a.stats.suspicions, b.stats.suspicions);
  EXPECT_EQ(a.stats.false_suspicions, b.stats.false_suspicions);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.recoveries[i].detection_latency,
                     b.recoveries[i].detection_latency);
    EXPECT_DOUBLE_EQ(a.recoveries[i].downtime, b.recoveries[i].downtime);
    EXPECT_EQ(a.recoveries[i].false_suspicion,
              b.recoveries[i].false_suspicion);
  }
}

TEST(Determinism, WindowInjectedBatchesAgreeSerialAndParallel) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions base = ring_options();
  std::vector<sim::SimOptions> configs = sim::seed_sweep(base, 8);
  for (std::size_t i = 0; i < configs.size(); ++i)
    configs[i].fault_plan = sim::random_fault_plan(
        sim::run_seed(99, static_cast<long>(i)), base.nprocs, 16.0,
        /*max_faults=*/1, /*max_partitions=*/2, /*max_stalls=*/2);

  const auto serial = sim::run_batch(program, configs, {.threads = 1});
  const auto parallel = sim::run_batch(program, configs, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace.final_digest, parallel[i].trace.final_digest)
        << "run " << i;
    EXPECT_DOUBLE_EQ(serial[i].trace.end_time, parallel[i].trace.end_time);
  }
  EXPECT_EQ(sim::aggregate(serial).digest, sim::aggregate(parallel).digest);
}

TEST(Determinism, SupervisedFanOutMatchesSerialExecution) {
  const mp::Program program = mp::parse(kRing);
  auto run_indexed = [&](int threads) {
    return sim::parallel_map(6, {.threads = threads}, [&](long i) {
      sim::SimOptions opts = ring_options();
      opts.seed = sim::run_seed(41, i);
      opts.fault_plan = sim::random_fault_plan(
          sim::run_seed(42, i), opts.nprocs, 16.0, /*max_faults=*/1,
          /*max_partitions=*/1, /*max_stalls=*/1);
      // Per-run-resources rule: each run owns its supervisor.
      sim::Supervisor sup(ring_supervision(/*budget=*/50));
      sim::Engine engine(program, opts, &sup);
      return engine.run();
    });
  };
  const auto serial = run_indexed(1);
  const auto parallel = run_indexed(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace.final_digest, parallel[i].trace.final_digest);
    EXPECT_EQ(serial[i].stats.supervised_restarts,
              parallel[i].stats.supervised_restarts);
    EXPECT_EQ(serial[i].stats.suspicions, parallel[i].stats.suspicions);
    ASSERT_EQ(serial[i].recoveries.size(), parallel[i].recoveries.size());
    for (std::size_t r = 0; r < serial[i].recoveries.size(); ++r)
      EXPECT_DOUBLE_EQ(serial[i].recoveries[r].detection_latency,
                       parallel[i].recoveries[r].detection_latency);
  }
}

// ---------------------------------------------------------------------------
// Observability: the detection control plane exports its counters

TEST(Obs, SupervisionMetricsAndOutageSpansAreExported) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions opts = ring_options();
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 7.0)};
  opts.fault_plan.partitions = {sim::FaultPlan::partition({2}, 3.0, 4.0)};
  obs::Registry registry;
  opts.obs = &registry;
  sim::Supervisor sup(ring_supervision());
  sim::Engine engine(program, opts, &sup);
  const sim::SimResult result = engine.run();
  ASSERT_TRUE(result.trace.completed);

  const obs::MetricsSnapshot snap = registry.snapshot();
  // Counters and histograms both report their total/count in `count`.
  auto value_of = [&](const std::string& name) -> long long {
    for (const auto& [n, m] : snap.metrics)
      if (n == name) return m.count;
    ADD_FAILURE() << "metric " << name << " missing";
    return -1;
  };
  EXPECT_EQ(value_of("detector.suspicions"), result.stats.suspicions);
  EXPECT_EQ(value_of("supervisor.restarts"),
            result.stats.supervised_restarts);
  EXPECT_EQ(value_of("engine.crash_dropped_events"),
            result.stats.crash_dropped_events);
  EXPECT_EQ(value_of("partition.deferred_sends"),
            result.stats.partition_deferred_sends);
  EXPECT_GE(value_of("supervisor.detection_latency_us"), 1);
  EXPECT_GE(value_of("supervisor.downtime_us"), 1);
  bool saw_outage = false;
  for (const auto& span : snap.spans)
    if (span.name == "supervisor.outage") saw_outage = true;
  EXPECT_TRUE(saw_outage);
}

// ---------------------------------------------------------------------------
// The crash × partition × stall oracle sweep (slow tier)

TEST(PartitionOracleSlow, CrashPartitionStallCombinationsAllRecover) {
  const mp::Program program = mp::parse(kRing);
  sim::SimOptions base = ring_options();

  sim::SupervisorOptions sweep_sup = ring_supervision(/*budget=*/100);
  sweep_sup.detector.hb_interval = 0.25;
  sweep_sup.detector.timeout = 1.5;
  sweep_sup.poll_interval = 0.5;
  sweep_sup.backoff_base = 0.25;
  sweep_sup.backoff_max = 1.0;
  const sim::DriverFactory factory = [&sweep_sup] {
    return std::unique_ptr<sim::ProtocolDriver>(
        std::make_unique<sim::Supervisor>(sweep_sup));
  };

  // Probe the supervised failure-free makespan once so every window and
  // crash trigger lands inside the live part of the run.
  double horizon = 0.0;
  {
    sim::Supervisor sup(sweep_sup);
    sim::Engine engine(program, base, &sup);
    horizon = engine.run().trace.end_time * 0.9;
  }
  ASSERT_GT(horizon, 0.0);

  long combos = 0, rollbacks = 0, suspicions = 0, false_suspicions = 0;
  long plans_with_windows = 0;
  for (std::uint64_t seed = 1; seed <= 52; ++seed) {
    for (int variant = 0; variant < 2; ++variant) {
      ++combos;
      const sim::FaultPlan plan = sim::random_fault_plan(
          seed * 977 + static_cast<std::uint64_t>(variant), base.nprocs,
          horizon, /*max_faults=*/2, /*max_partitions=*/2, /*max_stalls=*/2);
      if (!plan.partitions.empty() || !plan.stalls.empty())
        ++plans_with_windows;
      const sim::OracleReport oracle =
          sim::check_recovery(program, base, plan, {}, factory);
      ASSERT_TRUE(oracle.ok)
          << "seed=" << seed << " variant=" << variant << ": "
          << oracle.failure;
      rollbacks += oracle.restarts;
      suspicions += oracle.metrics.suspicions;
      false_suspicions += oracle.metrics.false_suspicions;
    }
  }
  EXPECT_GE(combos, 100);
  // Vacuity guards: the sweep must actually exercise detection, rollback,
  // and gray-failure windows — not just replay failure-free runs.
  EXPECT_GE(rollbacks, combos / 4);
  EXPECT_GT(suspicions, 0);
  EXPECT_GT(false_suspicions, 0);
  EXPECT_GE(plans_with_windows, combos / 3);
}

}  // namespace

// Tests for engine features layered on the core semantics: checkpoint
// latency vs overhead (commit times gate recovery), store-backed
// checkpoint cost callbacks, and heterogeneous per-process compute
// speeds.
#include <gtest/gtest.h>

#include "mp/parser.h"
#include "sim/engine.h"
#include "store/store.h"
#include "trace/analysis.h"
#include "util/error.h"

namespace {

using namespace acfc;

TEST(CheckpointLatency, CommitTimeRecorded) {
  const mp::Program p = mp::parse("program t { checkpoint; compute 1.0; }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.checkpoint_overhead = 1.0;
  opts.checkpoint_latency = 4.0;  // async tail: durable later than resume
  const auto r = sim::Engine(p, opts).run();
  ASSERT_EQ(r.trace.checkpoints.size(), 2u);
  for (const auto& c : r.trace.checkpoints) {
    EXPECT_DOUBLE_EQ(c.t_end, c.t_begin + 1.0);
    EXPECT_DOUBLE_EQ(c.t_commit, c.t_begin + 4.0);
  }
  // The process resumed after the overhead, not the latency.
  EXPECT_LT(r.trace.end_time, 3.0);
}

TEST(CheckpointLatency, UncommittedCheckpointNotUsedForRecovery) {
  // Failure lands after the checkpoint's t_end but before t_commit: the
  // image is not yet durable, so recovery must fall back (here: initial
  // state — the 5 s of work reruns, pushing the makespan past 10 s).
  const mp::Program p = mp::parse(R"(
    program t { compute 5.0; checkpoint; compute 5.0; })");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.checkpoint_latency = 3.0;  // durable at t=8
  // After t_end (5.0), before t_commit.
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 6.0)};
  const auto r = sim::Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_GT(r.trace.end_time, 15.0);  // restarted from scratch

  // Same failure after the commit: only the tail reruns.
  sim::SimOptions late = opts;
  late.fault_plan.faults = {sim::FaultPlan::at_time(0, 9.0)};
  const auto r2 = sim::Engine(p, late).run();
  EXPECT_TRUE(r2.trace.completed);
  EXPECT_LT(r2.trace.end_time, 15.0);
}

TEST(CheckpointCostFn, OverridesConstants) {
  const mp::Program p = mp::parse(
      "program t { checkpoint; compute 1.0; checkpoint; }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.checkpoint_overhead = 100.0;  // would dominate if used
  opts.checkpoint_cost_fn = [](int) { return std::make_pair(0.5, 2.0); };
  const auto r = sim::Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_LT(r.trace.end_time, 5.0);  // 2×0.5 + 1.0, not 100s
  for (const auto& c : r.trace.checkpoints) {
    EXPECT_DOUBLE_EQ(c.t_end - c.t_begin, 0.5);
    EXPECT_DOUBLE_EQ(c.t_commit - c.t_begin, 2.0);
  }
}

TEST(CheckpointCostFn, StoreBackedCostsGrowWithChain) {
  const mp::Program p = mp::parse(R"(
    program t { loop 3 { compute 1.0; checkpoint; } })");
  store::StorageModel model;
  model.write_bandwidth = 10e6;
  model.full_every = 8;
  store::StableStore stable(model, store::CheckpointMode::kIncremental, 2);
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.checkpoint_cost_fn = [&stable](int proc) {
    const auto cost = stable.write_checkpoint(proc, 50'000'000, 0.0);
    return std::make_pair(cost.seconds, cost.seconds);
  };
  const auto r = sim::Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  // First checkpoint per proc is a full image (5 s); later ones deltas.
  const auto c0 = r.trace.checkpoints_of(0);
  ASSERT_EQ(c0.size(), 3u);
  EXPECT_GT(c0[0].t_end - c0[0].t_begin, 4.0);
  EXPECT_LT(c0[1].t_end - c0[1].t_begin, 3.0);
  EXPECT_EQ(stable.record_count(0), 3);
  EXPECT_EQ(stable.chain_length(0), 3);
}

TEST(ComputeSpeed, FasterNodesFinishSooner) {
  const mp::Program p = mp::parse("program t { compute 10.0; }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.compute_speed = {2.0, 0.5};
  const auto r = sim::Engine(p, opts).run();
  double done0 = 0, done1 = 0;
  for (const auto& e : r.trace.events) {
    if (e.kind != trace::EventKind::kFinish) continue;
    (e.proc == 0 ? done0 : done1) = e.time;
  }
  EXPECT_NEAR(done0, 5.0, 1e-9);
  EXPECT_NEAR(done1, 20.0, 1e-9);
}

TEST(ComputeSpeed, HeterogeneousRunStillSafe) {
  const mp::Program p = mp::parse(R"(
    program t {
      loop 3 {
        checkpoint;
        compute 4.0;
        send to (rank + 1) % nprocs tag 1;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
      }
    })");
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.compute_speed = {1.0, 0.4, 1.6, 0.8};
  const auto r = sim::Engine(p, opts).run();
  ASSERT_TRUE(r.trace.completed);
  for (const auto& cut : trace::all_straight_cuts(r.trace))
    EXPECT_TRUE(trace::analyze_cut(r.trace, cut).consistent);
}

TEST(ComputeSpeed, InvalidSpeedThrows) {
  const mp::Program p = mp::parse("program t { compute 1.0; }");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.compute_speed = {1.0, 0.0};
  sim::Engine engine(p, opts);
  EXPECT_THROW(engine.run(), util::InternalError);
}

TEST(ComputeSpeed, DigestUnaffectedBySpeeds) {
  const mp::Program p = mp::parse(R"(
    program t {
      loop 2 {
        send to (rank + 1) % nprocs tag 1;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
        compute 2.0;
      }
    })");
  sim::SimOptions a;
  a.nprocs = 3;
  sim::SimOptions b = a;
  b.compute_speed = {0.3, 1.0, 2.5};
  const auto ra = sim::Engine(p, a).run();
  const auto rb = sim::Engine(p, b).run();
  EXPECT_EQ(ra.trace.final_digest, rb.trace.final_digest);
}

}  // namespace

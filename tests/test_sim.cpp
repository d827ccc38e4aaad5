// Unit tests for the discrete-event simulator: execution semantics (FIFO,
// blocking receives, collectives), vector-clock instrumentation,
// determinism, error detection, and failure/recovery with message-log
// replay.
#include <gtest/gtest.h>

#include "mp/lower.h"
#include "mp/parser.h"
#include "sim/engine.h"
#include "util/error.h"

namespace {

using namespace acfc;
using sim::Engine;
using sim::SimOptions;
using sim::SimResult;

SimResult run(const std::string& source, int nprocs,
              std::uint64_t seed = 1) {
  const mp::Program p = mp::parse(source);
  return sim::simulate(p, nprocs, seed);
}

TEST(Sim, StraightLineCompletes) {
  const auto r = run("program t { compute 1.0; compute 2.0; }", 2);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_GE(r.trace.end_time, 3.0);
  // 2 procs × 2 computes + 2 finishes.
  int computes = 0;
  for (const auto& e : r.trace.events)
    if (e.kind == trace::EventKind::kCompute) ++computes;
  EXPECT_EQ(computes, 4);
}

TEST(Sim, RingShiftDeliversEveryMessage) {
  const auto r = run(R"(
    program ring {
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    })",
                     5);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.app_messages, 5);
  for (const auto& m : r.trace.messages) {
    EXPECT_TRUE(m.consumed);
    EXPECT_EQ(m.dst, (m.src + 1) % 5);
  }
}

TEST(Sim, RecvBlocksUntilDelivery) {
  // Rank 1 receives before rank 0 sends (rank 0 computes first): the recv
  // completion time must be at least the send time plus delay.
  const auto r = run(R"(
    program late {
      if (rank == 0) { compute 10.0; send to 1 tag 1; }
      else { recv from 0 tag 1; }
    })",
                     2);
  EXPECT_TRUE(r.trace.completed);
  const auto msgs = r.trace.app_messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_GE(msgs[0].recv_time, 10.0);
}

TEST(Sim, FifoPerChannel) {
  const auto r = run(R"(
    program fifo {
      if (rank == 0) {
        send to 1 tag 1; send to 1 tag 1; send to 1 tag 1;
      } else {
        recv from 0 tag 1; recv from 0 tag 1; recv from 0 tag 1;
      }
    })",
                     2);
  EXPECT_TRUE(r.trace.completed);
  const auto msgs = r.trace.app_messages();
  ASSERT_EQ(msgs.size(), 3u);
  // Sequence numbers consumed in order.
  std::vector<double> recv_times;
  for (const auto& m : msgs) recv_times.push_back(m.recv_time);
  for (size_t i = 1; i < msgs.size(); ++i) {
    EXPECT_LT(msgs[i - 1].seq, msgs[i].seq);
    EXPECT_LE(msgs[i - 1].recv_time, msgs[i].recv_time);
  }
}

TEST(Sim, TagSelectionWithinChannel) {
  // Receiver asks for tag 2 first although tag 1 arrives first.
  const auto r = run(R"(
    program tags {
      if (rank == 0) {
        send to 1 tag 1; send to 1 tag 2;
      } else {
        recv from 0 tag 2; recv from 0 tag 1;
      }
    })",
                     2);
  EXPECT_TRUE(r.trace.completed);
}

TEST(Sim, AnySourceReceives) {
  const auto r = run(R"(
    program any {
      if (rank == 0) {
        recv from any tag 1; recv from any tag 1;
      } else {
        send to 0 tag 1;
      }
    })",
                     3);
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.app_messages, 2);
}

TEST(Sim, VectorClocksOrderSendBeforeRecv) {
  const auto r = run(R"(
    program order {
      if (rank == 0) { send to 1 tag 1; } else { recv from 0 tag 1; }
    })",
                     2);
  const trace::EventRec* send = nullptr;
  const trace::EventRec* recv = nullptr;
  for (const auto& e : r.trace.events) {
    if (e.kind == trace::EventKind::kSend) send = &e;
    if (e.kind == trace::EventKind::kRecv) recv = &e;
  }
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_TRUE(send->vc.happened_before(recv->vc));
}

TEST(Sim, DeterministicDigestAcrossRuns) {
  const char* source = R"(
    program det {
      loop 3 {
        compute 1.0;
        send to (rank + 1) % nprocs tag 1;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
        checkpoint;
      }
    })";
  const auto a = run(source, 4, 7);
  const auto b = run(source, 4, 7);
  EXPECT_EQ(a.trace.final_digest, b.trace.final_digest);
}

TEST(Sim, DigestInsensitiveToNetworkJitter) {
  const mp::Program p = mp::parse(R"(
    program jit {
      loop 2 {
        send to (rank + 1) % nprocs tag 1;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
      }
    })");
  SimOptions a;
  a.nprocs = 3;
  SimOptions b;
  b.nprocs = 3;
  b.delay.jitter = 0.01;
  b.compute_jitter = 0.2;
  Engine ea(p, a), eb(p, b);
  EXPECT_EQ(ea.run().trace.final_digest, eb.run().trace.final_digest);
}

TEST(Sim, CheckpointsRecordStaticIndexAndInstance) {
  const auto r = run(R"(
    program ck {
      loop 3 { compute 1.0; checkpoint; }
      checkpoint;
    })",
                     2);
  ASSERT_EQ(r.trace.checkpoints.size(), 8u);  // (3 + 1) × 2 procs
  long max_instance = 0;
  for (const auto& c : r.trace.checkpoints) {
    EXPECT_GE(c.static_index, 1);
    max_instance = std::max(max_instance, c.instance);
  }
  EXPECT_EQ(max_instance, 2);  // loop checkpoint instances 0,1,2
}

TEST(Sim, CheckpointOverheadBlocksProcess) {
  const mp::Program p = mp::parse("program t { checkpoint; compute 1.0; }");
  SimOptions opts;
  opts.nprocs = 2;
  opts.checkpoint_overhead = 5.0;
  Engine engine(p, opts);
  const auto r = engine.run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_GE(r.trace.end_time, 6.0);
}

TEST(Sim, BarrierSynchronizesClocks) {
  const auto r = run(R"(
    program bar {
      if (rank == 0) { compute 5.0; } else { compute 1.0; }
      barrier;
      compute 1.0;
    })",
                     3);
  EXPECT_TRUE(r.trace.completed);
  // All post-barrier compute events start no earlier than the slowest
  // process reached the barrier.
  for (const auto& e : r.trace.events) {
    if (e.kind == trace::EventKind::kCompute && e.time > 5.0) {
      EXPECT_GE(e.time, 6.0 - 1e-9);
    }
  }
}

TEST(Sim, BcastRootDoesNotBlock) {
  const auto r = run(R"(
    program bc {
      if (rank == 0) { } else { compute 50.0; }
      bcast root 0 bytes 8;
      compute 1.0;
    })",
                     3);
  EXPECT_TRUE(r.trace.completed);
  // Root's post-bcast compute completes long before slow receivers join.
  double root_compute_end = 1e18;
  for (const auto& e : r.trace.events)
    if (e.kind == trace::EventKind::kCompute && e.proc == 0)
      root_compute_end = std::min(root_compute_end, e.time);
  EXPECT_LT(root_compute_end, 10.0);
}

TEST(Sim, NativeAndLoweredCollectivesSameDigest) {
  // Digests differ structurally (different statements), but both must
  // complete and produce equivalent happened-before: check completion and
  // message accounting instead.
  const mp::Program native = mp::parse(R"(
    program coll { compute 1.0; barrier; bcast root 0 bytes 16; })");
  const mp::Program lowered = mp::lower_collectives(native);
  const auto rn = sim::simulate(native, 4);
  const auto rl = sim::simulate(lowered, 4);
  EXPECT_TRUE(rn.trace.completed);
  EXPECT_TRUE(rl.trace.completed);
  // Lowered barrier: 2(n-1) msgs; lowered bcast: n-1 msgs.
  EXPECT_EQ(rl.stats.app_messages, 2 * 3 + 3);
}

TEST(Sim, SendOutOfRangeThrows) {
  const mp::Program p = mp::parse("program bad { send to nprocs; }");
  EXPECT_THROW(sim::simulate(p, 2), util::ProgramError);
}

TEST(Sim, SelfSendThrows) {
  const mp::Program p = mp::parse("program bad { send to rank; }");
  EXPECT_THROW(sim::simulate(p, 2), util::ProgramError);
}

TEST(Sim, DeadlockLeavesTraceIncomplete) {
  // Both ranks wait for a message that never comes.
  const auto r = run("program dead { recv from (rank + 1) % nprocs tag 1; }",
                     2);
  EXPECT_FALSE(r.trace.completed);
}

TEST(Sim, IrregularResolverIsDeterministic) {
  const char* source = R"(
    program irr {
      if (rank == 0) {
        for w in 1 .. nprocs { recv from any tag 1; }
      } else {
        loop irregular(1) + 1 { compute 0.5; }
        if (irregular(2) % 2 == 0) { compute 1.0; } else { compute 2.0; }
        send to 0 tag 1;
      }
    })";
  const auto a = run(source, 4, 3);
  const auto b = run(source, 4, 3);
  EXPECT_TRUE(a.trace.completed);
  EXPECT_EQ(a.trace.final_digest, b.trace.final_digest);
}

// ---------------------------------------------------------------------------
// Failure injection and recovery
// ---------------------------------------------------------------------------

constexpr const char* kRecoverable = R"(
  program rec {
    loop 4 {
      compute 2.0;
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

TEST(SimFailure, RecoversAndCompletes) {
  const mp::Program p = mp::parse(kRecoverable);
  SimOptions opts;
  opts.nprocs = 3;
  opts.recovery_overhead = 1.0;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 5.0)};
  Engine engine(p, opts);
  const auto r = engine.run();
  EXPECT_EQ(r.stats.restarts, 1);
  EXPECT_TRUE(r.trace.completed);
}

TEST(SimFailure, DigestMatchesFailureFreeRun) {
  const mp::Program p = mp::parse(kRecoverable);
  SimOptions clean;
  clean.nprocs = 3;
  const auto base = Engine(p, clean).run();

  SimOptions faulty;
  faulty.nprocs = 3;
  faulty.recovery_overhead = 2.0;
  faulty.fault_plan.faults = {sim::FaultPlan::at_time(0, 3.0),
                              sim::FaultPlan::at_time(2, 11.0)};
  const auto rec = Engine(p, faulty).run();
  EXPECT_TRUE(rec.trace.completed);
  EXPECT_EQ(rec.stats.restarts, 2);
  EXPECT_EQ(rec.trace.final_digest, base.trace.final_digest);
}

TEST(SimFailure, FailureBeforeAnyCheckpointRestartsFromScratch) {
  const mp::Program p = mp::parse(R"(
    program fresh {
      compute 5.0;
      checkpoint;
      compute 1.0;
    })");
  SimOptions clean;
  clean.nprocs = 2;
  const auto base = Engine(p, clean).run();

  SimOptions faulty;
  faulty.nprocs = 2;
  // Before the first checkpoint completes.
  faulty.fault_plan.faults = {sim::FaultPlan::at_time(0, 2.0)};
  const auto rec = Engine(p, faulty).run();
  EXPECT_TRUE(rec.trace.completed);
  EXPECT_EQ(rec.trace.final_digest, base.trace.final_digest);
  EXPECT_GE(rec.trace.end_time, 7.0);  // the 5s compute ran twice
}

TEST(SimFailure, InTransitMessagesReplayedFromLog) {
  // Rank 0 checkpoints after sending; rank 1 checkpoints before receiving.
  // A failure in the window makes the message in-transit across the cut —
  // only the sender log can re-deliver it.
  const mp::Program p = mp::parse(R"(
    program transit {
      if (rank == 0) {
        compute 1.0;
        send to 1 tag 1;
        checkpoint;
        compute 10.0;
      } else {
        checkpoint;
        compute 10.0;
        recv from 0 tag 1;
      }
    })");
  SimOptions opts;
  opts.nprocs = 2;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 6.0)};
  const auto r = Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  bool replayed = false;
  for (const auto& m : r.trace.messages) replayed |= m.replayed;
  EXPECT_TRUE(replayed);
}

TEST(SimFailure, MultipleFailuresStillComplete) {
  const mp::Program p = mp::parse(kRecoverable);
  SimOptions opts;
  opts.nprocs = 4;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 2.5),
                            sim::FaultPlan::at_time(1, 6.0),
                            sim::FaultPlan::at_time(2, 9.0)};
  const auto r = Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.restarts, 3);
}

TEST(SimFailure, FailureAfterCompletionIsIgnored) {
  const mp::Program p = mp::parse("program quick { compute 1.0; }");
  SimOptions opts;
  opts.nprocs = 2;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 100.0)};
  const auto r = Engine(p, opts).run();
  EXPECT_TRUE(r.trace.completed);
  EXPECT_EQ(r.stats.restarts, 0);
}

}  // namespace

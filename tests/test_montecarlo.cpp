// The Monte-Carlo harness's determinism contract (src/sim/montecarlo.h):
// parallel batches are bit-identical to serial ones, aggregates are
// invariant under thread count and completion order, and failure-injection
// runs replay deterministically under the pool. Engines sharing one
// sim::Model give byte-identical results to engines built from the
// program.
#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "mp/generate.h"
#include "mp/parser.h"
#include "sim/model.h"
#include "sim/montecarlo.h"
#include "workloads/workloads.h"

namespace acfc::sim {
namespace {

constexpr const char* kRing = R"(
  program ring {
    loop 5 {
      compute 4.0;
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

void expect_same_run(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.trace.final_digest, b.trace.final_digest);
  EXPECT_EQ(a.trace.end_time, b.trace.end_time);  // bitwise, not approx
  EXPECT_EQ(a.trace.completed, b.trace.completed);
  EXPECT_EQ(a.trace.events.size(), b.trace.events.size());
  EXPECT_EQ(a.trace.checkpoints.size(), b.trace.checkpoints.size());
  EXPECT_EQ(a.stats.events_processed, b.stats.events_processed);
  EXPECT_EQ(a.stats.app_messages, b.stats.app_messages);
  EXPECT_EQ(a.stats.statement_checkpoints, b.stats.statement_checkpoints);
  EXPECT_EQ(a.stats.forced_checkpoints, b.stats.forced_checkpoints);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  EXPECT_EQ(a.final_sends, b.final_sends);
  EXPECT_EQ(a.final_recvs, b.final_recvs);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (size_t i = 0; i < a.recoveries.size(); ++i) {
    const RecoveryRec& x = a.recoveries[i];
    const RecoveryRec& y = b.recoveries[i];
    EXPECT_EQ(x.failed_proc, y.failed_proc);
    EXPECT_EQ(x.fail_time, y.fail_time);      // bitwise
    EXPECT_EQ(x.resume_time, y.resume_time);  // bitwise
    EXPECT_EQ(x.cut.member, y.cut.member);
    EXPECT_EQ(x.rollbacks, y.rollbacks);
    EXPECT_EQ(x.lost_work, y.lost_work);
    EXPECT_EQ(x.replayed_messages, y.replayed_messages);
  }
}

/// seed × nprocs grid with compute jitter, exercising the engine RNG.
/// n=12 crosses VClock::kInlineCapacity so spilled clocks are covered.
std::vector<SimOptions> jittered_grid() {
  std::vector<SimOptions> configs;
  long index = 0;
  for (const int n : {2, 3, 5, 8, 12}) {
    for (int rep = 0; rep < 3; ++rep) {
      SimOptions opts;
      opts.nprocs = n;
      opts.seed = run_seed(42, index++);
      opts.compute_jitter = 0.3;
      configs.push_back(opts);
    }
  }
  return configs;
}

TEST(RunSeed, DeterministicAndDistinct) {
  EXPECT_EQ(run_seed(1, 0), run_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (long i = 0; i < 256; ++i) seen.insert(run_seed(7, i));
  EXPECT_EQ(seen.size(), 256u);          // no collisions across indices
  EXPECT_NE(run_seed(1, 3), run_seed(2, 3));  // base seed matters
}

TEST(SeedSweep, SeedsDeriveFromRunIndex) {
  SimOptions base;
  base.seed = 99;
  base.nprocs = 4;
  const auto configs = seed_sweep(base, 5);
  ASSERT_EQ(configs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(configs[static_cast<size_t>(i)].seed, run_seed(99, i));
    EXPECT_EQ(configs[static_cast<size_t>(i)].nprocs, 4);
  }
}

TEST(ParallelBatch, BitIdenticalToSerial) {
  const mp::Program program = mp::parse(kRing);
  const auto configs = jittered_grid();

  McOptions serial;
  serial.threads = 1;
  const auto ref = run_batch(program, configs, serial);

  for (const int threads : {2, 4, 8}) {
    McOptions opts;
    opts.threads = threads;
    const auto got = run_batch(program, configs, opts);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " run=" +
                   std::to_string(i));
      expect_same_run(got[i], ref[i]);
    }
  }
}

TEST(ParallelBatch, RepeatedRunsIdentical) {
  const mp::Program program = mp::parse(kRing);
  const auto configs = jittered_grid();
  McOptions opts;
  opts.threads = 4;
  const auto first = run_batch(program, configs, opts);
  const auto second = run_batch(program, configs, opts);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i)
    expect_same_run(first[i], second[i]);
}

TEST(Aggregate, InvariantUnderThreadCount) {
  const mp::Program program = mp::parse(kRing);
  const auto configs = jittered_grid();

  McOptions serial;
  serial.threads = 1;
  const McAggregate ref = aggregate(run_batch(program, configs, serial));
  EXPECT_EQ(ref.runs, static_cast<long>(configs.size()));
  EXPECT_EQ(ref.completed, ref.runs);
  EXPECT_GT(ref.events, 0);
  EXPECT_GT(ref.checkpoints, 0);

  McOptions pooled;
  pooled.threads = 6;
  const McAggregate got = aggregate(run_batch(program, configs, pooled));
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.events, ref.events);
  EXPECT_EQ(got.app_messages, ref.app_messages);
  EXPECT_EQ(got.checkpoints, ref.checkpoints);
  EXPECT_EQ(got.mean_makespan, ref.mean_makespan);
  EXPECT_EQ(got.max_makespan, ref.max_makespan);
}

TEST(Aggregate, AdditiveStatsOrderIndependent) {
  const mp::Program program = mp::parse(kRing);
  const auto configs = jittered_grid();
  McOptions opts;
  opts.threads = 4;
  auto runs = run_batch(program, configs, opts);
  const McAggregate forward = aggregate(runs);
  std::reverse(runs.begin(), runs.end());
  const McAggregate backward = aggregate(runs);
  // The additive statistics cannot depend on result order; only the
  // sequence-sensitive whole-batch digest may differ.
  EXPECT_EQ(backward.runs, forward.runs);
  EXPECT_EQ(backward.completed, forward.completed);
  EXPECT_EQ(backward.events, forward.events);
  EXPECT_EQ(backward.app_messages, forward.app_messages);
  EXPECT_EQ(backward.checkpoints, forward.checkpoints);
  EXPECT_EQ(backward.restarts, forward.restarts);
  // Reversing the fold order may shift the mean by an ULP (FP addition is
  // not associative); thread count never does, because results are
  // index-addressed — that bitwise guarantee is Aggregate.
  // InvariantUnderThreadCount's.
  EXPECT_DOUBLE_EQ(backward.mean_makespan, forward.mean_makespan);
  EXPECT_EQ(backward.max_makespan, forward.max_makespan);
}

TEST(FailureInjection, ReplaysDeterministicallyUnderPool) {
  const mp::Program program = mp::parse(kRing);

  // One failure schedule per run, staggered across processes and times.
  std::vector<SimOptions> configs;
  for (int i = 0; i < 8; ++i) {
    SimOptions opts;
    opts.nprocs = 4;
    opts.seed = run_seed(7, i);
    opts.recovery_overhead = 1.5;
    opts.fault_plan.faults = {FaultPlan::at_time(i % 4, 6.0 + 2.0 * i)};
    if (i % 2 == 1)
      opts.fault_plan.faults.push_back(FaultPlan::at_time((i + 1) % 4, 25.0));
    configs.push_back(opts);
  }

  McOptions serial;
  serial.threads = 1;
  const auto ref = run_batch(program, configs, serial);
  McOptions pooled;
  pooled.threads = 4;
  const auto got = run_batch(program, configs, pooled);

  ASSERT_EQ(got.size(), ref.size());
  long restarts = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE("run=" + std::to_string(i));
    EXPECT_TRUE(ref[i].trace.completed);
    expect_same_run(got[i], ref[i]);
    restarts += ref[i].stats.restarts;
  }
  EXPECT_GT(restarts, 0);  // the schedules really fired

  // Rollback + replay converges to the failure-free execution: digests
  // match a clean run with the same seed.
  for (size_t i = 0; i < configs.size(); ++i) {
    SimOptions clean = configs[i];
    clean.fault_plan.faults.clear();
    Engine engine(program, clean);
    const auto clean_run = engine.run();
    EXPECT_EQ(ref[i].trace.final_digest, clean_run.trace.final_digest)
        << "run " << i;
  }
}

TEST(FaultPlanBatch, BitIdenticalUnderPool) {
  // Declarative fault plans (time / after-checkpoint / after-events
  // triggers) obey the same parallel≡serial contract as plain failure
  // schedules — including the recorded recovery lines and the final
  // per-channel counters. Run under -DACFC_TSAN this also proves the
  // recovery path shares no mutable state across engines.
  const mp::Program program = mp::parse(kRing);

  std::vector<SimOptions> configs;
  for (int i = 0; i < 12; ++i) {
    SimOptions opts;
    opts.nprocs = 4;
    opts.seed = run_seed(23, i);
    opts.recovery_overhead = 1.0;
    opts.compute_jitter = 0.2;
    switch (i % 3) {
      case 0:
        opts.fault_plan.faults = {FaultPlan::at_time(i % 4, 6.0 + i)};
        break;
      case 1:
        opts.fault_plan.faults = {
            FaultPlan::after_checkpoint(i % 4, 1 + i % 3)};
        break;
      default:
        opts.fault_plan.faults = {FaultPlan::after_events(i % 4, 30 + 5 * i),
                                  FaultPlan::at_time((i + 2) % 4, 20.0)};
        break;
    }
    configs.push_back(opts);
  }

  McOptions serial;
  serial.threads = 1;
  const auto ref = run_batch(program, configs, serial);
  long restarts = 0;
  for (const auto& r : ref) restarts += r.stats.restarts;
  EXPECT_GT(restarts, 0);  // the plans really fired

  for (const int threads : {2, 4}) {
    McOptions pooled;
    pooled.threads = threads;
    const auto got = run_batch(program, configs, pooled);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " run=" +
                   std::to_string(i));
      EXPECT_TRUE(ref[i].trace.completed);
      expect_same_run(got[i], ref[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Model sharing: an engine built from a shared sim::Model must give the
// byte-identical SimResult of one built from the program (which builds a
// private Model).

/// Every recorded field of a run, doubles as exact bit patterns.
std::string run_bytes(const SimResult& r) {
  std::ostringstream out;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto clock = [](const trace::VClock& vc) {
    std::string text;
    for (int i = 0; i < vc.size(); ++i)
      text += std::to_string(vc[i]) + ",";
    return text;
  };
  const trace::Trace& t = r.trace;
  out << "trace " << t.nprocs << ' ' << t.completed << ' ' << bits(t.end_time)
      << '\n';
  for (const std::uint64_t d : t.final_digest) out << "digest " << d << '\n';
  for (const trace::EventRec& e : t.events)
    out << "ev " << static_cast<int>(e.kind) << ' ' << e.proc << ' '
        << bits(e.time) << ' ' << clock(e.vc) << ' ' << e.stmt_uid << ' '
        << e.msg_id << ' ' << e.peer << ' ' << e.tag << ' ' << e.ckpt_id
        << ' ' << e.ckpt_instance << ' ' << e.forced << '\n';
  for (const trace::MsgRec& m : t.messages)
    out << "msg " << m.id << ' ' << m.src << ' ' << m.dst << ' ' << m.tag
        << ' ' << m.bytes << ' ' << m.seq << ' ' << bits(m.send_time) << ' '
        << bits(m.deliver_time) << ' ' << bits(m.recv_time) << ' '
        << m.send_stmt_uid << ' ' << m.recv_stmt_uid << ' '
        << clock(m.send_vc) << ' ' << clock(m.recv_vc) << ' ' << m.consumed
        << ' ' << m.control << ' ' << m.piggyback << ' ' << m.replayed << ' '
        << m.xport_seq << '\n';
  for (const trace::CkptRec& c : t.checkpoints)
    out << "ckpt " << c.proc << ' ' << c.ckpt_id << ' ' << c.static_index
        << ' ' << c.instance << ' ' << bits(c.t_begin) << ' ' << bits(c.t_end)
        << ' ' << bits(c.t_commit) << ' ' << clock(c.vc) << ' ' << c.forced
        << ' ' << c.snapshot << '\n';
  const SimStats& s = r.stats;
  out << "stats " << s.app_messages << ' ' << s.app_bytes << ' '
      << s.control_messages << ' ' << s.control_bytes << ' '
      << s.statement_checkpoints << ' ' << s.forced_checkpoints << ' '
      << s.events_processed << ' ' << s.restarts << ' ' << bits(s.paused_time)
      << ' ' << s.channel_logged_messages << '\n';
  for (const RecoveryRec& rec : r.recoveries) {
    out << "rec " << rec.failed_proc << ' ' << bits(rec.fail_time) << ' '
        << bits(rec.resume_time) << ' ' << bits(rec.lost_work) << ' '
        << rec.replayed_messages << ' ' << rec.fallback_depth << " cut";
    for (const int m : rec.cut.member) out << ' ' << m;
    out << " rollbacks";
    for (const int b : rec.rollbacks) out << ' ' << b;
    out << '\n';
  }
  out << "sends";
  for (const long v : r.final_sends) out << ' ' << v;
  out << "\nrecvs";
  for (const long v : r.final_recvs) out << ' ' << v;
  out << "\ncorrupt";
  for (const int c : r.corrupt_checkpoints) out << ' ' << c;
  out << '\n';
  return out.str();
}

/// A failure-free config and one with a crash after the first checkpoint.
std::vector<SimOptions> model_configs(int nprocs) {
  SimOptions plain;
  plain.nprocs = nprocs;
  plain.seed = 17;
  plain.compute_jitter = 0.2;
  SimOptions crash = plain;
  crash.seed = 18;
  crash.recovery_overhead = 1.0;
  crash.fault_plan.faults = {FaultPlan::after_checkpoint(nprocs - 1, 1)};
  return {plain, crash};
}

/// What the shared-model runs exercised, so a test can insist on coverage.
struct Coverage {
  long restarts = 0;
  long indexed_checkpoints = 0;  ///< checkpoints with a known S_i
};

/// One shared Model for every config, against Engine(program) per config.
Coverage expect_model_matches_program(const mp::Program& program) {
  const Model model(program);
  Coverage seen;
  for (const SimOptions& opts : model_configs(4)) {
    Engine from_model(model, opts);
    Engine from_program(program, opts);
    const SimResult a = from_model.run();
    const SimResult b = from_program.run();
    EXPECT_EQ(run_bytes(a), run_bytes(b));
    seen.restarts += a.stats.restarts;
    for (const trace::CkptRec& c : a.trace.checkpoints)
      if (c.static_index >= 0) ++seen.indexed_checkpoints;
  }
  return seen;
}

TEST(ModelSharing, CanonicalWorkloadsMatchEngineFromProgram) {
  mp::WorkloadParams params;
  params.iterations = 3;
  Coverage total;
  for (const std::string& name : mp::workload_names()) {
    SCOPED_TRACE(name);
    const Coverage seen =
        expect_model_matches_program(mp::workload_by_name(name, params));
    total.restarts += seen.restarts;
    total.indexed_checkpoints += seen.indexed_checkpoints;
  }
  EXPECT_GT(total.restarts, 0);
  EXPECT_GT(total.indexed_checkpoints, 0);
}

TEST(ModelSharing, GeneratedProgramsMatchEngineFromProgram) {
  Coverage total;
  for (int index = 0; index < 12; ++index) {
    SCOPED_TRACE("program " + std::to_string(index));
    mp::GenerateOptions gen;
    gen.seed = 0xfeedULL + static_cast<std::uint64_t>(index);
    gen.segments = 4 + index % 4 * 3;
    gen.misalign_checkpoints = index % 2 == 1;
    const Coverage seen =
        expect_model_matches_program(mp::generate_program(gen));
    total.restarts += seen.restarts;
    total.indexed_checkpoints += seen.indexed_checkpoints;
  }
  EXPECT_GT(total.restarts, 0);
  EXPECT_GT(total.indexed_checkpoints, 0);
}

TEST(ModelSharing, UnbalancedProgramKeepsIndicesUnknown) {
  // A checkpoint in one if-arm only: index_checkpoints() rejects the
  // placement, so every static index stays -1, and the run still matches.
  const mp::Program program = mp::parse(R"(
    program unbalanced {
      loop 3 {
        compute 2.0;
        if (rank == 0) { checkpoint; }
        send to (rank + 1) % nprocs tag 1;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
      }
    })");
  const Model model(program);
  EXPECT_EQ(model.static_index(0), -1);
  EXPECT_EQ(model.static_index(-1), -1);
  Engine engine(model, model_configs(4).front());
  const SimResult run = engine.run();
  ASSERT_FALSE(run.trace.checkpoints.empty());
  for (const trace::CkptRec& c : run.trace.checkpoints)
    EXPECT_EQ(c.static_index, -1);
  expect_model_matches_program(program);
}

TEST(ModelSharing, BalancedProgramIndexesEveryCheckpoint) {
  const mp::Program program = mp::parse(kRing);
  const Model model(program);
  EXPECT_EQ(model.static_index(0), 1);
  EXPECT_EQ(model.static_index(1), -1);  // no such checkpoint
  Engine engine(model, model_configs(3).front());
  for (const trace::CkptRec& c : engine.run().trace.checkpoints)
    EXPECT_EQ(c.static_index, 1);
}

TEST(ModelSharing, RunBatchSharesOneModelAcrossThreads) {
  // run_batch builds one Model and hands it to every worker; under TSan
  // this proves the sharing is read-only.
  const mp::Program program = mp::workload_by_name("jacobi_aligned", {});
  std::vector<SimOptions> configs;
  for (int rep = 0; rep < 3; ++rep)
    for (SimOptions opts : model_configs(4)) {
      opts.seed = run_seed(opts.seed, rep);
      configs.push_back(opts);
    }
  McOptions pooled;
  pooled.threads = 4;
  const auto batch = run_batch(program, configs, pooled);
  ASSERT_EQ(batch.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("run=" + std::to_string(i));
    Engine engine(program, configs[i]);
    const std::string want = run_bytes(engine.run());
    EXPECT_EQ(run_bytes(batch[i]), want);
  }
}

TEST(ParallelMap, PropagatesLowestIndexedException) {
  McOptions opts;
  opts.threads = 4;
  try {
    parallel_map(16L, opts, [](long i) -> int {
      if (i == 5 || i == 11) throw std::runtime_error("boom " +
                                                      std::to_string(i));
      return static_cast<int>(i);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");
  }
}

TEST(ParallelMap, HandlesEmptyAndOversubscribedBatches) {
  McOptions opts;
  opts.threads = 8;
  EXPECT_TRUE(parallel_map(0L, opts, [](long i) { return i; }).empty());
  const auto out = parallel_map(3L, opts, [](long i) { return i * i; });
  EXPECT_EQ(out, (std::vector<long>{0, 1, 4}));
}

}  // namespace
}  // namespace acfc::sim

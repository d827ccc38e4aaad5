// The tick-based cut analyses against the vector-clock ones they replaced.
//
// Every run's full clocks are rebuilt offline (tests/vclock_reference.h);
// the clock-based cut check and greedy recovery line then judge the same
// trace as trace::analyze_cut and trace::max_recovery_line. They must
// agree on every cut's consistency and on every chosen line, over the
// canonical workloads, generated programs with collectives, the recovery
// fault corpora and every explorable driver (the negative controls too).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mp/generate.h"
#include "mp/parser.h"
#include "place/place.h"
#include "proto/protocols.h"
#include "sim/engine.h"
#include "trace/analysis.h"
#include "util/rng.h"
#include "vclock_reference.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;
namespace ref = trace::reference;

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

/// What one corpus covered, so a corpus that stops exercising a case fails.
struct Coverage {
  long runs = 0;
  long cuts = 0;
  long inconsistent = 0;
  long lines = 0;
  long demoted_lines = 0;
  long restores = 0;
  long collective_rounds = 0;
};

/// Old and new analyses agree on `run`: every straight cut, every
/// restored cut, seeded random cuts, and the recovery line at every
/// failure time and at eight points of the run.
void expect_agreement(const sim::SimResult& run, const std::string& label,
                      Coverage& cov) {
  SCOPED_TRACE(label);
  const trace::Trace& t = run.trace;
  const ref::Clocks clocks = ref::replay_clocks(t);
  ASSERT_TRUE(clocks.errors.empty()) << clocks.errors.front();
  ++cov.runs;
  cov.restores += static_cast<long>(t.restores.size());
  cov.collective_rounds += static_cast<long>(t.collectives.size());

  std::vector<trace::Cut> cuts = trace::all_straight_cuts(t);
  for (const sim::RecoveryRec& rec : run.recoveries) cuts.push_back(rec.cut);
  std::vector<std::vector<int>> by_proc(static_cast<size_t>(t.nprocs));
  for (size_t i = 0; i < t.checkpoints.size(); ++i)
    by_proc[static_cast<size_t>(t.checkpoints[i].proc)].push_back(
        static_cast<int>(i));
  util::Rng rng(0x71c4ULL + t.checkpoints.size());
  for (int k = 0; k < 24; ++k) {
    trace::Cut cut;
    for (const auto& mine : by_proc) {
      const auto pick = static_cast<long>(
          rng.uniform(0.0, static_cast<double>(mine.size()) + 1.0));
      cut.member.push_back(pick >= static_cast<long>(mine.size())
                               ? -1
                               : mine[static_cast<size_t>(pick)]);
    }
    cuts.push_back(std::move(cut));
  }
  for (const trace::Cut& cut : cuts) {
    const bool expected = ref::cut_consistent(t, clocks, cut);
    EXPECT_EQ(trace::analyze_cut(t, cut).consistent, expected)
        << "cut " << ::testing::PrintToString(cut.member);
    ++cov.cuts;
    if (!expected) ++cov.inconsistent;
  }

  std::vector<double> times;
  for (const sim::RecoveryRec& rec : run.recoveries)
    times.push_back(rec.fail_time);
  for (int k = 1; k <= 8; ++k) times.push_back(t.end_time * k / 8.0);
  for (const double at : times) {
    const trace::Cut expected = ref::max_recovery_line(t, clocks, at);
    const trace::RecoveryLine line = trace::max_recovery_line(t, at);
    EXPECT_EQ(line.cut.member, expected.member) << "line at t=" << at;
    EXPECT_TRUE(line.consistent) << "line at t=" << at;
    ++cov.lines;
    for (const int r : line.rollbacks)
      if (r > 0) {
        ++cov.demoted_lines;
        break;
      }
  }
}

sim::FaultPlan two_failures(int nprocs, int first, double end_time) {
  sim::FaultPlan plan;
  plan.faults = {sim::FaultPlan::at_time(first % nprocs, 0.4 * end_time),
                 sim::FaultPlan::at_time((first + 1) % nprocs,
                                         0.9 * end_time)};
  return plan;
}

sim::SimResult run_with(const mp::Program& program, sim::SimOptions opts,
                        const sim::DriverFactory& factory = nullptr) {
  const auto driver = factory ? factory() : nullptr;
  return sim::Engine(program, std::move(opts), driver.get()).run();
}

TEST(TickDifferential, CanonicalWorkloads) {
  Coverage cov;
  for (const std::string& name : mp::workload_names()) {
    mp::WorkloadParams params;
    params.iterations = 4;
    const mp::Program program = mp::workload_by_name(name, params);
    for (const int n : {3, 4}) {
      sim::SimOptions opts;
      opts.nprocs = n;
      const sim::SimResult clean = run_with(program, opts);
      expect_agreement(clean, name + " n=" + std::to_string(n), cov);
      opts.recovery_overhead = 0.5;
      opts.checkpoint_latency = 0.7;
      opts.fault_plan = two_failures(n, n, clean.trace.end_time);
      expect_agreement(run_with(program, opts),
                       name + " n=" + std::to_string(n) + " faulty", cov);
    }
  }
  EXPECT_GT(cov.inconsistent, 0);
  EXPECT_GT(cov.restores, 0);
  EXPECT_GT(cov.collective_rounds, 0);
  EXPECT_GT(cov.demoted_lines, 0);
}

TEST(TickDifferential, GeneratedProgramsWithCollectives) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    mp::GenerateOptions gopts;
    gopts.seed = seed;
    gopts.segments = 8;
    gopts.allow_collectives = true;
    gopts.misalign_checkpoints = seed % 2 == 0;
    const mp::Program program = mp::generate_program(gopts);
    const int n = 3 + static_cast<int>(seed % 3);
    sim::SimOptions opts;
    opts.nprocs = n;
    const sim::SimResult clean = run_with(program, opts);
    const std::string label = "generated seed " + std::to_string(seed);
    expect_agreement(clean, label, cov);
    if (!clean.trace.completed) continue;
    opts.recovery_overhead = 0.5;
    opts.fault_plan = two_failures(n, static_cast<int>(seed),
                                   clean.trace.end_time);
    expect_agreement(run_with(program, opts), label + " faulty", cov);
  }
  EXPECT_GT(cov.collective_rounds, 100);
  EXPECT_GT(cov.inconsistent, 0);
  EXPECT_GT(cov.restores, 0);
}

// The fault corpora of RecoveryE2E (test_safety), ProtocolRecovery
// (test_recovery) and ProtocolsUnderLoss (test_degraded).
TEST(TickDifferential, RecoveryE2ECorpus) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed < 13; ++seed) {
    mp::GenerateOptions gopts;
    gopts.seed = seed;
    gopts.segments = 6;
    gopts.allow_collectives = false;
    gopts.allow_irregular = false;
    mp::Program program = mp::generate_program(gopts);
    ASSERT_TRUE(place::repair_placement(program).success);
    sim::SimOptions opts;
    opts.nprocs = 4;
    const sim::SimResult clean = run_with(program, opts);
    opts.recovery_overhead = 0.5;
    opts.fault_plan = two_failures(4, static_cast<int>(seed % 4),
                                   clean.trace.end_time);
    expect_agreement(run_with(program, opts),
                     "RecoveryE2E seed " + std::to_string(seed), cov);
  }
  EXPECT_GE(cov.restores, 12 * 2 * 4);
}

TEST(TickDifferential, ProtocolCorpora) {
  Coverage cov;
  for (const bool lossy : {false, true}) {
    for (const proto::Protocol protocol :
         {proto::Protocol::kAppDriven, proto::Protocol::kSyncAndStop,
          proto::Protocol::kChandyLamport, proto::Protocol::kKooToueg,
          proto::Protocol::kCic, proto::Protocol::kUncoordinated}) {
      const mp::Program program = mp::parse(
          protocol == proto::Protocol::kAppDriven ? kRing : kBareRing);
      sim::SimOptions opts;
      opts.nprocs = 4;
      opts.recovery_overhead = 1.0;
      if (lossy) {
        opts.delay.drop = 0.05;
        opts.delay.reorder = 0.1;
      }
      proto::ProtocolOptions popts;
      popts.interval = 8.0;
      const sim::DriverFactory factory =
          proto::driver_factory(protocol, popts);
      for (const auto& faults :
           {std::vector<sim::FaultSpec>{sim::FaultPlan::at_time(1, 13.0)},
            std::vector<sim::FaultSpec>{sim::FaultPlan::at_time(1, 13.0),
                                        sim::FaultPlan::at_time(2, 14.5),
                                        sim::FaultPlan::at_time(0, 27.0)}}) {
        opts.fault_plan.faults = faults;
        expect_agreement(run_with(program, opts, factory),
                         std::string(proto::protocol_name(protocol)) +
                             (lossy ? " lossy " : " ") +
                             std::to_string(faults.size()) + " failures",
                         cov);
      }
    }
  }
  EXPECT_GT(cov.demoted_lines, 0);
  EXPECT_GT(cov.restores, 0);
}

TEST(TickDifferential, EveryExplorableDriver) {
  Coverage cov;
  for (const std::string& driver : proto::explorable_driver_names()) {
    for (const char* workload : {"ring", "jacobi_aligned", "pipeline"}) {
      mp::WorkloadParams params;
      params.iterations = 3;
      const mp::Program program = mp::workload_by_name(workload, params);
      proto::ProtocolOptions popts;
      popts.interval = 20.0;
      const sim::DriverFactory factory =
          proto::driver_factory_by_name(driver, popts);
      sim::SimOptions opts;
      opts.nprocs = 3;
      const sim::SimResult clean = run_with(program, opts, factory);
      const std::string label = driver + " " + workload;
      expect_agreement(clean, label, cov);
      for (int k = 0; k < 3; ++k) {
        opts.fault_plan = two_failures(3, k, clean.trace.end_time);
        opts.fault_plan.stalls = {{(k + 2) % 3, 0.2 * clean.trace.end_time,
                                   10.0}};
        expect_agreement(run_with(program, opts, factory),
                         label + " faulty " + std::to_string(k), cov);
      }
    }
  }
  EXPECT_GT(cov.restores, 0);
}

}  // namespace

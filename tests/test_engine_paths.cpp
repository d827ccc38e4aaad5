// Pinned values for the engine's message-departure and gray-failure
// window paths. Application sends, protocol control sends and sender-log
// replays after a rollback all leave through one departure path
// (partition deferral, slow-link delay, delivery perturbation, FIFO floor
// or the lossy-wire hand-off), and plan windows and explorer-injected
// windows share one list per kind. The other partition and stall tests
// compare two runs of the same build, so they cannot notice a change to
// either path; the values here were recorded from the engine before those
// paths were unified and must not move.
//
// Each run pins its folded final digest, end time, events processed, the
// partition/stall deferral counters, and an XXH64 fold of every message's
// (deliver_time, xport_seq). The explore case runs a bounded memoized
// search (explore::PlanHook + explore::Memo, the explorer's own DFS
// rules) over an engine whose fault plan carries partition and stall
// windows while the hook injects more, and pins the schedule/prune counts
// plus a fold of Engine::schedule_state_hash at every choice point.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <vector>

#include "explore/strategy.h"
#include "mp/parser.h"
#include "proto/protocols.h"
#include "sim/engine.h"
#include "sim/model.h"
#include "util/checksum.h"

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

/// The same ring without checkpoint statements: a protocol driver takes
/// every checkpoint.
constexpr const char* kRingBare = R"(
  program ring_bare {
    loop 6 {
      compute 3.0;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

std::uint64_t fold(const std::vector<std::uint64_t>& words) {
  return util::checksum64(words.data(), words.size() * sizeof(std::uint64_t));
}

struct Pin {
  std::uint64_t digest = 0;    ///< fold of the per-process final digests
  double end_time = 0.0;
  long events = 0;
  long deferred_sends = 0;     ///< SimStats::partition_deferred_sends
  long stall_deferred = 0;     ///< SimStats::stall_deferred_events
  std::uint64_t messages = 0;  ///< fold of every (deliver_time, xport_seq)
};

Pin pin_of(const sim::SimResult& r) {
  std::vector<std::uint64_t> msgs;
  msgs.reserve(2 * r.trace.messages.size());
  for (const trace::MsgRec& m : r.trace.messages) {
    msgs.push_back(std::bit_cast<std::uint64_t>(m.deliver_time));
    msgs.push_back(static_cast<std::uint64_t>(m.xport_seq));
  }
  return {fold(r.trace.final_digest), r.trace.end_time,
          r.stats.events_processed, r.stats.partition_deferred_sends,
          r.stats.stall_deferred_events, fold(msgs)};
}

void expect_pinned(const sim::SimResult& r, const Pin& want) {
  const Pin got = pin_of(r);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.deferred_sends, want.deferred_sends);
  EXPECT_EQ(got.stall_deferred, want.stall_deferred);
  EXPECT_EQ(got.messages, want.messages);
  // On a mismatch, print the observed values in pin syntax.
  if (::testing::Test::HasFailure())
    std::printf("    {0x%016llxULL, %a, %ld, %ld, %ld, 0x%016llxULL}\n",
                static_cast<unsigned long long>(got.digest), got.end_time,
                got.events, got.deferred_sends, got.stall_deferred,
                static_cast<unsigned long long>(got.messages));
}

sim::SimResult run(const char* text, const sim::SimOptions& opts,
                   sim::ProtocolDriver* driver = nullptr) {
  const mp::Program program = mp::parse(text);
  sim::Engine engine(program, opts, driver);
  return engine.run();
}

sim::SimOptions ring_options() {
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.seed = 7;
  opts.recovery_overhead = 0.5;
  return opts;
}

TEST(DeparturePin, FastPathAppSendsUnderPartitionSlowLinkAndJitter) {
  sim::SimOptions opts = ring_options();
  opts.delay.jitter = 0.003;
  opts.fault_plan.partitions = {
      sim::FaultPlan::partition({1}, 5.0, 12.0),
      sim::FaultPlan::partition({2, 3}, 7.0, 13.5, /*symmetric=*/false)};
  opts.fault_plan.slow_links = {
      sim::FaultPlan::slow_link(0, 1, 2.0, 15.0, 3.0),
      sim::FaultPlan::slow_link(-1, 2, 0.0, 1e6, 1.5)};
  opts.fault_plan.stalls = {sim::FaultPlan::stall(3, 6.0, 2.0)};
  const sim::SimResult r = run(kRing, opts);
  ASSERT_TRUE(r.trace.completed);
  EXPECT_GT(r.stats.partition_deferred_sends, 0);
  EXPECT_GT(r.stats.stall_deferred_events, 0);
  expect_pinned(r, {0x2004ddd72c72250eULL, 0x1.9837363bb64f5p+4, 54, 4, 2,
                    0x9efe1998207fda49ULL});
}

TEST(DeparturePin, ChandyLamportControlMessagesCrossAPartition) {
  sim::SimOptions opts = ring_options();
  opts.delay.jitter = 0.002;
  opts.fault_plan.partitions = {sim::FaultPlan::partition({0}, 3.5, 9.0)};
  opts.fault_plan.slow_links = {
      sim::FaultPlan::slow_link(0, -1, 0.0, 6.0, 2.0)};
  proto::ProtocolOptions popts;
  popts.interval = 4.0;
  const auto driver =
      proto::make_driver(proto::Protocol::kChandyLamport, popts);
  const sim::SimResult r = run(kRingBare, opts, driver.get());
  ASSERT_TRUE(r.trace.completed);
  EXPECT_GT(r.stats.control_messages, 0);
  EXPECT_GT(r.stats.partition_deferred_sends, 0);
  expect_pinned(r, {0x2004ddd72c72250eULL, 0x1.504207baf9e15p+4, 128, 5, 0,
                    0xb3b2abb86fc3496cULL});
}

/// Checkpoints between each send and its matching receive, so every
/// recovery line has messages in transit that the rollback must replay.
constexpr const char* kRingInTransit = R"(
  program ring_in_transit {
    loop 6 {
      compute 3.0;
      send to (rank + 1) % nprocs tag 1;
      checkpoint;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

/// True if some replayed message on a channel touching process 1 arrived
/// only after the t=13 heal: a replay really crossed the partition.
bool replay_held_to_heal(const sim::SimResult& r) {
  for (const trace::MsgRec& m : r.trace.messages)
    if (m.replayed && (m.src == 1 || m.dst == 1) && m.deliver_time >= 13.0)
      return true;
  return false;
}

/// A crash of process 2 at t=10 whose rollback replays in-transit
/// messages while process 1 is cut off, and a stall that defers some of
/// the restart traffic.
sim::SimOptions replay_options() {
  sim::SimOptions opts = ring_options();
  opts.delay.jitter = 0.001;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(2, 10.0)};
  opts.fault_plan.partitions = {sim::FaultPlan::partition({1}, 9.0, 13.0)};
  opts.fault_plan.stalls = {sim::FaultPlan::stall(0, 10.2, 1.0)};
  return opts;
}

TEST(DeparturePin, FastPathReplaysCrossAPartition) {
  const sim::SimResult r = run(kRingInTransit, replay_options());
  ASSERT_TRUE(r.trace.completed);
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_GT(r.recoveries[0].replayed_messages, 0);
  EXPECT_TRUE(replay_held_to_heal(r));
  EXPECT_GT(r.stats.partition_deferred_sends, 0);
  expect_pinned(r, {0x2004ddd72c72250eULL, 0x1.6018c882d9a4ep+4, 65, 4, 2,
                    0x2b17d1d010e38aaeULL});
}

TEST(DeparturePin, LossyWireReplaysCrossAPartition) {
  sim::SimOptions opts = replay_options();
  opts.delay.drop = 0.02;
  const sim::SimResult r = run(kRingInTransit, opts);
  ASSERT_TRUE(r.trace.completed);
  ASSERT_EQ(r.recoveries.size(), 1u);
  EXPECT_GT(r.recoveries[0].replayed_messages, 0);
  EXPECT_TRUE(replay_held_to_heal(r));
  EXPECT_GT(r.stats.partition_dropped_attempts, 0);
  EXPECT_GT(r.stats.transport_sends, 0);
  expect_pinned(r, {0x2004ddd72c72250eULL, 0x1.75a9301680f5ap+4, 153, 0, 6,
                    0x4531a3cab5a08105ULL});
}

/// Forwards to a PlanHook after recording the engine's state hash at the
/// choice point.
class HashFoldHook final : public sim::ScheduleHook {
 public:
  explicit HashFoldHook(explore::PlanHook& inner) : inner_(inner) {}
  int choose(const sim::ChoicePoint& cp) override {
    hashes_.push_back(cp.engine->schedule_state_hash());
    return inner_.choose(cp);
  }
  const std::vector<std::uint64_t>& hashes() const { return hashes_; }

 private:
  explore::PlanHook& inner_;
  std::vector<std::uint64_t> hashes_;
};

TEST(WindowPin, ExploreCombinesPlanWindowsWithInjectedOnes) {
  const mp::Program program = mp::parse(kRing);
  const sim::Model model(program);
  sim::SimOptions base;
  base.nprocs = 3;
  base.seed = 5;
  base.fault_plan.partitions = {sim::FaultPlan::partition({0}, 4.0, 7.0)};
  base.fault_plan.stalls = {sim::FaultPlan::stall(2, 5.0, 1.5)};
  base.perturb.tie_cap = 1;
  base.perturb.partition_points = true;
  base.perturb.partition_window = 2.0;
  base.perturb.stall_points = true;
  base.perturb.stall_window = 2.0;
  constexpr int kHorizon = 14;
  constexpr long kBudget = 300;

  // The explorer's serial DFS: LIFO stack of plans, one child per untried
  // alternative at every branchable new position, one memo per search.
  explore::Memo memo;
  std::vector<std::vector<int>> stack{{}};
  long schedules_run = 0;
  long states_pruned = 0;
  long states_recorded = 0;
  long choice_points = 0;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> outcomes;
  while (!stack.empty() && schedules_run < kBudget) {
    const std::vector<int> plan = std::move(stack.back());
    stack.pop_back();
    explore::PlanHook::Config cfg;
    cfg.plan = &plan;
    cfg.max_choice_points = kHorizon;
    cfg.memo = &memo;
    explore::PlanHook hook(cfg);
    HashFoldHook fold_hook(hook);
    sim::SimOptions so = base;
    so.schedule_hook = &fold_hook;
    sim::Engine engine(model, so);
    const sim::SimResult r = engine.run();
    ++schedules_run;
    choice_points += hook.total_choice_points();
    states_recorded += hook.states_recorded();
    if (hook.pruned()) ++states_pruned;
    hashes.insert(hashes.end(), fold_hook.hashes().begin(),
                  fold_hook.hashes().end());
    const Pin p = pin_of(r);
    outcomes.insert(outcomes.end(),
                    {p.digest, std::bit_cast<std::uint64_t>(p.end_time),
                     static_cast<std::uint64_t>(p.events),
                     static_cast<std::uint64_t>(p.deferred_sends),
                     static_cast<std::uint64_t>(p.stall_deferred),
                     p.messages});
    const std::vector<explore::ChoiceRec> log = hook.log();
    for (std::size_t i = log.size(); i-- > plan.size();) {
      if (log[i].arity <= 1) continue;
      std::vector<int> prefix;
      for (std::size_t j = 0; j < i; ++j) prefix.push_back(log[j].taken);
      for (int alt = log[i].arity - 1; alt >= 1; --alt) {
        std::vector<int> child = prefix;
        child.push_back(alt);
        stack.push_back(std::move(child));
      }
    }
  }
  EXPECT_EQ(schedules_run, 55);
  EXPECT_EQ(states_pruned, 15);
  EXPECT_EQ(states_recorded, 199);
  EXPECT_EQ(choice_points, 5940);
  EXPECT_EQ(fold(hashes), 0x37eca7d505e018d0ULL);
  EXPECT_EQ(fold(outcomes), 0x281f5034dbf704beULL);
  if (::testing::Test::HasFailure())
    std::printf("    %ld %ld %ld %ld 0x%016llxULL 0x%016llxULL\n",
                schedules_run, states_pruned, states_recorded, choice_points,
                static_cast<unsigned long long>(fold(hashes)),
                static_cast<unsigned long long>(fold(outcomes)));
}

}  // namespace

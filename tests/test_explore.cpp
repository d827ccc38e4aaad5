// Schedule-space explorer tests: bounded-exhaustive model checking of the
// protocol drivers, determinism of the search, the parallel budget,
// search and shrink results pinned from an earlier build, counterexample
// shrinking, ACFX artifact round-trips, and the seeded-bug negative
// control — the broken CIC variant must be caught, shrunk to a short
// plan, and replayed bit-identically through the real `acfc explore
// --repro` CLI.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "explore/artifact.h"
#include "explore/explore.h"
#include "explore/shrink.h"

namespace {

using namespace acfc;

// ---------------------------------------------------------------------------
// Scenario builders

/// Small ring: 3 procs, 2 iterations — the bounded-depth tree is fully
/// enumerable in well under a second.
explore::Scenario small_ring() {
  explore::Scenario sc;
  sc.workload = "ring";
  sc.params.iterations = 2;
  sc.nprocs = 3;
  return sc;
}

/// Small star (master/worker): any-source receives at the master, so the
/// digest oracle must be off (arrival order legitimately changes state).
explore::Scenario small_star() {
  explore::Scenario sc;
  sc.workload = "master_worker";
  sc.params.iterations = 2;
  sc.nprocs = 3;
  return sc;
}

/// The negative-control scenario: staggered CIC basic timers over the
/// ring, with delivery-delay perturbation big enough to push a send past
/// its sender's timer. Tuned so the DEFAULT schedule is violation-free
/// (RootScheduleIsClean pins this) and only exploration reaches the bug.
explore::Scenario cic_scenario(const std::string& driver) {
  explore::Scenario sc;
  sc.workload = "ring";
  sc.params.iterations = 3;
  sc.nprocs = 3;
  sc.driver = driver;
  sc.proto.interval = 22.0;
  sc.proto.cic_stagger = 0.5;
  return sc;
}

explore::ExploreOptions cic_options() {
  explore::ExploreOptions opts;
  opts.max_choice_points = 8;
  opts.max_schedules = 4000;
  opts.check_cic_index = true;
  opts.perturb.delay_steps = 3;
  opts.perturb.delay_quantum = 2.0;
  return opts;
}

void expect_equal_results(const explore::ExploreResult& a,
                          const explore::ExploreResult& b) {
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.choice_points, b.choice_points);
  EXPECT_EQ(a.states_recorded, b.states_recorded);
  EXPECT_EQ(a.states_pruned, b.states_pruned);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.violations_found, b.violations_found);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].property, b.violations[i].property);
    EXPECT_EQ(a.violations[i].plan, b.violations[i].plan);
    EXPECT_EQ(a.violations[i].digest, b.violations[i].digest);
  }
}

// ---------------------------------------------------------------------------
// Bounded-exhaustive search

TEST(Explore, RingBoundedSearchIsCompleteAndClean) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 2000;
  const auto result = explore::explore(small_ring(), opts);
  // The whole bounded tree fits the budget: coverage is exhaustive, and
  // the visited/pruned accounting is populated.
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.schedules_run, 10);
  EXPECT_LT(result.schedules_run, opts.max_schedules);
  EXPECT_GT(result.choice_points, result.schedules_run);
  EXPECT_GT(result.states_recorded, 0);
  EXPECT_GE(result.states_pruned, 0);
  EXPECT_EQ(result.violations_found, 0);
  EXPECT_TRUE(result.violations.empty());
}

TEST(Explore, StarBoundedSearchIsCompleteAndClean) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 3000;
  // Any-source receives: digest depends on arrival order by design.
  opts.check_digest = false;
  const auto result = explore::explore(small_star(), opts);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.schedules_run, 10);
  EXPECT_EQ(result.violations_found, 0);
}

TEST(Explore, MemoizationPrunesWithoutChangingVerdict) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 2000;
  const auto with_memo = explore::explore(small_ring(), opts);
  opts.memoize = false;
  const auto without = explore::explore(small_ring(), opts);
  EXPECT_GT(with_memo.states_pruned, 0);
  EXPECT_EQ(without.states_pruned, 0);
  EXPECT_EQ(with_memo.violations_found, 0);
  EXPECT_EQ(without.violations_found, 0);
  // Memoization only skips re-expansion of visited states; it must never
  // skip schedules the unpruned search needs to find a verdict.
  EXPECT_LE(with_memo.schedules_run, without.schedules_run);
  EXPECT_TRUE(without.complete);
}

TEST(Explore, BudgetExhaustionReportsIncomplete) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 5;
  const auto result = explore::explore(small_ring(), opts);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.schedules_run, 5);
}

TEST(Explore, NoThreadCountOverrunsTheBudget) {
  // The root run takes one schedule and the shards split the rest exactly
  // (floor plus remainder), so no thread count may run more than
  // max_schedules; a shard left with children but no budget makes the
  // search incomplete.
  explore::ExploreOptions opts;
  opts.max_choice_points = 8;
  opts.perturb.delay_steps = 2;
  const long tree = explore::explore(small_ring(), opts).schedules_run;
  ASSERT_GT(tree, 41);
  for (const int threads : {1, 2, 4}) {
    for (const long budget : {1L, 2L, 10L, 41L}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      opts.threads = threads;
      opts.max_schedules = budget;
      const auto result = explore::explore(small_ring(), opts);
      EXPECT_LE(result.schedules_run, budget);
      EXPECT_GE(result.schedules_run, 1);
      EXPECT_FALSE(result.complete);
    }
  }
}

// ---------------------------------------------------------------------------
// All five genuine protocols, with failure injection

TEST(Explore, AllProtocolsCleanUnderFailureInjection) {
  for (const std::string driver :
       {"sync-and-stop", "chandy-lamport", "koo-toueg", "cic",
        "uncoordinated"}) {
    SCOPED_TRACE(driver);
    explore::Scenario sc = small_ring();
    sc.driver = driver;
    sc.proto.interval = 20.0;
    explore::ExploreOptions opts;
    opts.max_choice_points = 6;
    opts.max_schedules = 3000;
    opts.perturb.failure_points = true;
    const auto result = explore::explore(sc, opts);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.violations_found, 0)
        << (result.violations.empty() ? ""
                                      : result.violations.front().detail);
  }
}

TEST(Explore, AppDrivenCleanUnderFailureInjection) {
  explore::Scenario sc = small_ring();
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 3000;
  opts.perturb.failure_points = true;
  const auto result = explore::explore(sc, opts);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.violations_found, 0);
}

// ---------------------------------------------------------------------------
// Partition / stall injection dimensions

/// Options for the gray-failure dimensions: tie-breaks are disabled
/// (tie_cap 1) so the depth budget is spent entirely on injection points —
/// ring start-up alone burns ~10 tie-break positions otherwise.
explore::ExploreOptions gray_failure_options() {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 4000;
  opts.perturb.tie_cap = 1;
  opts.perturb.failure_points = true;
  opts.perturb.partition_points = true;
  opts.perturb.partition_window = 2.0;
  opts.perturb.stall_points = true;
  opts.perturb.stall_window = 2.0;
  return opts;
}

TEST(Explore, AllProtocolsCleanUnderPartitionAndStallInjection) {
  for (const std::string driver :
       {"sync-and-stop", "chandy-lamport", "koo-toueg", "cic",
        "uncoordinated"}) {
    SCOPED_TRACE(driver);
    explore::Scenario sc = small_ring();
    sc.driver = driver;
    sc.proto.interval = 20.0;
    const auto result = explore::explore(sc, gray_failure_options());
    EXPECT_TRUE(result.complete);
    EXPECT_GT(result.schedules_run, 10);
    EXPECT_EQ(result.violations_found, 0)
        << (result.violations.empty() ? ""
                                      : result.violations.front().detail);
  }
}

TEST(Explore, AppDrivenCleanUnderPartitionAndStallInjection) {
  const auto result =
      explore::explore(small_ring(), gray_failure_options());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.schedules_run, 10);
  EXPECT_EQ(result.violations_found, 0)
      << (result.violations.empty() ? ""
                                    : result.violations.front().detail);
}

TEST(Explore, SupervisedRuntimeCleanUnderAllThreeInjectionDimensions) {
  // The genuine supervisor: detector timeout = interval, generous restart
  // budget. Injected crashes are detected and rolled back; injected
  // partitions/stalls may cause false suspicion, which must stay safe.
  explore::Scenario sc = small_ring();
  sc.params.iterations = 3;
  sc.driver = "supervised";
  sc.proto.interval = 20.0;
  const auto result = explore::explore(sc, gray_failure_options());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.schedules_run, 10);
  EXPECT_EQ(result.violations_found, 0)
      << (result.violations.empty() ? ""
                                    : result.violations.front().detail);
}

// ---------------------------------------------------------------------------
// Determinism

TEST(Explore, SerialSearchIsDeterministic) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 2000;
  expect_equal_results(explore::explore(small_ring(), opts),
                       explore::explore(small_ring(), opts));
}

TEST(Explore, ParallelSearchIsDeterministic) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 2000;
  opts.threads = 4;
  expect_equal_results(explore::explore(small_ring(), opts),
                       explore::explore(small_ring(), opts));
}

TEST(Explore, RandomWalkModeIsSeededAndDeterministic) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 8;
  opts.random_walks = 40;
  opts.strategy_seed = 7;
  const auto a = explore::explore(small_ring(), opts);
  const auto b = explore::explore(small_ring(), opts);
  EXPECT_FALSE(a.complete);
  EXPECT_EQ(a.schedules_run, 40);
  expect_equal_results(a, b);
  opts.strategy_seed = 8;
  const auto c = explore::explore(small_ring(), opts);
  EXPECT_EQ(c.schedules_run, 40);
}

TEST(Explore, ReplayPlanIsBitDeterministic) {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  const std::vector<int> plan = {0, 1, 2};
  const auto a = explore::replay_plan(small_ring(), opts, plan);
  const auto b = explore::replay_plan(small_ring(), opts, plan);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.digest, b.digest);
}

// ---------------------------------------------------------------------------
// Golden pin: search results recorded from an earlier build. The
// determinism tests compare two runs of one build, so they cannot see a
// change in the search itself; these can. Twelve genuine-driver scenarios
// cycle ring/jacobi_aligned/pipeline × app-driven/cic/chandy-lamport/
// supervised through the delay, fail, partition and stall families (the
// first one runs out of budget); the thirteenth is the cic-broken control.

struct GoldenCase {
  explore::Scenario scenario;
  explore::ExploreOptions options;
};

std::vector<GoldenCase> golden_cases() {
  struct Spec {
    const char* workload;
    const char* driver;
    const char* family;
    long budget;
  };
  const Spec specs[] = {
      {"ring", "app-driven", "delay", 150},
      {"ring", "cic", "fail", 400},
      {"ring", "chandy-lamport", "partition", 400},
      {"ring", "supervised", "stall", 400},
      {"jacobi_aligned", "app-driven", "fail", 400},
      {"jacobi_aligned", "cic", "partition", 400},
      {"jacobi_aligned", "chandy-lamport", "stall", 400},
      {"jacobi_aligned", "supervised", "delay", 400},
      {"pipeline", "app-driven", "partition", 400},
      {"pipeline", "cic", "stall", 400},
      {"pipeline", "chandy-lamport", "delay", 400},
      {"pipeline", "supervised", "fail", 400},
  };
  std::vector<GoldenCase> cases;
  std::uint64_t seed = 11;
  for (const Spec& spec : specs) {
    GoldenCase c;
    c.scenario.workload = spec.workload;
    c.scenario.params.iterations = 3;
    c.scenario.driver = spec.driver;
    c.scenario.nprocs = 3;
    c.scenario.seed = seed++;
    c.scenario.proto.interval = 20.0;
    c.options.max_choice_points = 10;
    c.options.max_schedules = spec.budget;
    const std::string family = spec.family;
    if (family == "delay") {
      c.options.perturb.delay_steps = 2;
    } else if (family == "fail") {
      c.options.perturb.failure_points = true;
    } else if (family == "partition") {
      c.options.perturb.tie_cap = 1;
      c.options.perturb.partition_points = true;
      c.options.perturb.partition_window = 2.0;
    } else {
      c.options.perturb.tie_cap = 1;
      c.options.perturb.stall_points = true;
      c.options.perturb.stall_window = 2.0;
    }
    cases.push_back(std::move(c));
  }
  // The seeded-bug control: broken CIC under delivery-delay perturbation.
  cases.push_back({cic_scenario("cic-broken"), cic_options()});
  return cases;
}

struct PinnedViolation {
  const char* property;
  std::vector<int> plan;
  std::uint64_t digest;
};

struct Pinned {
  long schedules_run;
  long choice_points;
  long states_recorded;
  long states_pruned;
  bool complete;
  long violations_found;
  std::vector<PinnedViolation> violations;
};

/// One row per golden_cases() entry, in order.
const std::vector<Pinned>& golden_pins() {
  static const std::vector<Pinned> pins = {
      {150, 2991, 149, 55, false, 0, {}},  // ring app-driven
      {59, 3072, 71, 17, true, 0, {}},  // ring cic
      {11, 330, 48, 6, true, 0, {}},  // ring chandy-lamport
      {11, 297, 36, 4, true, 0, {}},  // ring supervised
      {201, 6849, 205, 129, true, 0, {}},  // jacobi_aligned app-driven
      {11, 264, 32, 4, true, 0, {}},  // jacobi_aligned cic
      {11, 264, 32, 4, true, 0, {}},  // jacobi_aligned chandy-lamport
      {84, 7104, 82, 60, true, 0, {}},  // jacobi_aligned supervised
      {11, 627, 21, 7, true, 0, {}},  // pipeline app-driven
      {11, 671, 21, 7, true, 0, {}},  // pipeline cic
      {56, 2972, 54, 30, true, 0, {}},  // pipeline chandy-lamport
      {20, 2302, 26, 12, true, 0, {}},  // pipeline supervised
      // ring cic-broken
      {383, 6883, 251, 5, true, 132,
       {
           {"cic-index", {0, 0, 1, 1, 1, 1, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 1, 1, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 1, 1, 2}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 1, 2}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 1, 2, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 2, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 2, 1, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 2, 2}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 2, 2, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 2, 0, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 1, 2, 0, 2}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 0, 1, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 0, 1, 1, 1}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 0, 1, 1, 2}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 0, 1, 2}, 0x0c335972dafe92d9ULL},
           {"cic-index", {0, 0, 1, 1, 0, 1, 2, 1}, 0x0c335972dafe92d9ULL},
       }},
  };
  return pins;
}

TEST(ExploreGolden, SearchResultsMatchThePinnedValues) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), golden_pins().size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const Pinned& want = golden_pins()[i];
    SCOPED_TRACE(c.scenario.workload + " " + c.scenario.driver);
    const auto got = explore::explore(c.scenario, c.options);
    EXPECT_EQ(got.schedules_run, want.schedules_run);
    EXPECT_EQ(got.choice_points, want.choice_points);
    EXPECT_EQ(got.states_recorded, want.states_recorded);
    EXPECT_EQ(got.states_pruned, want.states_pruned);
    EXPECT_EQ(got.complete, want.complete);
    EXPECT_EQ(got.violations_found, want.violations_found);
    ASSERT_EQ(got.violations.size(), want.violations.size());
    for (std::size_t v = 0; v < want.violations.size(); ++v) {
      EXPECT_EQ(got.violations[v].property, want.violations[v].property);
      EXPECT_EQ(got.violations[v].plan, want.violations[v].plan);
      EXPECT_EQ(got.violations[v].digest, want.violations[v].digest);
    }
  }
}

TEST(ExploreGolden, ShrinkResultMatchesThePinnedValues) {
  // Shrinking the control's first violation: the minimal plan, its
  // digest, and the replay count are all pinned.
  const GoldenCase broken = golden_cases().back();
  const auto found = explore::explore(broken.scenario, broken.options);
  ASSERT_FALSE(found.violations.empty());
  const auto shrunk =
      explore::shrink(broken.scenario, broken.options, found.violations[0]);
  EXPECT_EQ(shrunk.runs, 17);
  EXPECT_EQ(shrunk.initial_choices, 5);
  EXPECT_EQ(shrunk.final_choices, 3);
  EXPECT_EQ(shrunk.minimal.property, "cic-index");
  EXPECT_EQ(shrunk.minimal.plan, (std::vector<int>{0, 0, 0, 1, 0, 1, 1}));
  EXPECT_EQ(shrunk.minimal.digest, 0x0c335972dafe92d9ULL);
}

// ---------------------------------------------------------------------------
// Negative control: the seeded bug must be caught, shrunk, and replayed

TEST(ExploreNegativeControl, CorrectCicIsClean) {
  const auto result = explore::explore(cic_scenario("cic"), cic_options());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.violations_found, 0)
      << (result.violations.empty() ? ""
                                    : result.violations.front().detail);
}

TEST(ExploreNegativeControl, RootScheduleIsClean) {
  // The default schedule must NOT trip the bug — otherwise any single run
  // would catch it and the explorer would prove nothing.
  explore::ExploreOptions opts = cic_options();
  opts.max_schedules = 1;
  const auto result =
      explore::explore(cic_scenario("cic-broken"), opts);
  EXPECT_EQ(result.violations_found, 0);
}

TEST(ExploreNegativeControl, BrokenCicIsCaughtAndShrunk) {
  const explore::Scenario sc = cic_scenario("cic-broken");
  const explore::ExploreOptions opts = cic_options();
  const auto result = explore::explore(sc, opts);
  EXPECT_TRUE(result.complete);
  ASSERT_GT(result.violations_found, 0);
  ASSERT_FALSE(result.violations.empty());
  const explore::Violation& found = result.violations.front();
  EXPECT_EQ(found.property, "cic-index");
  EXPECT_FALSE(found.plan.empty());

  const auto shrunk = explore::shrink(sc, opts, found);
  EXPECT_LE(shrunk.final_choices, shrunk.initial_choices);
  EXPECT_GT(shrunk.runs, 0);
  // Acceptance bar: a minimal counterexample of at most 20 choices.
  EXPECT_LE(static_cast<long>(shrunk.minimal.plan.size()), 20);
  EXPECT_EQ(shrunk.minimal.property, "cic-index");

  // 1-minimality: zeroing any single surviving choice loses the bug.
  for (std::size_t i = 0; i < shrunk.minimal.plan.size(); ++i) {
    if (shrunk.minimal.plan[i] == 0) continue;
    std::vector<int> weakened = shrunk.minimal.plan;
    weakened[i] = 0;
    const auto rep = explore::replay_plan(sc, opts, weakened);
    EXPECT_FALSE(rep.violation &&
                 rep.violation->property == "cic-index")
        << "choice " << i << " is removable";
  }

  // The shrunk plan replays to the same violation and digest.
  const auto rep = explore::replay_plan(sc, opts, shrunk.minimal.plan);
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->property, "cic-index");
  EXPECT_EQ(rep.digest, shrunk.minimal.digest);
}

// ---------------------------------------------------------------------------
// Negative control #2: a too-short detector timeout under stall injection

/// The fragile supervisor: detector timeout = interval/4 (5 s here) with a
/// ZERO restart budget — the first suspicion quarantines. A 10 s injected
/// stall exceeds the timeout, so exploration finds a schedule where a live
/// process is suspected, quarantined, and the ring wedges (a completion
/// violation). The default schedule has no stall and stays clean.
explore::Scenario fragile_scenario() {
  explore::Scenario sc;
  sc.workload = "ring";
  sc.params.iterations = 3;
  sc.nprocs = 3;
  sc.driver = "supervised-fragile";
  sc.proto.interval = 20.0;
  return sc;
}

explore::ExploreOptions fragile_options() {
  explore::ExploreOptions opts;
  opts.max_choice_points = 6;
  opts.max_schedules = 3000;
  opts.perturb.tie_cap = 1;
  opts.perturb.stall_points = true;
  opts.perturb.stall_window = 10.0;
  return opts;
}

TEST(ExploreNegativeControl, FragileSupervisorRootScheduleIsClean) {
  explore::ExploreOptions opts = fragile_options();
  opts.max_schedules = 1;
  const auto result = explore::explore(fragile_scenario(), opts);
  EXPECT_EQ(result.violations_found, 0);
}

TEST(ExploreNegativeControl, GenuineSupervisorSurvivesTheSameStalls) {
  // Same workload, same injected stalls — but the genuine supervisor's
  // timeout (= interval) exceeds the stall window and its budget absorbs
  // false suspicions. Only the fragile tuning is at fault.
  explore::Scenario sc = fragile_scenario();
  sc.driver = "supervised";
  const auto result = explore::explore(sc, fragile_options());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.violations_found, 0)
      << (result.violations.empty() ? ""
                                    : result.violations.front().detail);
}

TEST(ExploreNegativeControl, FragileSupervisorIsCaughtShrunkAndReplayed) {
  const explore::Scenario sc = fragile_scenario();
  const explore::ExploreOptions opts = fragile_options();
  const auto result = explore::explore(sc, opts);
  EXPECT_TRUE(result.complete);
  ASSERT_GT(result.violations_found, 0);
  ASSERT_FALSE(result.violations.empty());
  const explore::Violation& found = result.violations.front();
  EXPECT_EQ(found.property, "completion");

  const auto shrunk = explore::shrink(sc, opts, found);
  EXPECT_LE(shrunk.final_choices, shrunk.initial_choices);
  EXPECT_LE(static_cast<long>(shrunk.minimal.plan.size()), 20);
  EXPECT_EQ(shrunk.minimal.property, "completion");

  // 1-minimality: zeroing any surviving choice loses the violation.
  for (std::size_t i = 0; i < shrunk.minimal.plan.size(); ++i) {
    if (shrunk.minimal.plan[i] == 0) continue;
    std::vector<int> weakened = shrunk.minimal.plan;
    weakened[i] = 0;
    const auto rep = explore::replay_plan(sc, opts, weakened);
    EXPECT_FALSE(rep.violation &&
                 rep.violation->property == "completion")
        << "choice " << i << " is removable";
  }

  // The shrunk plan replays to the same violation, digest, and a run that
  // actually stalled a process and quarantined one.
  const auto rep = explore::replay_plan(sc, opts, shrunk.minimal.plan);
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->property, "completion");
  EXPECT_EQ(rep.digest, shrunk.minimal.digest);
  EXPECT_FALSE(rep.completed);
  EXPECT_GT(rep.stats.stall_deferred_events, 0);
  EXPECT_GE(rep.stats.quarantines, 1);
  EXPECT_GE(rep.stats.false_suspicions, 1);
}

// ---------------------------------------------------------------------------
// ACFX artifacts

TEST(ExploreArtifact, RoundTripsThroughText) {
  const explore::Scenario sc = cic_scenario("cic-broken");
  explore::ExploreOptions opts = cic_options();
  opts.perturb.partition_points = true;
  opts.perturb.partition_window = 0.75;
  opts.perturb.stall_points = true;
  opts.perturb.stall_window = 1.25;
  opts.max_partitions = 2;
  opts.max_stalls = 3;
  explore::Violation v;
  v.property = "cic-index";
  v.plan = {0, 0, 0, 1, 0, 1, 1};
  v.digest = 0x0123456789abcdefULL;
  const explore::Artifact artifact =
      explore::make_artifact(sc, opts, v);
  const std::string text = explore::to_text(artifact);
  const auto parsed = explore::parse_artifact(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->scenario.workload, sc.workload);
  EXPECT_EQ(parsed->scenario.driver, sc.driver);
  EXPECT_EQ(parsed->scenario.nprocs, sc.nprocs);
  EXPECT_EQ(parsed->scenario.seed, sc.seed);
  EXPECT_EQ(parsed->scenario.proto.interval, sc.proto.interval);
  EXPECT_EQ(parsed->scenario.proto.cic_stagger, sc.proto.cic_stagger);
  EXPECT_EQ(parsed->opts.max_choice_points, opts.max_choice_points);
  EXPECT_EQ(parsed->opts.check_cic_index, opts.check_cic_index);
  EXPECT_EQ(parsed->opts.perturb.delay_steps, opts.perturb.delay_steps);
  EXPECT_EQ(parsed->opts.perturb.delay_quantum,
            opts.perturb.delay_quantum);
  EXPECT_EQ(parsed->opts.perturb.partition_points,
            opts.perturb.partition_points);
  EXPECT_EQ(parsed->opts.perturb.partition_window,
            opts.perturb.partition_window);
  EXPECT_EQ(parsed->opts.perturb.stall_points, opts.perturb.stall_points);
  EXPECT_EQ(parsed->opts.perturb.stall_window, opts.perturb.stall_window);
  EXPECT_EQ(parsed->opts.max_partitions, opts.max_partitions);
  EXPECT_EQ(parsed->opts.max_stalls, opts.max_stalls);
  EXPECT_EQ(parsed->plan, v.plan);
  EXPECT_EQ(parsed->property, v.property);
  EXPECT_EQ(parsed->digest, v.digest);
  // And the re-serialization is byte-identical: text is canonical.
  EXPECT_EQ(explore::to_text(*parsed), text);
}

TEST(ExploreArtifact, RejectsMalformedInputs) {
  EXPECT_FALSE(explore::parse_artifact("").has_value());
  EXPECT_FALSE(explore::parse_artifact("ACFX1\n").has_value());  // no end
  EXPECT_FALSE(explore::parse_artifact("ACFX2\nend\n").has_value());
  EXPECT_FALSE(
      explore::parse_artifact("ACFX1\nnprocs zero\nend\n").has_value());
  EXPECT_FALSE(
      explore::parse_artifact("ACFX1\nworkload nope\nend\n").has_value());
  EXPECT_FALSE(
      explore::parse_artifact("ACFX1\nbogus 1\nend\n").has_value());
  EXPECT_FALSE(explore::parse_artifact("ACFX1\nnprocs 3\nnprocs 3\nend\n")
                   .has_value());  // duplicate key
  EXPECT_FALSE(explore::parse_artifact("ACFX1\nend\ntrailing\n")
                   .has_value());  // bytes after end
  EXPECT_TRUE(explore::parse_artifact("ACFX1\nend\n").has_value());
}

// ---------------------------------------------------------------------------
// End-to-end through the real CLI binary

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(ACFC_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CliResult result;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
    result.output += buffer.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(ExploreCli, SearchShrinkEmitAndReproduceBitIdentically) {
  const std::string path =
      testing::TempDir() + "/explore_negative_control.acfx";
  const std::string search_flags =
      "explore -w ring --iterations 3 -n 3 --driver cic-broken "
      "--interval 22 --cic-stagger 0.5 --check-cic-index --depth 8 "
      "--budget 4000 --delay-steps 3 --delay-quantum 2.0 -o " +
      path;
  const auto search = run_cli(search_flags);
  EXPECT_EQ(search.exit_code, 1) << search.output;
  EXPECT_NE(search.output.find("property:   cic-index"), std::string::npos)
      << search.output;
  EXPECT_NE(search.output.find("(complete)"), std::string::npos);
  EXPECT_NE(search.output.find("wrote " + path), std::string::npos);

  // The emitted artifact replays bit-identically: digest AND property
  // both match what the search recorded.
  const auto repro = run_cli("explore --repro " + path);
  EXPECT_EQ(repro.exit_code, 0) << repro.output;
  EXPECT_NE(repro.output.find("digest:"), std::string::npos);
  EXPECT_EQ(repro.output.find("MISMATCH"), std::string::npos)
      << repro.output;
  EXPECT_NE(repro.output.find("repro: reproduced"), std::string::npos);

  // Corrupting the recorded digest must flip the verdict (exit 1).
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto at = text.find("\ndigest ");
  ASSERT_NE(at, std::string::npos);
  text[at + 8] = text[at + 8] == '0' ? '1' : '0';
  {
    std::ofstream out(path);
    out << text;
  }
  const auto mismatch = run_cli("explore --repro " + path);
  EXPECT_EQ(mismatch.exit_code, 1) << mismatch.output;
  EXPECT_NE(mismatch.output.find("MISMATCH"), std::string::npos);
}

TEST(ExploreCli, FragileSupervisorCaughtAndReproducedThroughTheCli) {
  const std::string path =
      testing::TempDir() + "/fragile_negative_control.acfx";
  const auto search = run_cli(
      "explore -w ring --iterations 3 -n 3 --driver supervised-fragile "
      "--interval 20 --depth 6 --budget 3000 --stall-points "
      "--stall-window 10 --tie-cap 1 -o " +
      path);
  EXPECT_EQ(search.exit_code, 1) << search.output;
  EXPECT_NE(search.output.find("property:   completion"), std::string::npos)
      << search.output;
  EXPECT_NE(search.output.find("(complete)"), std::string::npos);
  EXPECT_NE(search.output.find("wrote " + path), std::string::npos);

  const auto repro = run_cli("explore --repro " + path);
  EXPECT_EQ(repro.exit_code, 0) << repro.output;
  EXPECT_EQ(repro.output.find("MISMATCH"), std::string::npos)
      << repro.output;
  EXPECT_NE(repro.output.find("repro: reproduced"), std::string::npos);
}

TEST(ExploreCli, CleanScenarioExitsZero) {
  const auto r = run_cli(
      "explore -w ring --iterations 2 -n 3 --depth 5 --budget 2000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("violations: 0"), std::string::npos);
}

TEST(ExploreCli, MalformedArtifactExitsTwo) {
  const std::string path = testing::TempDir() + "/bad.acfx";
  {
    std::ofstream out(path);
    out << "not an artifact\n";
  }
  const auto r = run_cli("explore --repro " + path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("malformed"), std::string::npos);
}

}  // namespace

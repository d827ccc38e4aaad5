// Engine::rearm: one engine re-armed run after run behaves exactly like a
// fresh engine per run, and a re-armed run allocates nothing.
//
// RearmEquivalence runs every case twice, once on a fresh engine and once
// on one engine per setup that is re-armed before each run, in one
// shuffled order across all setups, and compares a byte dump of every
// trace, message, checkpoint, stat, recovery and final counter, plus a
// fold of Engine::schedule_state_hash at every choice point (so hashed run
// state — pending faults, windows, tallies, FIFO floors — is compared as
// well) and the event queue's high-water gauge. The setups cover ring,
// jacobi_aligned, pipeline and a program with every collective kind under
// app-driven, cic, chandy-lamport, koo-toueg, sync-and-stop and
// supervised; explorer plans that inject failures, partitions and stalls
// beside a plan window of each kind and a plan fault; a crash before any
// checkpoint commits (a process restarts from no checkpoint); a lossy
// wire; storage faults; and runs cut short by max_events, which leave
// queued events, inbox messages, pending pauses and half-joined
// collective rounds behind.
//
// Two resets no run can observe are not checked: the event seq and the
// epoch only order and match events within one run, so a constant offset
// carried over from the last run changes nothing.
//
// RearmAllocation counts global operator new calls inside Engine::run()
// (this binary replaces operator new) and expects none on a re-armed
// engine re-running a failure-free app-driven ring schedule, at n = 3 and
// at n = 12 alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "explore/strategy.h"
#include "mp/parser.h"
#include "obs/metrics.h"
#include "proto/protocols.h"
#include "run_bytes.h"
#include "sim/engine.h"
#include "sim/model.h"
#include "sim/snapshot_codec.h"
#include "util/checksum.h"
#include "workloads/workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ACFC_REARM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ACFC_REARM_SANITIZED 1
#endif
#endif

// Sanitizers bring their own allocator; the counting replacement is only
// compiled without them (and RearmAllocation skips).
#ifndef ACFC_REARM_SANITIZED
namespace {

// Counting is off except inside the measured call.
std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}

// Out of line, so the compiler does not pair the free() with the
// operator new call it sees inlined and warn about a mismatch.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
#endif

namespace {

using namespace acfc;
using sim::Engine;
using sim::SimOptions;
using sim::SimResult;
using sim::run_bytes;

/// A PlanHook that first folds the engine's schedule_state_hash at every
/// choice point it is offered.
class HashingHook final : public sim::ScheduleHook {
 public:
  void rearm(const explore::PlanHook::Config& cfg) {
    plan_.rearm(cfg);
    fold_ = 0;
  }
  int choose(const sim::ChoicePoint& cp) override {
    fold_ = (fold_ ^ cp.engine->schedule_state_hash()) * 0x100000001b3ULL;
    return plan_.choose(cp);
  }
  std::uint64_t fold() const { return fold_; }
  const explore::PlanHook& plan() const { return plan_; }

 private:
  explore::PlanHook plan_{explore::PlanHook::Config{}};
  std::uint64_t fold_ = 0;
};

constexpr int kHorizon = 24;

explore::PlanHook::Config plan_config(const std::vector<int>* plan,
                                      util::Rng* random) {
  explore::PlanHook::Config cfg;
  cfg.plan = plan;
  cfg.max_choice_points = kHorizon;
  cfg.random = random;
  return cfg;
}

std::unique_ptr<sim::ProtocolDriver> make_driver(const std::string& name) {
  proto::ProtocolOptions opts;
  opts.interval = 4.0;  // several protocol rounds in one short run
  const sim::DriverFactory factory = proto::driver_factory_by_name(name, opts);
  return factory ? factory() : nullptr;
}

/// Every collective kind, between ring exchanges.
constexpr const char* kCollectives = R"(
  program collectives {
    loop 3 {
      compute 2.0;
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
      reduce root 0 tag 2 bytes 64;
      bcast root 1 tag 3 bytes 32;
      allreduce tag 4 bytes 8;
      barrier;
    }
  })";

/// A loop whose trip count is an irregular value: each evaluation advances
/// the process's irregular-instance counter.
constexpr const char* kIrregular = R"(
  program irregular_ring {
    loop 3 {
      loop irregular(1) + 1 {
        compute 1.0;
      }
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

/// One engine configuration; every run on it shares the model and options
/// and varies the driver and, with a hook, the plan.
struct EngineSetup {
  std::string name;
  std::unique_ptr<const mp::Program> program;  ///< stays put for the model
  std::unique_ptr<sim::Model> model;
  SimOptions opts;
  bool hooked = false;    ///< runs answer a HashingHook with their plan
  bool observed = false;  ///< runs flush into an obs::Registry
  bool captured = false;  ///< every take's full VM state is folded
};

/// What the caller keeps beside an engine for one run: the hook, the
/// registry and the capture fold the engine's options point at.
struct RunSide {
  RunSide() = default;
  RunSide(const RunSide&) = delete;  // the engine's options point in here
  RunSide& operator=(const RunSide&) = delete;

  HashingHook hook;
  obs::Registry reg;
  std::uint64_t captures = 0;

  SimOptions options_for(const EngineSetup& s) {
    SimOptions opts = s.opts;
    if (s.hooked) opts.schedule_hook = &hook;
    if (s.observed) opts.obs = &reg;
    if (s.captured)
      opts.checkpoint_capture_fn = [this](int proc,
                                          const sim::VmSnapshot& state) {
        const std::string bytes = sim::serialize_snapshot(state);
        captures = (captures ^ util::checksum64(bytes) ^
                    static_cast<std::uint64_t>(proc)) *
                   0x100000001b3ULL;
      };
    return opts;
  }
  void start(const EngineSetup& s, const std::vector<int>& plan) {
    if (s.hooked) hook.rearm(plan_config(&plan, nullptr));
    captures = 0;
  }
};

struct Case {
  std::size_t setup = 0;
  std::string driver;
  std::vector<int> plan;
};

const std::vector<std::string>& drivers() {
  static const std::vector<std::string> names = {
      "app-driven", "cic",        "chandy-lamport",
      "koo-toueg",  "sync-and-stop", "supervised"};
  return names;
}

std::vector<EngineSetup> make_setups() {
  mp::WorkloadParams params;
  params.iterations = 3;
  std::vector<EngineSetup> setups;
  const auto add = [&](std::string name, const std::string& workload) {
    EngineSetup& s = setups.emplace_back();
    s.name = std::move(name);
    s.program = std::make_unique<const mp::Program>(
        workload == "collectives"  ? mp::parse(kCollectives)
        : workload == "irregular" ? mp::parse(kIrregular)
                                  : mp::workload_by_name(workload, params));
    s.model = std::make_unique<sim::Model>(*s.program);
    s.opts.nprocs = 3;
    s.opts.seed = 11;
    return &s;
  };
  const auto explorer = [](EngineSetup& s) {
    s.hooked = true;
    s.opts.perturb.tie_cap = 3;
    s.opts.perturb.delay_steps = 2;
    s.opts.perturb.failure_points = true;
    s.opts.perturb.partition_points = true;
    s.opts.perturb.partition_window = 6.0;
    s.opts.perturb.stall_points = true;
    s.opts.perturb.stall_window = 4.0;
    s.opts.fault_plan.partitions = {sim::FaultPlan::partition({1}, 5.0, 15.0)};
    s.opts.fault_plan.stalls = {sim::FaultPlan::stall(2, 8.0, 6.0)};
  };
  for (const char* workload : {"ring", "jacobi_aligned", "pipeline"})
    explorer(*add(std::string("explore-") + workload, workload));
  // A plan fault beside the injected ones: its fired flag is hashed.
  setups.back().opts.fault_plan.faults = {
      sim::FaultPlan::after_checkpoint(1, 2)};
  {
    // Every round kind. No failure points: a rollback may not straddle
    // an all-merge round, which the engine rejects.
    EngineSetup& s = *add("collectives", "collectives");
    explorer(s);
    s.opts.perturb.failure_points = false;
  }
  {
    // The captured states cover what no run output shows: the VM's RNG
    // words and its irregular-instance counters.
    EngineSetup& s = *add("irregular", "irregular");
    explorer(s);
    s.captured = true;
  }
  {
    // Process 0 crashes before any checkpoint commits: every process
    // restarts from the program's entry.
    EngineSetup& s = *add("no-checkpoint-rollback", "ring");
    explorer(s);
    s.opts.checkpoint_latency = 4.0;
    s.opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 1.5)};
  }
  // Runs cut short (a whole run takes 25–80 events) leave queued events,
  // undelivered and unconsumed messages, pending pauses and half-joined
  // rounds behind.
  for (const auto& [workload, max_events] :
       {std::pair{"jacobi_aligned", 14L}, {"pipeline", 21L},
        {"collectives", 33L}}) {
    EngineSetup& s = *add(std::string("cut-short-") + workload, workload);
    explorer(s);
    s.opts.perturb.failure_points = false;
    s.opts.max_events = max_events;
  }
  {
    EngineSetup& s = *add("lossy", "ring");
    s.observed = true;
    s.opts.nprocs = 4;
    s.opts.delay.jitter = 2e-3;
    s.opts.delay.drop = 0.05;
    s.opts.delay.dup = 0.02;
    s.opts.delay.reorder = 0.05;
    s.opts.compute_jitter = 0.1;
    s.opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 2)};
  }
  {
    EngineSetup& s = *add("storage-faults", "pipeline");
    s.observed = true;
    s.captured = true;
    s.opts.storage_faults.faults = {
        store::StorageFaultPlan::torn_write(0, 2),
        store::StorageFaultPlan::stale_manifest(1, 2)};
    s.opts.fault_plan.faults = {sim::FaultPlan::after_checkpoint(2, 3)};
  }
  return setups;
}

/// The dump compared between fresh and re-armed runs.
std::string describe(const SimResult& r, const EngineSetup& s,
                     const RunSide& side) {
  std::string text = run_bytes(r);
  if (s.hooked) text += "hashes " + std::to_string(side.hook.fold()) + '\n';
  if (s.observed) {
    const obs::MetricsSnapshot snap = side.reg.snapshot();
    const obs::MetricSnap* queue = snap.find("calqueue.size_high_water");
    text += "queue " + std::to_string(queue != nullptr ? queue->value : -1) +
            '\n';
  }
  if (s.captured) text += "captures " + std::to_string(side.captures) + '\n';
  return text;
}

std::string fresh_bytes(const EngineSetup& s, const Case& c) {
  RunSide side;
  side.start(s, c.plan);
  const auto driver = make_driver(c.driver);
  Engine engine(*s.model, side.options_for(s), driver.get());
  return describe(engine.run(), s, side);
}

/// Plans for a hooked setup: the empty plan plus seeded random walks,
/// recorded as replayable plans.
std::vector<std::vector<int>> walk_plans(const EngineSetup& s,
                                         const std::string& driver,
                                         int walks) {
  std::vector<std::vector<int>> plans{{}};
  for (int w = 0; w < walks; ++w) {
    util::Rng rng(0x5eed0000ULL + static_cast<std::uint64_t>(w));
    HashingHook hook;
    hook.rearm(plan_config(nullptr, &rng));
    SimOptions opts = s.opts;
    opts.schedule_hook = &hook;
    const auto d = make_driver(driver);
    Engine engine(*s.model, std::move(opts), d.get());
    engine.run();
    plans.push_back(explore::trim_plan(explore::taken_of(hook.plan().log())));
  }
  return plans;
}

/// One setup's re-armed engine and what it keeps between runs.
struct Armed {
  RunSide side;
  std::unique_ptr<sim::ProtocolDriver> driver;
  std::unique_ptr<Engine> engine;
  SimResult spent;
};

TEST(RearmEquivalence, ReArmedEngineMatchesAFreshEngineOnEveryRun) {
  const std::vector<EngineSetup> setups = make_setups();
  std::vector<Case> cases;
  for (std::size_t i = 0; i < setups.size(); ++i)
    for (const std::string& driver : drivers()) {
      if (!setups[i].hooked) {
        cases.push_back(Case{i, driver, {}});
        continue;
      }
      for (std::vector<int>& plan : walk_plans(setups[i], driver, 3))
        cases.push_back(Case{i, driver, std::move(plan)});
    }
  std::mt19937 shuffle_rng(20261019);
  std::shuffle(cases.begin(), cases.end(), shuffle_rng);

  std::vector<std::unique_ptr<Armed>> armed(setups.size());
  for (std::size_t i = 0; i < setups.size(); ++i) {
    armed[i] = std::make_unique<Armed>();
    armed[i]->engine = std::make_unique<Engine>(
        *setups[i].model, armed[i]->side.options_for(setups[i]));
  }

  struct Seen {
    long restarts = 0, no_checkpoint_members = 0, partition_deferred = 0,
         stall_deferred = 0, forced = 0, control = 0, supervised = 0,
         retransmits = 0, corrupt = 0, cut_short = 0, injected_windows = 0;
  } seen;
  for (const Case& c : cases) {
    const EngineSetup& s = setups[c.setup];
    Armed& a = *armed[c.setup];
    SCOPED_TRACE(s.name + " / " + c.driver + " / plan of " +
                 std::to_string(c.plan.size()));
    a.side.start(s, c.plan);
    auto driver = make_driver(c.driver);
    a.engine->rearm(driver.get(), std::move(a.spent));
    a.driver = std::move(driver);
    SimResult r = a.engine->run();
    EXPECT_EQ(describe(r, s, a.side), fresh_bytes(s, c));

    seen.restarts += r.stats.restarts;
    for (const sim::RecoveryRec& rec : r.recoveries)
      seen.no_checkpoint_members +=
          std::count(rec.cut.member.begin(), rec.cut.member.end(), -1);
    seen.partition_deferred += r.stats.partition_deferred_sends;
    seen.stall_deferred += r.stats.stall_deferred_events;
    seen.forced += r.stats.forced_checkpoints;
    seen.control += r.stats.control_messages;
    seen.supervised += r.stats.supervised_restarts;
    seen.retransmits += r.stats.transport_retransmits;
    seen.corrupt += static_cast<long>(r.corrupt_checkpoints.size());
    if (!r.trace.completed && r.stats.events_processed == s.opts.max_events)
      ++seen.cut_short;
    const std::vector<explore::ChoiceRec>& log = a.side.hook.plan().log();
    for (std::size_t i = 0; s.hooked && i < log.size(); ++i)
      if (log[i].taken == 1 &&
          (log[i].kind == sim::ChoiceKind::kPartitionPoint ||
           log[i].kind == sim::ChoiceKind::kStallPoint))
        ++seen.injected_windows;
    a.spent = std::move(r);
  }
  // Every mechanism the setups aim at was exercised.
  EXPECT_GT(seen.restarts, 0);
  EXPECT_GT(seen.no_checkpoint_members, 0);
  EXPECT_GT(seen.partition_deferred, 0);
  EXPECT_GT(seen.stall_deferred, 0);
  EXPECT_GT(seen.forced, 0);
  EXPECT_GT(seen.control, 0);
  EXPECT_GT(seen.supervised, 0);
  EXPECT_GT(seen.retransmits, 0);
  EXPECT_GT(seen.corrupt, 0);
  EXPECT_GT(seen.cut_short, 0);
  EXPECT_GT(seen.injected_windows, 0);
}

TEST(RearmAllocation, ReRunningAFailureFreeRingAllocatesNothing) {
#ifdef ACFC_REARM_SANITIZED
  GTEST_SKIP() << "sanitizer allocator: operator new is not replaced";
#else
  mp::WorkloadParams params;
  params.iterations = 4;
  const mp::Program program = mp::workload_by_name("ring", params);
  const sim::Model model(program);
  explore::PlanHook hook{explore::PlanHook::Config{}};
  const std::vector<int> plan;
  for (const bool hooked : {false, true}) {
    SCOPED_TRACE(hooked ? "explorer hook" : "no hook");
    SimOptions opts;
    opts.nprocs = 3;
    if (hooked) opts.schedule_hook = &hook;
    Engine engine(model, opts);
    SimResult spent;
    for (int run = 0; run < 3; ++run) {
      hook.rearm(plan_config(&plan, nullptr));
      engine.rearm(nullptr, std::move(spent));
      g_allocations.store(0);
      g_counting.store(true);
      spent = engine.run();
      g_counting.store(false);
      ASSERT_TRUE(spent.trace.completed);
      ASSERT_GT(spent.trace.checkpoints.size(), 0u);
      if (hooked) {
        ASSERT_GT(hook.total_choice_points(), 0);
      }
      // The first run grows the buffers; every later one fits in them.
      if (run > 0) {
        EXPECT_EQ(g_allocations.load(), 0) << "run " << run;
      }
    }
  }
#endif
}

TEST(RearmAllocation, TwelveProcessRingAllocatesNothing) {
#ifdef ACFC_REARM_SANITIZED
  GTEST_SKIP() << "sanitizer allocator: operator new is not replaced";
#else
  // A send or checkpoint record keeps one tick, whatever the world size,
  // so a re-armed n = 12 ring allocates nothing in run() either.
  mp::WorkloadParams params;
  params.iterations = 4;
  const mp::Program program = mp::workload_by_name("ring", params);
  const sim::Model model(program);
  SimOptions opts;
  opts.nprocs = 12;
  Engine engine(model, opts);
  SimResult spent;
  for (int run = 0; run < 3; ++run) {
    engine.rearm(nullptr, std::move(spent));
    g_allocations.store(0);
    g_counting.store(true);
    spent = engine.run();
    g_counting.store(false);
    ASSERT_TRUE(spent.trace.completed);
    ASSERT_GT(spent.stats.app_messages, 0);
    ASSERT_GT(spent.trace.checkpoints.size(), 0u);
    if (run > 0) {
      EXPECT_EQ(g_allocations.load(), 0) << "run " << run;
    }
  }
#endif
}

}  // namespace

#include "explore/explore.h"

#include <algorithm>
#include <utility>

#include "sim/model.h"
#include "sim/montecarlo.h"
#include "sim/recovery.h"
#include "util/error.h"

namespace acfc::explore {

namespace detail {

/// Shared per-scenario context, built once per search or Replayer: the
/// program, its sim::Model, the driver factory and the baseline run.
/// Engines reference it read-only (the run_batch aliasing rule), from
/// every shard. Not copyable: the model points into `program`.
struct Ctx {
  Ctx(const Scenario& scenario, const ExploreOptions& opts);
  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  const Scenario& scenario;
  const ExploreOptions& opts;
  const mp::Program program;
  const sim::Model model;
  sim::DriverFactory factory;
  /// All-defaults failure-free run: the digest reference for both the
  /// schedule-independence check (failure-free schedules must reach the
  /// same final state along every interleaving) and the recovery-replay
  /// check (failure schedules must roll back TO that same state).
  sim::SimResult baseline;
};

/// One engine, plan hook and result, re-armed for every schedule a DFS
/// shard, Replayer or random walk runs: the engine keeps its trace,
/// queue, image arena and VM buffers across schedules, the hook its log,
/// so a schedule builds no engine. Each run gets a fresh driver from the
/// scenario's factory. Not for concurrent use.
class Runner {
 public:
  explicit Runner(const Ctx& ctx)
      : ctx_(ctx),
        hook_(PlanHook::Config{}),
        engine_(ctx.model, engine_options(ctx, &hook_)) {}
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Runs `plan` (past it: defaults, or uniform draws from `random`);
  /// result() and hook() describe that run until the next one.
  void run(const std::vector<int>& plan, Memo* memo, util::Rng* random) {
    PlanHook::Config cfg;
    cfg.plan = &plan;
    cfg.max_choice_points = ctx_.opts.max_choice_points;
    cfg.max_failures = ctx_.opts.max_failures;
    cfg.max_partitions = ctx_.opts.max_partitions;
    cfg.max_stalls = ctx_.opts.max_stalls;
    cfg.memo = memo;
    cfg.random = random;
    hook_.rearm(cfg);

    std::unique_ptr<sim::ProtocolDriver> driver;
    if (ctx_.factory) driver = ctx_.factory();
    engine_.rearm(driver.get(), std::move(result_));
    driver_ = std::move(driver);  // the last run's driver is unused now
    result_ = engine_.run();
  }

  const sim::SimResult& result() const { return result_; }
  const PlanHook& hook() const { return hook_; }
  sim::SimResult release_result() { return std::move(result_); }

 private:
  static sim::SimOptions engine_options(const Ctx& ctx,
                                        sim::ScheduleHook* hook) {
    sim::SimOptions so;
    so.nprocs = ctx.scenario.nprocs;
    so.seed = ctx.scenario.seed;
    so.delay = ctx.scenario.delay;
    so.checkpoint_overhead = ctx.scenario.checkpoint_overhead;
    so.checkpoint_latency = ctx.scenario.checkpoint_latency;
    so.keep_snapshots = true;
    so.schedule_hook = hook;
    so.perturb = ctx.opts.perturb;
    return so;
  }

  const Ctx& ctx_;
  PlanHook hook_;
  std::unique_ptr<sim::ProtocolDriver> driver_;
  sim::Engine engine_;
  sim::SimResult result_;
};

}  // namespace detail

namespace {

using detail::Ctx;
using detail::Runner;

/// The shared recovery verdict (sim::check_run, then the CIC index
/// invariant, then sim::check_replay against the baseline), as a
/// reproducible Violation.
std::optional<Violation> evaluate(const Ctx& ctx, const Runner& run) {
  std::optional<sim::Verdict> verdict = sim::check_run(run.result());
  if (!verdict && ctx.opts.check_cic_index) {
    if (auto cic = proto::check_cic_index_invariant(run.result()))
      verdict = sim::Verdict{"cic-index", std::move(*cic)};
  }
  // For deterministic source-specific workloads the final per-process
  // digests are schedule-independent, so every explored schedule —
  // perturbed, failed-and-recovered, or both — must land on the
  // all-defaults baseline state.
  if (!verdict && ctx.opts.check_digest && ctx.baseline.trace.completed)
    verdict = sim::check_replay(run.result(), ctx.baseline);
  if (!verdict) return std::nullopt;
  Violation v;
  v.property = std::move(verdict->property);
  v.detail = std::move(verdict->detail);
  v.plan = trim_plan(taken_of(run.hook().log()));
  v.digest = fold_digest(run.result().trace.final_digest);
  return v;
}

/// Per-shard accumulator, merged in shard-index order.
struct ShardOut {
  long schedules = 0;
  long choice_points = 0;
  long states_recorded = 0;
  long states_pruned = 0;
  long max_plan_length = 0;
  bool budget_exhausted = false;
  long violations_found = 0;
  std::vector<Violation> violations;
};

void note_violation(ShardOut& out, std::optional<Violation> v) {
  if (!v) return;
  ++out.violations_found;
  if (out.violations.size() < kMaxRecordedViolations)
    out.violations.push_back(std::move(*v));
}

/// Expands a finished run into child plans: one per untried alternative
/// at every branchable NEW position. Pushed deepest-position-first so the
/// LIFO stack explores shallow positions (and alternative 1) first.
void push_children(const Ctx& ctx, const std::vector<int>& plan,
                   const std::vector<ChoiceRec>& log,
                   std::vector<std::vector<int>>& stack,
                   long& max_plan_length) {
  const std::size_t limit = std::min(
      log.size(), static_cast<std::size_t>(ctx.opts.max_choice_points));
  for (std::size_t i = limit; i-- > plan.size();) {
    const ChoiceRec& rec = log[i];
    if (rec.arity <= 1) continue;
    std::vector<int> prefix;
    prefix.reserve(i + 1);
    for (std::size_t j = 0; j < i; ++j) prefix.push_back(log[j].taken);
    for (int alt = rec.arity - 1; alt >= 1; --alt) {
      std::vector<int> child = prefix;
      child.push_back(alt);
      max_plan_length = std::max(max_plan_length,
                                 static_cast<long>(child.size()));
      stack.push_back(std::move(child));
    }
  }
}

/// Serial bounded-depth DFS from the given frontier, with its own memo.
ShardOut dfs(const Ctx& ctx, std::vector<std::vector<int>> stack,
             long budget) {
  Memo memo;
  Runner run(ctx);
  ShardOut out;
  while (!stack.empty()) {
    if (out.schedules >= budget) {
      out.budget_exhausted = true;
      break;
    }
    const std::vector<int> plan = std::move(stack.back());
    stack.pop_back();
    run.run(plan, ctx.opts.memoize ? &memo : nullptr, /*random=*/nullptr);
    ++out.schedules;
    out.choice_points += run.hook().total_choice_points();
    out.states_recorded += run.hook().states_recorded();
    if (run.hook().pruned()) ++out.states_pruned;
    note_violation(out, evaluate(ctx, run));
    push_children(ctx, plan, run.hook().log(), stack, out.max_plan_length);
  }
  return out;
}

void merge(ExploreResult& res, const ShardOut& shard, bool& exhausted) {
  res.schedules_run += shard.schedules;
  res.choice_points += shard.choice_points;
  res.states_recorded += shard.states_recorded;
  res.states_pruned += shard.states_pruned;
  res.max_plan_length = std::max(res.max_plan_length,
                                 shard.max_plan_length);
  res.violations_found += shard.violations_found;
  for (const Violation& v : shard.violations)
    if (res.violations.size() < kMaxRecordedViolations)
      res.violations.push_back(v);
  exhausted = exhausted || shard.budget_exhausted;
}

}  // namespace

detail::Ctx::Ctx(const Scenario& scenario_in, const ExploreOptions& opts_in)
    : scenario(scenario_in),
      opts(opts_in),
      program(scenario_in.program()),
      model(program),
      factory(scenario_in.driver_factory()) {
  // An empty plan with no memo and no random draws answers every choice
  // point 0: no perturbation, no injection.
  const std::vector<int> empty;
  Runner run(*this);
  run.run(empty, nullptr, nullptr);
  baseline = run.release_result();
}

std::uint64_t fold_digest(const std::vector<std::uint64_t>& parts) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const std::uint64_t part : parts)
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (part >> (8 * byte)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  return h;
}

ExploreResult explore(const Scenario& scenario, const ExploreOptions& opts) {
  ACFC_CHECK_MSG(opts.max_choice_points >= 1 && opts.max_schedules >= 1,
                 "explore needs a positive horizon and budget");
  const Ctx ctx(scenario, opts);

  ExploreResult res;
  bool exhausted = false;

  if (opts.random_walks > 0) {
    // Independent seeded walks, fanned out like any Monte-Carlo batch:
    // per-walk RNG from the walk INDEX, results merged in index order.
    sim::McOptions mc;
    mc.threads = std::max(1, opts.threads);
    const std::vector<ShardOut> walks = sim::parallel_map(
        opts.random_walks, mc, [&](long i) {
          util::Rng rng(sim::run_seed(opts.strategy_seed, i));
          const std::vector<int> empty;
          Runner run(ctx);
          run.run(empty, nullptr, &rng);
          ShardOut out;
          out.schedules = 1;
          out.choice_points = run.hook().total_choice_points();
          out.max_plan_length = static_cast<long>(
              trim_plan(taken_of(run.hook().log())).size());
          note_violation(out, evaluate(ctx, run));
          return out;
        });
    for (const ShardOut& walk : walks) merge(res, walk, exhausted);
    res.complete = false;  // sampling never certifies the tree
    return res;
  }

  if (opts.threads <= 1) {
    const ShardOut all = dfs(ctx, {std::vector<int>{}}, opts.max_schedules);
    merge(res, all, exhausted);
    res.complete = !exhausted;
    return res;
  }

  // Parallel: run the root serially, then shard its children round-robin
  // across the pool. Each shard is an independent serial DFS with a
  // worker-local memo; merging in shard-index order keeps the result
  // bit-deterministic for a given thread count.
  const std::vector<int> root_plan;
  Runner root(ctx);
  root.run(root_plan, nullptr, nullptr);
  ShardOut root_out;
  root_out.schedules = 1;
  root_out.choice_points = root.hook().total_choice_points();
  note_violation(root_out, evaluate(ctx, root));
  std::vector<std::vector<int>> children;
  push_children(ctx, root_plan, root.hook().log(), children,
                root_out.max_plan_length);
  merge(res, root_out, exhausted);

  const int nshards =
      std::max(1, std::min<int>(opts.threads,
                                static_cast<int>(children.size())));
  std::vector<std::vector<std::vector<int>>> shards(
      static_cast<size_t>(nshards));
  for (size_t i = 0; i < children.size(); ++i)
    shards[i % static_cast<size_t>(nshards)].push_back(
        std::move(children[i]));
  // The root spent one schedule; split the rest exactly (floor plus
  // remainder). A shard left with budget 0 but children to run reports
  // the search incomplete.
  const long remaining = opts.max_schedules - 1;
  sim::McOptions mc;
  mc.threads = opts.threads;
  const std::vector<ShardOut> outs = sim::parallel_map(
      nshards, mc, [&](long s) {
        const long budget =
            remaining / nshards + (s < remaining % nshards ? 1 : 0);
        return dfs(ctx, shards[static_cast<size_t>(s)], budget);
      });
  for (const ShardOut& shard : outs) merge(res, shard, exhausted);
  res.complete = !exhausted;
  return res;
}

Replayer::Replayer(const Scenario& scenario, const ExploreOptions& opts)
    : ctx_(std::make_unique<const Ctx>(scenario, opts)),
      runner_(std::make_unique<Runner>(*ctx_)) {}

Replayer::~Replayer() = default;

ReplayReport Replayer::replay(const std::vector<int>& plan) {
  runner_->run(plan, nullptr, nullptr);
  const sim::SimResult& result = runner_->result();
  ReplayReport rep;
  rep.completed = result.trace.completed;
  rep.digest = fold_digest(result.trace.final_digest);
  rep.stats = result.stats;
  rep.violation = evaluate(*ctx_, *runner_);
  return rep;
}

ReplayReport replay_plan(const Scenario& scenario,
                         const ExploreOptions& opts,
                         const std::vector<int>& plan) {
  return Replayer(scenario, opts).replay(plan);
}

}  // namespace acfc::explore

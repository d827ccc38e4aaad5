#include "explore/explore.h"

#include <algorithm>
#include <utility>

#include "sim/model.h"
#include "sim/montecarlo.h"
#include "trace/analysis.h"
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
  std::vector<std::uint64_t> baseline_digest;
  std::vector<long> baseline_sends;
  std::vector<long> baseline_recvs;
  bool baseline_completed = false;
};

}  // namespace detail

namespace {

using detail::Ctx;

struct RunOut {
  sim::SimResult result;
  std::vector<ChoiceRec> log;
  long total_choice_points = 0;
  int failures_injected = 0;
  bool pruned = false;
  long memo_hits = 0;
  long states_recorded = 0;
};

RunOut run_plan(const Ctx& ctx, const std::vector<int>& plan,
                bool suppress_failures, Memo* memo, util::Rng* random) {
  PlanHook::Config cfg;
  cfg.plan = &plan;
  cfg.max_choice_points = ctx.opts.max_choice_points;
  cfg.max_failures = suppress_failures ? 0 : ctx.opts.max_failures;
  cfg.max_partitions = suppress_failures ? 0 : ctx.opts.max_partitions;
  cfg.max_stalls = suppress_failures ? 0 : ctx.opts.max_stalls;
  cfg.suppress_failures = suppress_failures;
  cfg.memo = memo;
  cfg.random = random;
  PlanHook hook(cfg);

  sim::SimOptions so;
  so.nprocs = ctx.scenario.nprocs;
  so.seed = ctx.scenario.seed;
  so.delay = ctx.scenario.delay;
  so.checkpoint_overhead = ctx.scenario.checkpoint_overhead;
  so.checkpoint_latency = ctx.scenario.checkpoint_latency;
  so.keep_snapshots = true;
  so.schedule_hook = &hook;
  so.perturb = ctx.opts.perturb;

  std::unique_ptr<sim::ProtocolDriver> driver;
  if (ctx.factory) driver = ctx.factory();
  sim::Engine engine(ctx.model, std::move(so), driver.get());

  RunOut out;
  out.result = engine.run();
  out.log = hook.take_log();
  out.total_choice_points = hook.total_choice_points();
  out.failures_injected = hook.failures_injected();
  out.pruned = hook.pruned();
  out.memo_hits = hook.memo_hits();
  out.states_recorded = hook.states_recorded();
  return out;
}

std::optional<std::string> orphan_violation(const sim::SimResult& run,
                                            int nprocs) {
  const auto n = static_cast<size_t>(nprocs);
  for (size_t src = 0; src < n; ++src)
    for (size_t dst = 0; dst < n; ++dst) {
      const long sent = run.final_sends[src * n + dst];
      const long consumed = run.final_recvs[dst * n + src];
      if (consumed > sent)
        return "orphan channel (" + std::to_string(src) + "→" +
               std::to_string(dst) + "): receiver consumed " +
               std::to_string(consumed) + " of " + std::to_string(sent) +
               " sent";
    }
  return std::nullopt;
}

std::optional<Violation> evaluate(const Ctx& ctx, const RunOut& run) {
  const auto violated = [&run](const char* property, std::string detail) {
    Violation v;
    v.property = property;
    v.detail = std::move(detail);
    v.plan = trim_plan(taken_of(run.log));
    v.digest = fold_digest(run.result.trace.final_digest);
    return v;
  };

  if (!run.result.trace.completed)
    return violated("completion",
                    "a process never reached program exit");

  for (const sim::RecoveryRec& rec : run.result.recoveries) {
    const trace::CutAnalysis cut =
        trace::analyze_cut(run.result.trace, rec.cut);
    if (!cut.consistent)
      return violated(
          "cut-consistency",
          "restored recovery line for proc " +
              std::to_string(rec.failed_proc) + " at t=" +
              std::to_string(rec.fail_time) + " has " +
              std::to_string(cut.orphan_msgs.size()) + " orphan msgs");
  }

  if (auto orphan = orphan_violation(run.result, ctx.scenario.nprocs))
    return violated("orphans", std::move(*orphan));

  if (ctx.opts.check_cic_index) {
    if (auto cic = proto::check_cic_index_invariant(run.result))
      return violated("cic-index", std::move(*cic));
  }

  // Digest check: for deterministic source-specific workloads the final
  // per-process digests are schedule-independent, so every explored
  // schedule — perturbed, failed-and-recovered, or both — must land on
  // the all-defaults baseline state.
  if (ctx.opts.check_digest && ctx.baseline_completed) {
    if (run.result.trace.final_digest != ctx.baseline_digest)
      return violated("digest",
                      run.failures_injected > 0
                          ? "recovery replay diverged from the baseline "
                            "final state"
                          : "schedule-dependent final state");
    if (run.result.final_sends != ctx.baseline_sends ||
        run.result.final_recvs != ctx.baseline_recvs)
      return violated("digest", "final channel counters diverged from "
                                "the baseline");
  }
  return std::nullopt;
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

void note_violation(const Ctx& ctx, ShardOut& out,
                    std::optional<Violation> v) {
  if (!v) return;
  ++out.violations_found;
  if (static_cast<int>(out.violations.size()) <
      ctx.opts.max_recorded_violations)
    out.violations.push_back(std::move(*v));
}

/// Expands a finished run into child plans: one per untried alternative
/// at every branchable NEW position. Pushed deepest-position-first so the
/// LIFO stack explores shallow positions (and alternative 1) first.
void push_children(const Ctx& ctx, const std::vector<int>& plan,
                   const RunOut& run, std::vector<std::vector<int>>& stack,
                   long& max_plan_length) {
  const std::size_t limit = std::min(
      run.log.size(),
      static_cast<std::size_t>(ctx.opts.max_choice_points));
  for (std::size_t i = limit; i-- > plan.size();) {
    const ChoiceRec& rec = run.log[i];
    if (rec.arity <= 1) continue;
    std::vector<int> prefix;
    prefix.reserve(i + 1);
    for (std::size_t j = 0; j < i; ++j) prefix.push_back(run.log[j].taken);
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
  ShardOut out;
  while (!stack.empty()) {
    if (out.schedules >= budget) {
      out.budget_exhausted = true;
      break;
    }
    const std::vector<int> plan = std::move(stack.back());
    stack.pop_back();
    const RunOut run = run_plan(ctx, plan, /*suppress_failures=*/false,
                                ctx.opts.memoize ? &memo : nullptr,
                                /*random=*/nullptr);
    ++out.schedules;
    out.choice_points += run.total_choice_points;
    out.states_recorded += run.states_recorded;
    if (run.pruned) ++out.states_pruned;
    note_violation(ctx, out, evaluate(ctx, run));
    push_children(ctx, plan, run, stack, out.max_plan_length);
  }
  return out;
}

void merge(ExploreResult& res, const Ctx& ctx, const ShardOut& shard,
           bool& exhausted) {
  res.schedules_run += shard.schedules;
  res.choice_points += shard.choice_points;
  res.states_recorded += shard.states_recorded;
  res.states_pruned += shard.states_pruned;
  res.max_plan_length = std::max(res.max_plan_length,
                                 shard.max_plan_length);
  res.violations_found += shard.violations_found;
  for (const Violation& v : shard.violations)
    if (static_cast<int>(res.violations.size()) <
        ctx.opts.max_recorded_violations)
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
  const std::vector<int> empty;
  const RunOut baseline =
      run_plan(*this, empty, /*suppress_failures=*/true, nullptr, nullptr);
  baseline_completed = baseline.result.trace.completed;
  baseline_digest = baseline.result.trace.final_digest;
  baseline_sends = baseline.result.final_sends;
  baseline_recvs = baseline.result.final_recvs;
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
          const RunOut run = run_plan(ctx, empty, false, nullptr, &rng);
          ShardOut out;
          out.schedules = 1;
          out.choice_points = run.total_choice_points;
          out.max_plan_length = static_cast<long>(
              trim_plan(taken_of(run.log)).size());
          note_violation(ctx, out, evaluate(ctx, run));
          return out;
        });
    for (const ShardOut& walk : walks) merge(res, ctx, walk, exhausted);
    res.complete = false;  // sampling never certifies the tree
    return res;
  }

  if (opts.threads <= 1) {
    const ShardOut all = dfs(ctx, {std::vector<int>{}}, opts.max_schedules);
    merge(res, ctx, all, exhausted);
    res.complete = !exhausted;
    return res;
  }

  // Parallel: run the root serially, then shard its children round-robin
  // across the pool. Each shard is an independent serial DFS with a
  // worker-local memo; merging in shard-index order keeps the result
  // bit-deterministic for a given thread count.
  const std::vector<int> root_plan;
  const RunOut root = run_plan(ctx, root_plan, false, nullptr, nullptr);
  ShardOut root_out;
  root_out.schedules = 1;
  root_out.choice_points = root.total_choice_points;
  note_violation(ctx, root_out, evaluate(ctx, root));
  std::vector<std::vector<int>> children;
  push_children(ctx, root_plan, root, children, root_out.max_plan_length);
  merge(res, ctx, root_out, exhausted);

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
  for (const ShardOut& shard : outs) merge(res, ctx, shard, exhausted);
  res.complete = !exhausted;
  return res;
}

Replayer::Replayer(const Scenario& scenario, const ExploreOptions& opts)
    : ctx_(std::make_unique<const Ctx>(scenario, opts)) {}

Replayer::~Replayer() = default;

ReplayReport Replayer::replay(const std::vector<int>& plan) const {
  const RunOut run =
      run_plan(*ctx_, plan, /*suppress_failures=*/false, nullptr, nullptr);
  ReplayReport rep;
  rep.completed = run.result.trace.completed;
  rep.digest = fold_digest(run.result.trace.final_digest);
  rep.stats = run.result.stats;
  rep.violation = evaluate(*ctx_, run);
  return rep;
}

ReplayReport replay_plan(const Scenario& scenario,
                         const ExploreOptions& opts,
                         const std::vector<int>& plan) {
  return Replayer(scenario, opts).replay(plan);
}

}  // namespace acfc::explore

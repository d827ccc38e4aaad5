#include "explore/strategy.h"

#include "sim/engine.h"
#include "util/error.h"

namespace acfc::explore {

void PlanHook::rearm(const Config& cfg) {
  cfg_ = cfg;
  log_.clear();
  total_ = 0;
  failures_ = 0;
  partitions_ = 0;
  stalls_ = 0;
  pruned_ = false;
  states_recorded_ = 0;
}

int PlanHook::choose(const sim::ChoicePoint& cp) {
  const auto pos = static_cast<std::size_t>(total_);
  ++total_;
  const std::size_t plan_len =
      cfg_.plan == nullptr ? 0 : cfg_.plan->size();
  const auto horizon = static_cast<std::size_t>(cfg_.max_choice_points);
  const int arity = cp.arity < 1 ? 1 : cp.arity;

  // Injection budgets: once spent, failure / partition / stall points are
  // forced to "don't inject" and are not branchable — but they still
  // consume their position, keeping plans aligned across runs.
  bool injection_off = false;
  switch (cp.kind) {
    case sim::ChoiceKind::kFailurePoint:
      injection_off = failures_ >= cfg_.max_failures;
      break;
    case sim::ChoiceKind::kPartitionPoint:
      injection_off = partitions_ >= cfg_.max_partitions;
      break;
    case sim::ChoiceKind::kStallPoint:
      injection_off = stalls_ >= cfg_.max_stalls;
      break;
    default:
      break;
  }
  int take = 0;
  if (pos < plan_len && !injection_off) {
    take = (*cfg_.plan)[pos];
    if (take < 0) take = 0;
    if (take >= arity) take = arity - 1;
  }

  bool branchable =
      arity > 1 && !injection_off && pos >= plan_len && pos < horizon;

  // Memoization: only at NEW frontier positions. Prefix positions replay
  // a schedule some earlier run chose to expand — pruning there would
  // re-prune the parent's own path. A hit doesn't abort the run (the
  // oracle still checks the default completion); it just stops branching.
  // The key mixes the choice-point kind: failure/partition/stall offers
  // at one event boundary share the engine state, yet each is a distinct
  // search node — keying on the state alone would self-collide there.
  if (cfg_.memo != nullptr && !pruned_ && pos >= plan_len &&
      pos < horizon) {
    ACFC_CHECK_MSG(cp.engine != nullptr, "choice point without engine");
    std::uint64_t h = cp.engine->schedule_state_hash();
    h ^= (static_cast<std::uint64_t>(cp.kind) + 1) *
         0x9e3779b97f4a7c15ULL;
    if (cfg_.memo->insert(h).second)
      ++states_recorded_;
    else
      pruned_ = true;
  }
  if (pruned_) branchable = false;

  if (branchable && cfg_.random != nullptr)
    take = static_cast<int>(cfg_.random->uniform_int(0, arity - 1));

  if (take == 1) {
    if (cp.kind == sim::ChoiceKind::kFailurePoint) ++failures_;
    if (cp.kind == sim::ChoiceKind::kPartitionPoint) ++partitions_;
    if (cp.kind == sim::ChoiceKind::kStallPoint) ++stalls_;
  }

  if (pos < horizon)
    log_.push_back(ChoiceRec{cp.kind, take, branchable ? arity : 1});
  return take;
}

std::vector<int> taken_of(const std::vector<ChoiceRec>& log) {
  std::vector<int> plan;
  plan.reserve(log.size());
  for (const ChoiceRec& rec : log) plan.push_back(rec.taken);
  return plan;
}

std::vector<int> trim_plan(std::vector<int> plan) {
  while (!plan.empty() && plan.back() == 0) plan.pop_back();
  return plan;
}

}  // namespace acfc::explore

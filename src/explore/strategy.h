// Exploration strategy: how one engine run answers the schedule hook.
//
// The explorer encodes a schedule as a CHOICE PLAN — a vector of small
// ints, one per consulted choice point, position-aligned with the order
// the engine consults them (which is deterministic given the answers so
// far). PlanHook replays a plan prefix and answers 0 (the unperturbed
// default) past it, logging every consulted point with the expansion
// arity the DFS controller may branch on. Because EVERY consulted point
// consumes exactly one plan position — branchable or not — plans stay
// position-aligned across runs that share a prefix, which is what makes
// recorded plans replayable and shrinkable.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/schedule_hook.h"
#include "util/rng.h"

namespace acfc::explore {

/// One consulted choice point, as logged by PlanHook.
struct ChoiceRec {
  sim::ChoiceKind kind = sim::ChoiceKind::kTieBreak;
  int taken = 0;  ///< the answer given
  int arity = 1;  ///< alternatives the DFS may expand here (1 = fixed)
};

/// Frontier-state memo: hashes of engine states already expanded
/// somewhere in the search. Worker-local (never shared across threads) so
/// parallel exploration stays deterministic.
using Memo = std::unordered_set<std::uint64_t>;

class PlanHook final : public sim::ScheduleHook {
 public:
  struct Config {
    /// Plan prefix to replay; null means empty (all defaults).
    const std::vector<int>* plan = nullptr;
    /// Branching horizon: points at positions >= this answer 0 and are
    /// never expanded, bounding the search depth (and therefore the
    /// length of any counterexample plan).
    int max_choice_points = 10;
    /// Failure injections allowed per schedule (beyond the plan's).
    int max_failures = 1;
    /// Partition / stall injections allowed per schedule, budgeted like
    /// failures (each injection kind has its own budget).
    int max_partitions = 1;
    int max_stalls = 1;
    /// When set, NEW positions (>= plan size, < horizon) consult the
    /// memo: a state-hash hit marks the run pruned — it still completes
    /// (and is oracle-checked), but records no further branch points.
    Memo* memo = nullptr;
    /// Random-walk mode: new positions answer uniformly at random instead
    /// of 0. Mutually exclusive with memo in practice (walks don't prune).
    util::Rng* random = nullptr;
  };

  explicit PlanHook(const Config& cfg) { rearm(cfg); }

  /// Starts the next run under `cfg`: the log, counters and budgets go
  /// back to empty, and the log keeps its buffer.
  void rearm(const Config& cfg);

  int choose(const sim::ChoicePoint& cp) override;

  /// The per-position log (capped at max_choice_points), valid until the
  /// next rearm().
  const std::vector<ChoiceRec>& log() const { return log_; }
  /// Every consulted point, including those past the horizon.
  long total_choice_points() const { return total_; }
  bool pruned() const { return pruned_; }
  long states_recorded() const { return states_recorded_; }

 private:
  Config cfg_;
  std::vector<ChoiceRec> log_;
  long total_ = 0;
  int failures_ = 0;
  int partitions_ = 0;
  int stalls_ = 0;
  bool pruned_ = false;
  long states_recorded_ = 0;
};

/// The taken-values vector of a log (a replayable plan, untrimmed).
std::vector<int> taken_of(const std::vector<ChoiceRec>& log);

/// Drops trailing zeros — trailing defaults are implied by replay.
std::vector<int> trim_plan(std::vector<int> plan);

}  // namespace acfc::explore

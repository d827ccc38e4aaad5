// Counterexample shrinking: delta debugging over choice plans.
//
// A violating plan found by the DFS can carry incidental choices that
// have nothing to do with the failure. shrink() minimizes it with a
// ddmin-style loop: zero out chunks of the non-default choices (largest
// chunks first), then reduce the surviving values toward the default,
// keeping a trial iff replaying it reproduces the SAME violated property.
// Every accepted trial strictly reduces (non-default count, value sum),
// so the loop terminates; the result is 1-minimal — zeroing any single
// remaining choice loses the violation.
#pragma once

#include "explore/explore.h"

namespace acfc::explore {

struct ShrinkResult {
  Violation minimal;        ///< the shrunk counterexample
  long runs = 0;            ///< replays spent
  long initial_choices = 0; ///< non-default choices before
  long final_choices = 0;   ///< non-default choices after
};

/// Replay budget: shrinking stops early when it runs out.
inline constexpr long kMaxShrinkRuns = 400;

/// Shrinks `violation` (as found under `scenario`/`opts`) to a minimal
/// reproducing plan within kMaxShrinkRuns replays. Deterministic: same
/// inputs → same minimal plan.
ShrinkResult shrink(const Scenario& scenario, const ExploreOptions& opts,
                    const Violation& violation);

}  // namespace acfc::explore

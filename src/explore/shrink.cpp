#include "explore/shrink.h"

#include <algorithm>

namespace acfc::explore {

namespace {

long nondefault_count(const std::vector<int>& plan) {
  long count = 0;
  for (const int v : plan)
    if (v != 0) ++count;
  return count;
}

std::vector<std::size_t> nondefault_positions(const std::vector<int>& plan) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < plan.size(); ++i)
    if (plan[i] != 0) out.push_back(i);
  return out;
}

}  // namespace

ShrinkResult shrink(const Scenario& scenario, const ExploreOptions& opts,
                    const Violation& violation) {
  ShrinkResult out;
  out.minimal = violation;
  out.minimal.plan = trim_plan(out.minimal.plan);
  out.initial_choices = nondefault_count(out.minimal.plan);
  Replayer replayer(scenario, opts);

  // Accept a trial iff it reproduces the same property. The accepted
  // plan is the REPLAY's trimmed taken log (not the trial verbatim), so
  // clamped or ignored positions never survive into the result.
  const auto attempt = [&](std::vector<int> trial) -> bool {
    trial = trim_plan(std::move(trial));
    if (trial == out.minimal.plan) return false;
    if (out.runs >= kMaxShrinkRuns) return false;
    ++out.runs;
    const ReplayReport rep = replayer.replay(trial);
    if (!rep.violation || rep.violation->property != violation.property)
      return false;
    out.minimal = *rep.violation;
    return true;
  };

  bool improved = true;
  while (improved && out.runs < kMaxShrinkRuns) {
    improved = false;

    // Phase 1 (ddmin): zero chunks of the non-default positions, biggest
    // chunks first — one accepted big chunk saves many single replays.
    const std::vector<std::size_t> positions =
        nondefault_positions(out.minimal.plan);
    for (std::size_t chunk = positions.size(); chunk >= 1 && !improved;
         chunk /= 2) {
      for (std::size_t start = 0; start < positions.size();
           start += chunk) {
        std::vector<int> trial = out.minimal.plan;
        const std::size_t stop = std::min(start + chunk, positions.size());
        for (std::size_t k = start; k < stop; ++k)
          trial[positions[k]] = 0;
        if (attempt(std::move(trial))) {
          improved = true;
          break;
        }
      }
      if (chunk == 1) break;
    }
    if (improved) continue;

    // Phase 2: step surviving values toward the default (a tie-break of
    // candidate 2 might reproduce with candidate 1; a 3-quantum delay
    // with 1).
    for (const std::size_t pos : nondefault_positions(out.minimal.plan)) {
      std::vector<int> trial = out.minimal.plan;
      --trial[pos];
      if (attempt(std::move(trial))) {
        improved = true;
        break;
      }
    }
  }

  out.final_choices = nondefault_count(out.minimal.plan);
  return out;
}

}  // namespace acfc::explore

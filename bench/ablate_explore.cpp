// Ablation A8 — schedule-space exploration throughput: schedules/second
// of the bounded-exhaustive search across branching horizons, and what
// state-hash memoization buys (schedules avoided AND wall-clock saved)
// versus the unpruned tree at each depth.
//
// The explorer's cost model is simple: every schedule is a full engine
// run, so throughput is engine-run rate times (1 - pruned fraction). The
// memo column pair makes the trade explicit — hashing every frontier
// state costs a few percent per run and removes whole subtrees. The
// µs/schedule column is the same rate inverted: the per-schedule cost
// (one engine over the search's shared sim::Model) that docs/testing.md
// breaks down.
#include <chrono>
#include <cmath>
#include <iostream>

#include "explore/explore.h"
#include "util/table.h"

int main() {
  using namespace acfc;
  using clock = std::chrono::steady_clock;

  explore::Scenario scenario;
  scenario.workload = "ring";
  scenario.params.iterations = 2;
  scenario.nprocs = 3;

  std::cout << "Ablation A8: exploration throughput (ring n=3, "
               "tie-break x delivery-delay perturbation)\n\n";

  util::Table table({"depth", "memo", "schedules", "pruned", "complete",
                     "wall (ms)", "schedules/s", "us/schedule"});
  for (const int depth : {4, 6, 8}) {
    for (const bool memo : {false, true}) {
      explore::ExploreOptions opts;
      opts.max_choice_points = depth;
      opts.max_schedules = 200000;
      opts.memoize = memo;
      opts.perturb.delay_steps = 2;
      const auto start = clock::now();
      const auto result = explore::explore(scenario, opts);
      const double ms =
          std::chrono::duration<double, std::milli>(clock::now() - start)
              .count();
      const auto schedules = static_cast<double>(result.schedules_run);
      table.add_row({std::to_string(depth), memo ? "on" : "off",
                     std::to_string(result.schedules_run),
                     std::to_string(result.states_pruned),
                     result.complete ? "yes" : "no",
                     util::format_double(ms, 2),
                     std::to_string(std::lround(schedules / (ms / 1e3))),
                     util::format_double(ms * 1e3 / schedules, 3)});
    }
  }
  table.print(std::cout);
  return 0;
}

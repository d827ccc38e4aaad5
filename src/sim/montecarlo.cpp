#include "sim/montecarlo.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/error.h"

namespace acfc::sim {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::uint64_t run_seed(std::uint64_t base_seed, long run_index) {
  // splitmix64 over base ⊕ golden-ratio-spread index: consecutive run
  // indices land in unrelated xoshiro streams after Rng's own seeding.
  std::uint64_t x = base_seed ^
                    (static_cast<std::uint64_t>(run_index) *
                     0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace detail {

void run_indexed(long count, int threads,
                 const std::function<void(long)>& body) {
  ACFC_CHECK_MSG(count >= 0, "negative batch size");
  if (count == 0) return;
  const int workers =
      static_cast<int>(std::min<long>(std::max(1, threads), count));

  if (workers == 1) {
    // Serial reference path — identical iteration order, no pool.
    for (long i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<long> next{0};
  std::mutex error_mu;
  long first_error_index = -1;
  std::exception_ptr first_error;

  auto worker = [&] {
    while (true) {
      const long i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error_index < 0 || i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

std::vector<SimResult> run_batch(const mp::Program& program,
                                 const std::vector<SimOptions>& configs,
                                 const McOptions& opts) {
  const Model model(program);
  return parallel_map(static_cast<long>(configs.size()), opts,
                      [&](long i) {
                        Engine engine(model,
                                      configs[static_cast<std::size_t>(i)]);
                        return engine.run();
                      });
}

std::vector<SimOptions> seed_sweep(const SimOptions& base, int replications) {
  std::vector<SimOptions> configs;
  configs.reserve(static_cast<std::size_t>(std::max(0, replications)));
  for (int i = 0; i < replications; ++i) {
    SimOptions run = base;
    run.seed = run_seed(base.seed, i);
    configs.push_back(std::move(run));
  }
  return configs;
}

McAggregate aggregate(const std::vector<SimResult>& runs) {
  McAggregate agg;
  auto fold = [&agg](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      agg.digest ^= (value >> (i * 8)) & 0xff;
      agg.digest *= 1099511628211ULL;
    }
  };
  double makespan_sum = 0.0;
  for (const SimResult& r : runs) {
    ++agg.runs;
    if (r.trace.completed) ++agg.completed;
    agg.events += r.stats.events_processed;
    agg.app_messages += r.stats.app_messages;
    agg.control_messages += r.stats.control_messages;
    agg.checkpoints +=
        r.stats.statement_checkpoints + r.stats.forced_checkpoints;
    agg.forced_checkpoints += r.stats.forced_checkpoints;
    agg.restarts += r.stats.restarts;
    agg.paused_time += r.stats.paused_time;
    makespan_sum += r.trace.end_time;
    agg.max_makespan = std::max(agg.max_makespan, r.trace.end_time);
    for (const std::uint64_t d : r.trace.final_digest) fold(d);
  }
  if (agg.runs > 0) agg.mean_makespan = makespan_sum / agg.runs;
  return agg;
}

}  // namespace acfc::sim

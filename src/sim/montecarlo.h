// Parallel Monte-Carlo simulation harness.
//
// Every experiment in the reproduction reruns the discrete-event engine
// many times over (seed × nprocs × failure schedule) configurations. Each
// run is completely independent — an Engine owns all of its state and the
// mp::Program is immutable during simulation — so a batch fans out across
// a fixed-size thread pool with zero coordination between runs.
//
// Determinism contract (tested by tests/test_montecarlo.cpp):
//  * per-run seeds derive from the RUN INDEX (run_seed), never from thread
//    identity, scheduling order, or wall-clock time;
//  * workers share no mutable state; each owns an independent Engine;
//  * results land in an index-addressed slot, so the returned vector is in
//    batch order regardless of completion order.
// Consequently a batch executed on 1 thread and on N threads produces
// bit-identical per-run results (execution digests, traces, stats) and
// identical aggregates.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace acfc::sim {

struct McOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int threads = 0;
};

/// Resolves McOptions::threads against the host (always ≥ 1).
int resolve_threads(int requested);

/// Deterministic per-run seed: a splitmix64 mix of the batch base seed and
/// the run index. Two distinct indices give unrelated streams; the same
/// (base, index) pair gives the same seed on every platform and thread.
std::uint64_t run_seed(std::uint64_t base_seed, long run_index);

namespace detail {
/// Runs body(0..count-1), each index exactly once, on a fixed pool.
/// Exceptions propagate: the lowest-indexed failure is rethrown after all
/// workers drain. `body` must be safe to call concurrently for distinct
/// indices.
void run_indexed(long count, int threads,
                 const std::function<void(long)>& body);
}  // namespace detail

/// Generic fan-out: out[i] = fn(i) for i in [0, count), computed on a
/// fixed-size pool. The result type must be default-constructible and
/// movable (SimResult and proto::ProtocolRunResult both are).
template <typename Fn>
auto parallel_map(long count, const McOptions& opts, Fn&& fn)
    -> std::vector<decltype(fn(0L))> {
  std::vector<decltype(fn(0L))> out(static_cast<std::size_t>(count));
  detail::run_indexed(count, resolve_threads(opts.threads),
                      [&](long i) { out[static_cast<std::size_t>(i)] =
                                        fn(i); });
  return out;
}

/// One Engine per configuration; results in configuration order. The
/// program must stay alive and unmutated for the duration of the batch;
/// its sim::Model is built once and shared read-only by every run.
///
/// Per-run-resources rule: anything a config's hooks close over — a
/// store::StableStore, a store::AsyncPersister, capture/cost functions —
/// must be private to that run. Sharing one store (or persister) across
/// configs would interleave ordinals across concurrent engines and race.
/// When runs need live stores, build them inside a parallel_map body (one
/// store + persister + Engine per index) instead of pre-baking them into
/// shared SimOptions; tests/test_async_persist.cpp shows the pattern.
std::vector<SimResult> run_batch(const mp::Program& program,
                                 const std::vector<SimOptions>& configs,
                                 const McOptions& opts = {});

/// Replicates `base` once per run with seed = run_seed(base.seed, i) —
/// the standard seed-sweep batch.
std::vector<SimOptions> seed_sweep(const SimOptions& base, int replications);

/// Order-independent batch summary: every field is accumulated in run-index
/// order over the results vector, so it is invariant under thread count and
/// completion order. The digest folds each run's per-process execution
/// digests and doubles as a whole-batch replay fingerprint.
struct McAggregate {
  long runs = 0;
  long completed = 0;
  long events = 0;
  long app_messages = 0;
  long control_messages = 0;
  long checkpoints = 0;  ///< statement + forced
  long forced_checkpoints = 0;
  long restarts = 0;
  double paused_time = 0.0;
  double mean_makespan = 0.0;
  double max_makespan = 0.0;
  std::uint64_t digest = 1469598103934665603ULL;  ///< FNV-1a offset basis
};

McAggregate aggregate(const std::vector<SimResult>& runs);

/// run_batch with per-run observability. Each run gets its OWN private
/// obs::Registry (the per-run-resources rule — any `obs` pointer already
/// present in a config is overridden); after the batch the per-run
/// snapshots are returned in run order plus their fold, merged serially in
/// RUN-INDEX order. Counter/gauge/histogram merging is associative and
/// commutative and the fold order is fixed, so the merged snapshot — down
/// to its exported bytes — is identical on 1 thread and on N threads
/// (tests/test_obs.cpp pins obs::to_jsonl(merged) to byte equality).
struct ObservedBatch {
  std::vector<SimResult> results;               ///< run order
  std::vector<obs::MetricsSnapshot> snapshots;  ///< run order
  obs::MetricsSnapshot merged;                  ///< run-index-order fold
};

ObservedBatch run_batch_observed(const mp::Program& program,
                                 const std::vector<SimOptions>& configs,
                                 const McOptions& opts = {});

}  // namespace acfc::sim

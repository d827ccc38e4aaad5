// Ablation A6 — asynchronous persistence pipeline micro-benchmarks
// (google-benchmark): the pieces BM_AsyncCapture (ablate_sim_throughput)
// measures end-to-end, isolated one at a time.
//
//   BM_SerializeScratchReuse/0   serialize into a fresh string per take
//   BM_SerializeScratchReuse/1   serialize into one reused scratch buffer
//     The /1 over /0 gap is the sync path's scratch-reuse win
//     (sim::store_capture_fn keeps a per-closure scratch).
//
//   BM_AsyncSubmit/<capacity>    producer-side cost of one submit(): a
//     pooled-snapshot handoff against a live writer thread, across queue
//     capacities {1, 4, 64}. Capacity 1 serializes producer and writer
//     (every take waits — block-on-full backpressure), so its gap to
//     capacity 64 is the price of an undersized queue; 64 is the
//     steady-state cost the engine pays per take. takes/s divides by the
//     MAIN thread's cpu_time: cv-waits cost no cpu, writer cpu excluded.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "sim/engine.h"
#include "sim/snapshot_codec.h"
#include "store/async_persist.h"
#include "store/store.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;

// A representative mid-run snapshot: capture the last take of a short
// checkpointed ring run. Members (vector clock, channel counters, stack)
// are sized like the ones the async pipeline moves in production runs.
sim::VmSnapshot sample_snapshot(int nprocs) {
  benchws::RingParams params;
  params.iterations = 16;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  const mp::Program program = benchws::ring_exchange(params);
  sim::SimOptions opts;
  opts.nprocs = nprocs;
  opts.keep_snapshots = false;
  sim::VmSnapshot snap;
  opts.checkpoint_capture_fn =
      [&snap](int, const sim::VmSnapshot& state) { snap = state; };
  sim::Engine engine(program, opts);
  engine.run();
  return snap;
}

void BM_SerializeScratchReuse(benchmark::State& state) {
  const sim::VmSnapshot snap = sample_snapshot(32);
  const bool reuse = state.range(0) != 0;
  std::string scratch;
  long bytes = 0;
  for (auto _ : state) {
    if (reuse) {
      sim::serialize_snapshot_into(snap, scratch);
      bytes += static_cast<long>(scratch.size());
      benchmark::DoNotOptimize(scratch.data());
    } else {
      const std::string fresh = sim::serialize_snapshot(snap);
      bytes += static_cast<long>(fresh.size());
      benchmark::DoNotOptimize(fresh.data());
    }
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
  state.SetLabel(reuse ? "reused scratch" : "fresh string");
}
BENCHMARK(BM_SerializeScratchReuse)->Arg(0)->Arg(1);

void BM_AsyncSubmit(benchmark::State& state) {
  const sim::VmSnapshot snap = sample_snapshot(32);
  const int capacity = static_cast<int>(state.range(0));
  constexpr int kTakesPerIter = 64;
  long takes = 0;
  for (auto _ : state) {
    store::StableStore stable(store::StorageModel{},
                              store::CheckpointMode::kIncremental, 32);
    store::AsyncPersistOptions popts;
    popts.queue_capacity = capacity;
    store::AsyncPersister persister(stable, popts);
    const auto capture = sim::async_store_capture_fn(persister);
    for (int i = 0; i < kTakesPerIter; ++i) capture(i % 32, snap);
    persister.drain();
    takes += kTakesPerIter;
    benchmark::DoNotOptimize(stable.bytes_stored());
  }
  state.counters["takes/s"] = benchmark::Counter(
      static_cast<double>(takes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AsyncSubmit)->Arg(1)->Arg(4)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

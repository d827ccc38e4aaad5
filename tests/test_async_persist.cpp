// The asynchronous checkpoint-persistence pipeline's determinism contract:
// a store fed by store::AsyncPersister must, after drain(), hold record
// chains byte-identical to synchronous capture — across world sizes,
// queue capacities (including capacity 1 under heavy backpressure),
// storage faults, mid-run rollbacks that consult the store, and parallel
// Monte-Carlo batches. StoreDigestPin pins the store's digest and manifest
// versions on generated programs. The slow tier runs the 200-program
// generated corpus; the whole file is TSan-clean under -DACFC_TSAN (the
// writer thread + read barrier are the interesting part).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mp/generate.h"
#include "sim/engine.h"
#include "sim/montecarlo.h"
#include "sim/snapshot_codec.h"
#include "store/async_persist.h"
#include "store/store.h"
#include "util/checksum.h"
#include "util/error.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;
using store::AsyncPersister;
using store::AsyncPersistOptions;
using store::CheckpointMode;
using store::StableStore;
using store::StorageModel;

StorageModel tight_model(int full_every) {
  StorageModel m;
  m.full_every = full_every;
  return m;
}

mp::Program ring_program(int iterations, double compute = 1.0) {
  benchws::RingParams params;
  params.iterations = iterations;
  params.compute_cost = compute;
  params.checkpoint = true;
  return benchws::ring_exchange(params);
}

/// Byte-level equality of everything a restore could observe. records_of
/// and digest go through the read barrier, so calling this on a store with
/// a live persister implicitly proves the drain path too.
void expect_stores_equal(const StableStore& sync_store,
                         const StableStore& async_store, int nprocs) {
  EXPECT_EQ(sync_store.digest(), async_store.digest());
  for (int p = 0; p < nprocs; ++p) {
    SCOPED_TRACE("proc " + std::to_string(p));
    const auto a = sync_store.records_of(p);
    const auto b = async_store.records_of(p);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE("record " + std::to_string(i));
      EXPECT_EQ(a[i].ordinal, b[i].ordinal);
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].bytes, b[i].bytes);
      EXPECT_EQ(a[i].full_image, b[i].full_image);
      EXPECT_EQ(a[i].checksum, b[i].checksum);
      EXPECT_EQ(a[i].stored_checksum, b[i].stored_checksum);
      EXPECT_EQ(a[i].torn, b[i].torn);
      EXPECT_EQ(a[i].in_manifest, b[i].in_manifest);
      EXPECT_EQ(a[i].encoded, b[i].encoded);
    }
    EXPECT_EQ(sync_store.write_count(p), async_store.write_count(p));
    EXPECT_EQ(sync_store.latest_valid_index(p),
              async_store.latest_valid_index(p));
    const auto sa = sync_store.scan_restore(p);
    const auto sb = async_store.scan_restore(p);
    EXPECT_EQ(sa.ordinal, sb.ordinal);
    EXPECT_EQ(sa.corrupt_skipped, sb.corrupt_skipped);
    EXPECT_EQ(sa.chain_length, sb.chain_length);
    EXPECT_EQ(sync_store.restore_latest_payload(p),
              async_store.restore_latest_payload(p));
  }
}

/// A persist.* counter's count, or a gauge's high-water mark, as the
/// registry holds it now (0 when the metric is absent).
long long persist_metric(const obs::Registry& registry, const char* name) {
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnap* metric = snap.find(name);
  if (metric == nullptr) return 0;
  return metric->kind == obs::MetricKind::kGauge ? metric->high_water
                                                 : metric->count;
}

struct CaptureRun {
  sim::SimResult result;
  std::unique_ptr<StableStore> store;
  /// The persister's persist.* metrics (null for synchronous runs).
  std::unique_ptr<obs::Registry> registry;
};

CaptureRun run_sync(const mp::Program& program, sim::SimOptions opts,
                    CheckpointMode mode, store::StorageFaultPlan faults = {}) {
  CaptureRun out;
  out.store = std::make_unique<StableStore>(tight_model(4), mode,
                                            opts.nprocs, std::move(faults));
  opts.checkpoint_capture_fn = sim::store_capture_fn(*out.store);
  sim::Engine engine(program, opts);
  out.result = engine.run();
  return out;
}

CaptureRun run_async(const mp::Program& program, sim::SimOptions opts,
                     CheckpointMode mode, AsyncPersistOptions popts = {},
                     store::StorageFaultPlan faults = {}) {
  CaptureRun out;
  out.store = std::make_unique<StableStore>(tight_model(4), mode,
                                            opts.nprocs, std::move(faults));
  out.registry = std::make_unique<obs::Registry>();
  popts.obs = out.registry.get();
  {
    AsyncPersister persister(*out.store, popts);
    opts.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
    sim::Engine engine(program, opts);
    out.result = engine.run();
    persister.drain();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Differential equality, tier 1
// ---------------------------------------------------------------------------

TEST(AsyncPersist, RecordsMatchSyncAfterDrain) {
  // The pooled async adapter must reproduce the synchronous store bytes,
  // with and without retained snapshots.
  const mp::Program program = ring_program(10);
  for (const bool keep_snapshots : {true, false}) {
    for (const int n : {2, 4, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (keep_snapshots ? " keep" : " drop") + " snapshots");
      sim::SimOptions opts;
      opts.nprocs = n;
      opts.keep_snapshots = keep_snapshots;
      auto sync = run_sync(program, opts, CheckpointMode::kIncremental);
      auto async = run_async(program, opts, CheckpointMode::kIncremental);
      ASSERT_TRUE(sync.result.trace.completed);
      ASSERT_TRUE(async.result.trace.completed);
      EXPECT_EQ(sync.result.trace.final_digest,
                async.result.trace.final_digest);
      EXPECT_GT(sync.store->write_count(0), 0);
      expect_stores_equal(*sync.store, *async.store, n);
      EXPECT_EQ(persist_metric(*async.registry, "persist.submitted"),
                persist_metric(*async.registry, "persist.persisted"));
    }
  }
}

TEST(AsyncPersist, BackpressureCapacityOneStillIdentical) {
  // Queue capacity 1 on a checkpoint-heavy workload: nearly every take
  // waits for the writer. Ordering and content must be unaffected.
  const mp::Program program = ring_program(24);
  sim::SimOptions opts;
  opts.nprocs = 5;
  AsyncPersistOptions popts;
  popts.queue_capacity = 1;
  auto sync = run_sync(program, opts, CheckpointMode::kIncremental);
  auto async = run_async(program, opts, CheckpointMode::kIncremental, popts);
  expect_stores_equal(*sync.store, *async.store, opts.nprocs);
  const obs::Registry& metrics = *async.registry;
  EXPECT_EQ(persist_metric(metrics, "persist.submitted"),
            persist_metric(metrics, "persist.persisted"));
  EXPECT_LE(persist_metric(metrics, "persist.queue_depth"), 1);
}

TEST(AsyncPersist, BackpressureBlocksTheProducerAndIsCounted) {
  // Deterministic backpressure: capacity 1 and a first job that stalls in
  // serialize. Whichever way the scheduler interleaves, the producer must
  // block at least once before the third submit returns, and all three
  // jobs must still commit in ticket order.
  StableStore store(tight_model(4), CheckpointMode::kFull, 1);
  obs::Registry registry;
  std::atomic<int> serialized{0};
  {
    AsyncPersistOptions popts;
    popts.queue_capacity = 1;
    popts.obs = &registry;
    AsyncPersister persister(store, popts);
    for (int i = 0; i < 3; ++i) {
      persister.submit(0, [i, &serialized](std::string& out) {
        if (i == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        out.assign(8, static_cast<char>('a' + i));
        serialized.fetch_add(1);
      });
    }
    persister.drain();
    EXPECT_EQ(persist_metric(registry, "persist.submitted"), 3);
    EXPECT_EQ(persist_metric(registry, "persist.persisted"), 3);
    EXPECT_GE(persist_metric(registry, "persist.backpressure_waits"), 1);
  }
  EXPECT_EQ(serialized.load(), 3);
  const auto records = store.records_of(0);
  ASSERT_EQ(records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].ordinal, i + 1);
    EXPECT_EQ(store.restore_payload(0, i + 1),
              std::string(8, static_cast<char>('a' + i)));
  }
}

TEST(AsyncPersist, ReadBarrierDrainsBeforeRestore) {
  // No explicit drain: the first read-side store call must itself be the
  // barrier. Run a sizeable workload, then immediately scan/restore.
  const mp::Program program = ring_program(16);
  sim::SimOptions opts;
  opts.nprocs = 4;
  auto sync = run_sync(program, opts, CheckpointMode::kIncremental);

  StableStore store(tight_model(4), CheckpointMode::kIncremental,
                    opts.nprocs);
  obs::Registry registry;
  AsyncPersistOptions popts;
  popts.obs = &registry;
  AsyncPersister persister(store, popts);
  sim::SimOptions aopts = opts;
  aopts.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
  sim::Engine engine(program, aopts);
  const auto result = engine.run();
  ASSERT_TRUE(result.trace.completed);
  // Straight into reads — scan_restore / restore_latest_payload /
  // records_of all pass through the barrier.
  for (int p = 0; p < opts.nprocs; ++p) {
    const auto scan = store.scan_restore(p);
    EXPECT_EQ(scan.ordinal, sync.store->scan_restore(p).ordinal);
    EXPECT_EQ(store.restore_latest_payload(p),
              sync.store->restore_latest_payload(p));
  }
  EXPECT_GT(persist_metric(registry, "persist.submitted"), 0);
  EXPECT_EQ(persist_metric(registry, "persist.submitted"),
            persist_metric(registry, "persist.persisted"));
  expect_stores_equal(*sync.store, store, opts.nprocs);
}

TEST(AsyncPersist, StorageFaultsComposeWithAsyncWrites) {
  // Faults land on write ordinals inside the store, so deferring the
  // writes must not move which records rot or how scans fall back.
  const mp::Program program = ring_program(10);
  sim::SimOptions opts;
  opts.nprocs = 4;
  store::StorageFaultPlan plan;
  plan.faults.push_back(store::StorageFaultPlan::torn_write(0, 2));
  plan.faults.push_back(store::StorageFaultPlan::bit_flip(1, 1));
  plan.faults.push_back(store::StorageFaultPlan::stale_manifest(2, 3));
  plan.faults.push_back(store::StorageFaultPlan::lost_manifest_entry(3, 2));
  auto sync = run_sync(program, opts, CheckpointMode::kIncremental, plan);
  auto async = run_async(program, opts, CheckpointMode::kIncremental,
                         AsyncPersistOptions{}, plan);
  expect_stores_equal(*sync.store, *async.store, opts.nprocs);
  // The plan must actually rot something for this test to mean anything:
  // the torn / bit-flipped / manifest-lost records fail verification in
  // the async store just as they do in the sync one (the faults target
  // write ordinals, which the persister preserves).
  EXPECT_FALSE(async.store->verify_record(0, 2));
  EXPECT_FALSE(async.store->verify_record(1, 1));
  EXPECT_FALSE(async.store->verify_record(3, 2));
  // The stale manifest at (2, 3) healed when take 4 republished.
  EXPECT_TRUE(async.store->verify_record(2, 3));
}

TEST(AsyncPersist, EngineRollbackDrainsBeforeVerify) {
  // The strongest mid-run ordering property: a failure triggers rollback,
  // rollback consults checkpoint_verify_fn, and the verify must see every
  // take that preceded the crash — the read barrier drains the queue from
  // inside the engine's event loop. A corrupt record forces degraded
  // selection so the verify answers actually matter.
  const mp::Program program = ring_program(12, 2.0);
  sim::SimOptions base;
  base.nprocs = 4;
  base.checkpoint_overhead = 0.3;
  base.recovery_overhead = 1.0;
  base.fault_plan.faults.push_back(sim::FaultPlan::after_checkpoint(1, 3));
  store::StorageFaultPlan plan;
  plan.faults.push_back(store::StorageFaultPlan::bit_flip(1, 2));

  // Synchronous reference.
  StableStore sync_store(tight_model(4), CheckpointMode::kIncremental,
                         base.nprocs, plan);
  sim::SimOptions sopts = base;
  sopts.checkpoint_capture_fn = sim::store_capture_fn(sync_store);
  sopts.checkpoint_verify_fn = store::checkpoint_verify_fn(sync_store);
  sim::Engine sync_engine(program, sopts);
  const auto sync_result = sync_engine.run();

  // Async under test, via the pooled adapter, with keep_snapshots on
  // (recovery needs retained images).
  StableStore async_store(tight_model(4), CheckpointMode::kIncremental,
                          base.nprocs, plan);
  AsyncPersister persister(async_store, AsyncPersistOptions{});
  sim::SimOptions aopts = base;
  aopts.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
  aopts.checkpoint_verify_fn = store::checkpoint_verify_fn(async_store);
  sim::Engine async_engine(program, aopts);
  const auto async_result = async_engine.run();

  ASSERT_FALSE(sync_result.recoveries.empty());
  ASSERT_EQ(sync_result.recoveries.size(), async_result.recoveries.size());
  EXPECT_EQ(sync_result.trace.final_digest, async_result.trace.final_digest);
  EXPECT_EQ(sync_result.trace.end_time, async_result.trace.end_time);
  for (std::size_t i = 0; i < sync_result.recoveries.size(); ++i) {
    EXPECT_EQ(sync_result.recoveries[i].fail_time,
              async_result.recoveries[i].fail_time);
    EXPECT_EQ(sync_result.recoveries[i].degraded,
              async_result.recoveries[i].degraded);
    EXPECT_EQ(sync_result.recoveries[i].corrupt_records_skipped,
              async_result.recoveries[i].corrupt_records_skipped);
  }
  persister.drain();
  expect_stores_equal(sync_store, async_store, base.nprocs);
}

TEST(AsyncPersist, OutOfRangeProcThrowsOnTheCallerThread) {
  // A bad process id is the caller's error: both write paths reject it
  // where it was made — never on the writer thread, where an escaping
  // exception would terminate the program.
  StableStore sync_store(tight_model(4), CheckpointMode::kIncremental, 2);
  StableStore async_store(tight_model(4), CheckpointMode::kIncremental, 2);
  AsyncPersister persister(async_store);
  for (const int proc : {-1, sync_store.nprocs()}) {
    SCOPED_TRACE("proc " + std::to_string(proc));
    EXPECT_THROW(sync_store.write_payload(proc, "state", 0.0),
                 util::InternalError);
    EXPECT_THROW(sync_store.write_checkpoint(proc, 100, 0.0),
                 util::InternalError);
    EXPECT_THROW(persister.submit(
                     proc, [](std::string& out) { out.assign("state"); }),
                 util::InternalError);
  }
  // The rejected writes left no trace: the next take is still ordinal 1.
  persister.submit(1, [](std::string& out) { out.assign("state"); });
  EXPECT_EQ(sync_store.write_count(0) + sync_store.write_count(1), 0);
  EXPECT_EQ(async_store.write_count(1), 1);
  EXPECT_EQ(async_store.restore_payload(1, 1), "state");
}

TEST(AsyncPersist, ThrowingSerializeSurfacesOnTheCallerThread) {
  // A serialize closure that throws runs on the writer thread. The error
  // must not end the program there: drain(), the store's read barrier and
  // every later submit() rethrow it, and the store keeps only the jobs
  // submitted before the failing one.
  StableStore store(tight_model(4), CheckpointMode::kFull, 1);
  obs::Registry registry;
  // The first job holds the writer on `gate` until all three are queued:
  // without it the writer can fail the second job before the third
  // submit(), which then (correctly) rethrows instead of queueing.
  std::promise<void> gate_promise;
  auto gate = gate_promise.get_future().share();
  {
    AsyncPersistOptions popts;
    popts.obs = &registry;
    AsyncPersister persister(store, popts);
    persister.submit(0, [gate](std::string& out) {
      gate.wait();
      out.assign("first");
    });
    persister.submit(0, [](std::string&) {
      throw std::runtime_error("serialize failed");
    });
    persister.submit(0, [](std::string& out) { out.assign("third"); });
    gate_promise.set_value();
    try {
      persister.drain();
      ADD_FAILURE() << "drain() returned after a failed job";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "serialize failed");
    }
    EXPECT_THROW(persister.drain(), std::runtime_error);
    EXPECT_THROW(store.write_count(0), std::runtime_error);
    EXPECT_THROW(persister.submit(
                     0, [](std::string& out) { out.assign("fourth"); }),
                 std::runtime_error);
  }  // the destructor swallows the error it never rethrew
  EXPECT_EQ(persist_metric(registry, "persist.submitted"), 3);
  EXPECT_EQ(persist_metric(registry, "persist.persisted"), 1);
  const auto records = store.records_of(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ordinal, 1);
  EXPECT_EQ(store.restore_payload(0, 1), "first");
}

TEST(AsyncPersist, ScratchSerializerMatchesFreshAllocations) {
  // The reusable-scratch path (what both capture fns use) must encode
  // byte-for-byte what a fresh serialize_snapshot returns.
  const mp::Program program = ring_program(6);
  std::vector<sim::VmSnapshot> snapshots;
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.checkpoint_capture_fn = [&snapshots](int,
                                            const sim::VmSnapshot& state) {
    snapshots.push_back(state);
  };
  sim::Engine engine(program, opts);
  engine.run();
  ASSERT_FALSE(snapshots.empty());
  std::string scratch = "stale contents from a previous take";
  for (const auto& snap : snapshots) {
    sim::serialize_snapshot_into(snap, scratch);
    EXPECT_EQ(scratch, sim::serialize_snapshot(snap));
  }
}

// ---------------------------------------------------------------------------
// Generated corpus + parallel batches (slow tier)
// ---------------------------------------------------------------------------

// Same corpus recipe as test_scheduler.cpp / test_fastpath.cpp.
mp::Program corpus_program(int index, bool misalign) {
  mp::GenerateOptions opts;
  opts.seed = 0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(index);
  opts.segments = 6 + (index % 5) * 4;
  opts.misalign_checkpoints = misalign;
  return mp::generate_program(opts);
}

sim::SimOptions corpus_options(int index) {
  sim::SimOptions opts;
  opts.nprocs = 3 + index % 6;
  opts.seed = 1000 + static_cast<std::uint64_t>(index);
  opts.compute_jitter = (index % 3) * 0.2;
  opts.checkpoint_overhead = 0.25;
  opts.recovery_overhead = 1.0;
  // Every third program crashes mid-run, so re-takes after rollback flow
  // through the persister too (write ordinals keep counting across
  // incarnations).
  switch (index % 6) {
    case 0:
      opts.fault_plan.faults.push_back(
          sim::FaultPlan::after_checkpoint(index % opts.nprocs, 1));
      break;
    case 3:
      opts.fault_plan.faults.push_back(
          sim::FaultPlan::after_events(index % opts.nprocs, 200));
      break;
    default:
      break;
  }
  return opts;
}

store::StorageFaultPlan corpus_faults(int index, int nprocs) {
  store::StorageFaultPlan plan;
  const int proc = index % nprocs;
  const long ordinal = 1 + index % 3;
  switch (index % 4 == 0 ? index % 16 / 4 : -1) {
    case 0:
      plan.faults.push_back(store::StorageFaultPlan::torn_write(proc, ordinal));
      break;
    case 1:
      plan.faults.push_back(store::StorageFaultPlan::bit_flip(proc, ordinal));
      break;
    case 2:
      plan.faults.push_back(
          store::StorageFaultPlan::lost_manifest_entry(proc, ordinal));
      break;
    case 3:
      plan.faults.push_back(
          store::StorageFaultPlan::stale_manifest(proc, ordinal));
      break;
    default:
      break;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Store pins: digest() and manifest versions on generated programs, values
// recorded before the store dropped manifest batching and multi-writer
// commits (every byte it holds must stay the same)
// ---------------------------------------------------------------------------

/// One fault of every kind, plus a stale manifest on P0's first write: it
/// heals at P0's second write, or stays stale when P0 writes only once.
store::StorageFaultPlan every_fault_kind(int nprocs) {
  store::StorageFaultPlan plan;
  plan.faults = {store::StorageFaultPlan::stale_manifest(0, 1),
                 store::StorageFaultPlan::torn_write(0, 2),
                 store::StorageFaultPlan::bit_flip(1, 1),
                 store::StorageFaultPlan::lost_manifest_entry(2, 3),
                 store::StorageFaultPlan::stale_manifest(nprocs - 1, 2)};
  return plan;
}

/// Runs 12 generated programs × {full, incremental} × {no faults, every
/// fault kind} through `capture` (which builds the store and runs the
/// engine) and folds each store's digest() and every manifest_of(p).version
/// into one value; `dump` gets the per-run values for bisecting.
template <typename Capture>
std::uint64_t store_pin(Capture capture, std::ostringstream& dump) {
  std::vector<std::uint64_t> fold;
  dump << "index mode faults digest versions\n";
  for (int index = 0; index < 12; ++index) {
    const mp::Program program = corpus_program(index, index % 2 == 1);
    const sim::SimOptions opts = corpus_options(index);
    for (const auto mode :
         {CheckpointMode::kFull, CheckpointMode::kIncremental}) {
      for (const bool faulty : {false, true}) {
        const std::unique_ptr<StableStore> stable = capture(
            program, opts, mode,
            faulty ? every_fault_kind(opts.nprocs) : store::StorageFaultPlan{});
        fold.push_back(stable->digest());
        dump << index << ' ' << (mode == CheckpointMode::kFull ? "full" : "inc")
             << ' ' << faulty << " 0x" << std::hex << stable->digest()
             << std::dec;
        for (int p = 0; p < opts.nprocs; ++p) {
          const long version = stable->manifest_of(p).version;
          fold.push_back(static_cast<std::uint64_t>(version));
          dump << ' ' << version;
        }
        dump << '\n';
      }
    }
  }
  return util::checksum64(fold.data(), fold.size() * sizeof(std::uint64_t));
}

/// Payload records (store_capture_fn and the persister) pin to this.
constexpr std::uint64_t kPayloadStorePin = 0x61095447cee7bd37ULL;

auto async_capture(int capacity) {
  return [capacity](const mp::Program& program, const sim::SimOptions& opts,
                    CheckpointMode mode, store::StorageFaultPlan faults) {
    AsyncPersistOptions popts;
    popts.queue_capacity = capacity;
    return run_async(program, opts, mode, popts, std::move(faults)).store;
  };
}

TEST(StoreDigestPin, SyncCapture) {
  std::ostringstream dump;
  const std::uint64_t pin = store_pin(
      [](const mp::Program& program, const sim::SimOptions& opts,
         CheckpointMode mode, store::StorageFaultPlan faults) {
        return run_sync(program, opts, mode, std::move(faults)).store;
      },
      dump);
  EXPECT_EQ(pin, kPayloadStorePin) << dump.str();
}

TEST(StoreDigestPin, AsyncCaptureCapacityOne) {
  std::ostringstream dump;
  EXPECT_EQ(store_pin(async_capture(1), dump), kPayloadStorePin) << dump.str();
}

TEST(StoreDigestPin, AsyncCaptureCapacitySixtyFour) {
  std::ostringstream dump;
  EXPECT_EQ(store_pin(async_capture(64), dump), kPayloadStorePin)
      << dump.str();
}

TEST(StoreDigestPin, ByteCountWritesThroughCheckpointCostFn) {
  // write_checkpoint's checksum-only records, fed by the engine's cost hook.
  std::ostringstream dump;
  const std::uint64_t pin = store_pin(
      [](const mp::Program& program, sim::SimOptions opts,
         CheckpointMode mode, store::StorageFaultPlan faults) {
        auto stable = std::make_unique<StableStore>(
            tight_model(4), mode, opts.nprocs, std::move(faults));
        opts.checkpoint_cost_fn = store::checkpoint_cost_fn(
            *stable, [](int proc) { return 200'000L + 10'000L * proc; });
        sim::Engine engine(program, opts);
        engine.run();
        return stable;
      },
      dump);
  EXPECT_EQ(pin, 0x9e2f110835609d62ULL) << dump.str();
}

TEST(AsyncPersistCorpusSlow, TwoHundredProgramDifferential) {
  int programs = 0;
  for (int index = 0; index < 100; ++index) {
    for (const bool misalign : {false, true}) {
      const mp::Program program = corpus_program(index, misalign);
      const sim::SimOptions opts = corpus_options(index);
      const auto mode = index % 3 == 0 ? CheckpointMode::kFull
                                       : CheckpointMode::kIncremental;
      AsyncPersistOptions popts;
      popts.queue_capacity = 1 << (index % 4 * 2);  // 1, 4, 16, 64
      SCOPED_TRACE("index=" + std::to_string(index) +
                   " misalign=" + std::to_string(misalign));
      auto sync =
          run_sync(program, opts, mode, corpus_faults(index, opts.nprocs));
      auto async = run_async(program, opts, mode, popts,
                             corpus_faults(index, opts.nprocs));
      EXPECT_EQ(sync.result.trace.final_digest,
                async.result.trace.final_digest);
      EXPECT_EQ(sync.store->digest(), async.store->digest());
      ++programs;
    }
  }
  EXPECT_GE(programs, 200);
}

TEST(AsyncPersistParallelSlow, RunBatchWithPerRunPersistersIsBitIdentical) {
  // One store + persister + engine per run, fanned over the Monte-Carlo
  // pool: the parallel batch must reproduce the serial batch bit-for-bit
  // (store digests AND execution digests), and be TSan-clean.
  const mp::Program program = ring_program(8);
  struct RunDigests {
    std::uint64_t store = 0;
    std::vector<std::uint64_t> exec;
    bool completed = false;
  };
  auto one_run = [&program](long index) {
    sim::SimOptions opts = corpus_options(static_cast<int>(index));
    opts.seed = sim::run_seed(7, index);
    StableStore store(tight_model(4), CheckpointMode::kIncremental,
                      opts.nprocs);
    RunDigests out;
    {
      AsyncPersistOptions popts;
      popts.queue_capacity = 4;
      AsyncPersister persister(store, popts);
      opts.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
      sim::Engine engine(program, opts);
      const auto result = engine.run();
      out.exec = result.trace.final_digest;
      out.completed = result.trace.completed;
    }
    out.store = store.digest();
    return out;
  };
  const long kRuns = 24;
  const auto serial = sim::parallel_map(kRuns, sim::McOptions{1}, one_run);
  const auto parallel = sim::parallel_map(kRuns, sim::McOptions{4}, one_run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_TRUE(serial[i].completed);
    EXPECT_EQ(serial[i].store, parallel[i].store);
    EXPECT_EQ(serial[i].exec, parallel[i].exec);
  }
}

// ---------------------------------------------------------------------------
// Observability: queue-depth / backpressure metrics with EXACT counts
// ---------------------------------------------------------------------------

TEST(AsyncPersist, ObsMetricsMatchACapacityOneBlockingScenarioExactly) {
  // Gate-controlled serialize closures make the schedule deterministic, so
  // the persist.* metrics have exact expected values, not just bounds:
  //   * submit j0 — queue empty, no wait; the writer pops it immediately
  //     and parks inside its serialize on `gate` (signalling `started`);
  //   * submit j1 — the queue is empty again (j0 left it), no wait;
  //   * submit j2 from a helper thread — the queue holds j1 and the writer
  //     is parked, so this is the one and only backpressure wait;
  //   * open the gate only after the wait is observed in the registry,
  //     then everything drains.
  StableStore store(tight_model(4), CheckpointMode::kFull, 1);
  obs::Registry registry;
  std::promise<void> started_promise;
  std::promise<void> gate_promise;
  auto started = started_promise.get_future();
  auto gate = gate_promise.get_future().share();
  {
    AsyncPersistOptions popts;
    popts.queue_capacity = 1;
    popts.obs = &registry;
    AsyncPersister persister(store, popts);

    persister.submit(0, [&started_promise, gate](std::string& out) {
      started_promise.set_value();
      gate.wait();
      out.assign(4, 'a');
    });
    started.wait();  // the writer has popped j0: the queue is empty

    persister.submit(0, [](std::string& out) { out.assign(4, 'b'); });

    std::thread blocked_producer([&persister] {
      persister.submit(0, [](std::string& out) { out.assign(4, 'c'); });
    });
    // The wait counter is incremented before the producer sleeps, so this
    // poll observes the block without racing it.
    while (persist_metric(registry, "persist.backpressure_waits") < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    gate_promise.set_value();
    blocked_producer.join();
    persister.drain();
  }

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnap* submitted = snap.find("persist.submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->count, 3);
  EXPECT_EQ(snap.find("persist.persisted")->count, 3);
  // Exactly j2's submit waited.
  EXPECT_EQ(snap.find("persist.backpressure_waits")->count, 1);
  const obs::MetricSnap* depth = snap.find("persist.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->high_water, 1);  // capacity is the ceiling
  EXPECT_EQ(depth->value, 0);       // fully drained at teardown
  // The block-time metric is the layer's one WALL-time value (excluded
  // from byte-identical comparisons); here the producer really blocked,
  // so it must be positive.
  EXPECT_GT(snap.find("persist.backpressure_block_ns")->count, 0);

  ASSERT_EQ(store.records_of(0).size(), 3u);
  EXPECT_EQ(store.restore_payload(0, 1), "aaaa");
  EXPECT_EQ(store.restore_payload(0, 2), "bbbb");
  EXPECT_EQ(store.restore_payload(0, 3), "cccc");
}

}  // namespace

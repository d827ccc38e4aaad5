// Asynchronous checkpoint-persistence pipeline: serialization, delta
// encoding, checksumming, and manifest publication off the simulation
// critical path.
//
// The synchronous capture path charges the full serialize + ACFD-encode +
// XXH64 + publish cost to the simulated process at every checkpoint take.
// AsyncPersister moves that work to one background writer thread: the take
// path calls submit() with a serialize closure and returns immediately. In
// practice the closure comes from sim::async_store_capture_fn, the engine's
// one capture hook: it copies the take into a pooled VmSnapshot (copy-
// assignment into a recycled snapshot, so a steady-state take allocates
// nothing but still costs a copy of the VM state) that the writer
// serializes and hands back to the pool. The writer drains a bounded FIFO
// queue, serializes into a reusable scratch buffer, and commits to the
// StableStore in submission order — the order it pops the queue in.
// Take ordinals, delta bases, and record chains are therefore exactly what
// a synchronous run would have produced.
//
// Backpressure: the queue is bounded by queue_capacity; when it is full,
// submit() blocks until the writer frees a slot, so memory stays bounded by
// queue_capacity pending snapshots and ordering can never be traded away
// under load.
//
// Errors: an exception on the writer (a throwing serialize closure, a
// failed store write) is saved, never escapes the thread. That job and
// every later one are marked done without committing, and drain() and
// submit() rethrow the saved exception on the caller's thread.
//
// Determinism contract (tests/test_async_persist.cpp):
//  * after drain(), the backing store's record chains are byte-identical
//    to synchronous capture — proven differentially over the generated
//    program corpus, serial and parallel, with and without storage faults;
//  * the persister installs a read barrier on the store, so ANY read-side
//    store operation (restore, scan_restore, verify, GC, digest, record
//    accessors) transparently drains first. A mid-run rollback that
//    consults store::checkpoint_verify_fn always sees every take that
//    happened before the failure, exactly as the synchronous path does.
//
// One persister serves one StableStore and one Engine run; for parallel
// Monte-Carlo batches give every run its own store + persister pair (the
// per-run-resources rule of sim::run_batch).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "store/store.h"

namespace acfc::store {

struct AsyncPersistOptions {
  /// Bounded queue depth; submit() blocks while the queue holds this many
  /// jobs (block-on-full backpressure).
  int queue_capacity = 64;
  /// Observability sink (docs/observability.md); nullptr ⇒ inert. The
  /// persister publishes `persist.*` metrics: submitted/persisted
  /// counters, queue-depth gauge (high-water), backpressure waits, and
  /// backpressure block time in wall-clock nanoseconds. Block time is the
  /// one WALL-time metric in the catalog — exclude it from byte-identical
  /// cross-run comparisons (everything else here is deterministic).
  obs::Registry* obs = nullptr;
};

/// Move-only type-erased `void(std::string& out)` with inline storage.
/// submit() runs on the simulation critical path at every checkpoint take;
/// a std::function closing over a snapshot pointer would heap-allocate per
/// take (a smart-pointer capture defeats libstdc++'s small-object path), so
/// this wrapper stores the closure in place. Oversized captures are a
/// compile error — the intended payload is a pooled snapshot and its pool
/// handle plus little else.
class SerializeFn {
 public:
  SerializeFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SerializeFn>>>
  SerializeFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "SerializeFn capture too large for inline storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    new (buf_) Fn(std::forward<F>(f));
    call_ = [](void* p, std::string& out) { (*static_cast<Fn*>(p))(out); };
    relocate_ = [](void* dst, void* src) {
      new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    };
    destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
  }

  SerializeFn(SerializeFn&& other) noexcept { move_from(other); }
  SerializeFn& operator=(SerializeFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SerializeFn(const SerializeFn&) = delete;
  SerializeFn& operator=(const SerializeFn&) = delete;
  ~SerializeFn() { reset(); }

  void operator()(std::string& out) { call_(buf_, out); }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  static constexpr std::size_t kCapacity = 48;

  void move_from(SerializeFn& other) {
    if (!other.call_) return;
    other.relocate_(buf_, other.buf_);
    call_ = std::exchange(other.call_, nullptr);
    relocate_ = std::exchange(other.relocate_, nullptr);
    destroy_ = std::exchange(other.destroy_, nullptr);
  }
  void reset() {
    if (destroy_) destroy_(buf_);
    call_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  void (*call_)(void*, std::string&) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

class AsyncPersister {
 public:
  /// `store` must outlive the persister. While attached, every store write
  /// must flow through submit() — mixing direct write_payload calls with
  /// pending async jobs would interleave ordinals nondeterministically.
  AsyncPersister(StableStore& store, AsyncPersistOptions opts = {});
  /// Waits for every job, detaches the read barrier, and joins the writer.
  /// Never throws: call drain() first to learn of a writer error.
  ~AsyncPersister();

  AsyncPersister(const AsyncPersister&) = delete;
  AsyncPersister& operator=(const AsyncPersister&) = delete;

  /// Enqueues one checkpoint take for `proc`. Jobs commit to the store in
  /// submit order with a per-store sequence number as the write time,
  /// matching the synchronous sim::store_capture_fn counter. Blocks while
  /// the queue is at capacity. Single producer: one simulation thread.
  /// `serialize` fills `out` (already cleared) with the payload bytes; it
  /// runs on the writer thread and must not touch the store or the
  /// persister. A `proc` outside the store throws here, on the caller's
  /// thread, and so does a writer error (see drain).
  void submit(int proc, SerializeFn serialize);

  /// Barrier: returns once every submitted job is done. Also reachable
  /// implicitly through the store's read barrier. If a job threw on the
  /// writer (its serialize closure or the store write), that job and every
  /// later one are done without committing, so the store holds a prefix of
  /// the submissions in commit order, and drain() — like every later
  /// submit() — rethrows the first such exception on the caller's thread.
  void drain();

 private:
  struct Job {
    int proc = -1;
    long ticket = 0;  ///< submission order == commit order == write time
    SerializeFn serialize;
  };

  /// Cached metric handles (all null without a registry).
  struct ObsHandles {
    obs::Counter* submitted = nullptr;
    obs::Counter* persisted = nullptr;
    obs::Counter* backpressure_waits = nullptr;
    obs::Counter* backpressure_block_ns = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  void writer_loop();
  /// Waits until every job submitted before the call is done.
  void wait_done();

  /// Jobs the writer claims from the queue per lock acquisition. Batching
  /// shrinks how often the writer holds mu_, which is what the producer's
  /// submit() contends with — on a single core a writer descheduled inside
  /// its critical section stalls the simulation thread for a full futex
  /// round-trip. A batch is a FIFO prefix, so commit order is unaffected.
  static constexpr int kPopBatch = 32;

  StableStore& store_;
  AsyncPersistOptions opts_;

  // Queue state (producer side) and done state (writer side) live under
  // separate mutexes so the per-take submit() only ever contends with the
  // writer's brief batch-pop, never with its commit bookkeeping.
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< writer: queue non-empty or stop
  std::condition_variable space_cv_;  ///< producer: drained to half capacity
  std::deque<Job> queue_;
  long next_ticket_ = 0;  ///< tickets handed out (== jobs submitted)
  bool stop_ = false;
  /// True while the producer sleeps in submit()'s backpressure wait. The
  /// writer skips the space_cv_ notify entirely unless someone is waiting
  /// AND the queue has drained to the hysteresis low-water mark (half
  /// capacity) — one producer wake-up per capacity/2 freed slots instead
  /// of one futex round-trip per slot.
  bool producer_waiting_ = false;
  /// The first exception a job threw on the writer; once set, the writer
  /// skips every later job.
  std::exception_ptr error_;
  ObsHandles obs_;

  std::mutex done_mu_;
  std::condition_variable done_cv_;  ///< drain(): done_ advanced
  long done_ = 0;  ///< jobs committed, or skipped after a writer error

  std::thread writer_;
};

}  // namespace acfc::store

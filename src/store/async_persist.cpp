#include "store/async_persist.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "util/error.h"

namespace acfc::store {

AsyncPersister::AsyncPersister(StableStore& store, AsyncPersistOptions opts)
    : store_(store), opts_(opts) {
  ACFC_CHECK_MSG(opts_.queue_capacity >= 1, "queue capacity must be >= 1");
  if (opts_.obs != nullptr) {
    obs::Registry& reg = *opts_.obs;
    obs_.submitted = &reg.counter("persist.submitted", {"jobs", "persist"});
    obs_.persisted = &reg.counter("persist.persisted", {"jobs", "persist"});
    obs_.backpressure_waits =
        &reg.counter("persist.backpressure_waits", {"waits", "persist"});
    obs_.backpressure_block_ns =
        &reg.counter("persist.backpressure_block_ns", {"ns", "persist"});
    obs_.queue_depth =
        &reg.gauge("persist.queue_depth", {"jobs", "persist"});
  }
  // Readers (restore / scan / verify / GC) transparently wait for every
  // pending write before observing the store. The barrier runs on the
  // reader's thread, never on the writer, so it cannot self-deadlock.
  store_.set_read_barrier([this] { drain(); });
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncPersister::~AsyncPersister() {
  wait_done();
  store_.set_read_barrier(nullptr);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  writer_.join();
}

void AsyncPersister::submit(int proc, SerializeFn serialize) {
  // Checked here: on the writer thread the error could only terminate.
  ACFC_CHECK_MSG(proc >= 0 && proc < store_.nprocs(),
                 "submit names a process outside the store");
  std::unique_lock<std::mutex> lock(mu_);
  ACFC_CHECK_MSG(!stop_, "submit after shutdown");
  if (error_) std::rethrow_exception(error_);
  if (queue_.size() >= static_cast<std::size_t>(opts_.queue_capacity)) {
    // Block-on-full backpressure, with hysteresis: wait until the queue
    // has drained to HALF capacity, not just below it. Waking per freed
    // slot would cost the producer a futex round-trip per take once the
    // writer falls behind; waking at the half-way mark amortizes one
    // sleep/wake over capacity/2 takes while memory stays bounded by
    // queue_capacity jobs either way.
    if (obs_.backpressure_waits != nullptr) obs_.backpressure_waits->inc();
    const auto block_start = obs_.backpressure_block_ns != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    producer_waiting_ = true;
    space_cv_.wait(lock, [this] {
      return queue_.size() <=
             static_cast<std::size_t>(opts_.queue_capacity / 2);
    });
    producer_waiting_ = false;
    if (obs_.backpressure_block_ns != nullptr)
      obs_.backpressure_block_ns->inc(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - block_start)
              .count());
  }
  const bool was_empty = queue_.empty();
  Job job;
  job.proc = proc;
  job.ticket = next_ticket_++;
  job.serialize = std::move(serialize);
  queue_.push_back(std::move(job));
  if (obs_.submitted != nullptr) {
    obs_.submitted->inc();
    obs_.queue_depth->set(static_cast<long long>(queue_.size()));
  }
  lock.unlock();
  // The writer only waits on work_cv_ while the queue is empty (its wait
  // predicate), so a push onto a non-empty queue can have no one to wake —
  // skipping the notify keeps the per-take critical path futex-free.
  if (was_empty) work_cv_.notify_one();
}

void AsyncPersister::drain() {
  wait_done();
  const std::lock_guard<std::mutex> lock(mu_);
  if (error_) std::rethrow_exception(error_);
}

void AsyncPersister::wait_done() {
  // "Every job submitted before this call is done": snapshot the ticket
  // horizon, then wait for the writer to reach it.
  long target;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    target = next_ticket_;
  }
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] { return done_ >= target; });
}

void AsyncPersister::writer_loop() {
  // Scratch buffer reused across jobs: after warm-up a serialize costs
  // zero allocations on the writer side too.
  std::string scratch;
  std::vector<Job> batch;
  batch.reserve(kPopBatch);
  bool failed = false;  // writer-side copy of error_ != nullptr
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty()) return;  // stop_ and fully drained
      const std::size_t take =
          std::min<std::size_t>(kPopBatch, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      // Wake a blocked producer only once the hysteresis low-water mark is
      // reached (see submit); checking under the lock keeps it exact.
      const bool wake =
          producer_waiting_ &&
          queue_.size() <= static_cast<std::size_t>(opts_.queue_capacity / 2);
      if (obs_.queue_depth != nullptr)
        obs_.queue_depth->set(static_cast<long long>(queue_.size()));
      lock.unlock();
      if (wake) space_cv_.notify_one();
    }

    // One writer popping a FIFO commits in submit order. The done_mu_
    // hand-off publishes the store's memory to post-drain readers. After
    // the first failed job every later one is skipped, so the store keeps
    // a prefix of the submissions and the error reaches the producer.
    for (Job& job : batch) {
      if (!failed) {
        try {
          scratch.clear();
          job.serialize(scratch);
          store_.write_payload(job.proc, scratch,
                               static_cast<double>(job.ticket));
          if (obs_.persisted != nullptr) obs_.persisted->inc();
        } catch (...) {
          failed = true;
          const std::lock_guard<std::mutex> lock(mu_);
          error_ = std::current_exception();
        }
      }
      {
        const std::lock_guard<std::mutex> lock(done_mu_);
        ++done_;
      }
      done_cv_.notify_all();
    }
    batch.clear();
  }
}

}  // namespace acfc::store

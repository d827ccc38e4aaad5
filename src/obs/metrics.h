// Deterministic observability: the metric registry.
//
// Three metric kinds, all integer-valued so exports are byte-stable with
// no floating-point formatting in the loop:
//   * Counter   — monotone event tally. Hot-path increments are a single
//                 relaxed fetch_add on a per-thread shard; value() merges
//                 the shards at read time. Sums are associative and
//                 commutative, so the merged total is independent of which
//                 thread landed on which shard — the property that makes
//                 a multi-writer run's totals deterministic.
//   * Gauge     — a level (queue depth, buffer occupancy) with a
//                 high-water mark. set()/add() are relaxed; the high-water
//                 mark is maintained with a CAS-max.
//   * Histogram — log-bucketed distribution: value v lands in bucket
//                 bit_width(v) (v ≤ 0 in bucket 0), i.e. bucket i ≥ 1
//                 covers [2^(i-1), 2^i). kBuckets-1 saturates: anything
//                 ≥ 2^(kBuckets-2) lands there rather than overflowing.
//                 Buckets are sharded like counters.
//
// Registration (Registry::counter/gauge/histogram) is mutex-guarded and
// returns a stable reference — call it once at wiring time and keep the
// handle; increments through the handle never take a lock. Names carry a
// dotted layer prefix ("engine.", "calqueue.", "store.", "transport.",
// "persist.") — docs/observability.md is the catalog.
//
// snapshot() freezes the registry into plain integers, sorted by metric
// name; merge() folds snapshots (counters add, gauges add values and max
// high-waters, histograms add per-bucket). Both are deterministic
// functions of the recorded totals, so per-run snapshots merged in
// run-index order are byte-identical however many threads produced them
// (sim::run_batch_observed relies on this).
//
// Compile-time gate: building with -DACFC_OBS=0 turns every mutation into
// a no-op and snapshot() into an empty result while keeping the whole API
// compilable — instrumentation sites need no #ifdefs. Runtime gate: every
// consumer takes a Registry* and treats nullptr as "inert".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"

#ifndef ACFC_OBS
#define ACFC_OBS 1
#endif

namespace acfc::obs {

/// Registration metadata, surfaced by exporters and docs tooling.
struct MetricMeta {
  std::string_view unit;   ///< "events", "bytes", "us", ...
  std::string_view layer;  ///< "engine", "store", "transport", ...
};

namespace detail {

inline constexpr int kShards = 8;

/// Stable per-thread shard index in [0, kShards): assigned round-robin on
/// first use so concurrent writers spread across cache lines.
int shard_index();

/// One cache line per shard so concurrent increments never false-share.
struct alignas(64) ShardCell {
  std::atomic<long long> v{0};
};

}  // namespace detail

class Counter {
 public:
  void inc(long long n = 1) {
#if ACFC_OBS
    cells_[static_cast<std::size_t>(detail::shard_index())].v.fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  long long value() const {
#if ACFC_OBS
    long long total = 0;
    for (const auto& cell : cells_)
      total += cell.v.load(std::memory_order_relaxed);
    return total;
#else
    return 0;
#endif
  }

 private:
#if ACFC_OBS
  detail::ShardCell cells_[detail::kShards];
#endif
};

class Gauge {
 public:
  void set(long long v) {
#if ACFC_OBS
    value_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
#else
    (void)v;
#endif
  }

  void add(long long d) {
#if ACFC_OBS
    raise_high_water(value_.fetch_add(d, std::memory_order_relaxed) + d);
#else
    (void)d;
#endif
  }

  long long value() const {
#if ACFC_OBS
    return value_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

  long long high_water() const {
#if ACFC_OBS
    return high_water_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

 private:
#if ACFC_OBS
  void raise_high_water(long long v) {
    long long seen = high_water_.load(std::memory_order_relaxed);
    while (v > seen &&
           !high_water_.compare_exchange_weak(seen, v,
                                              std::memory_order_relaxed)) {
    }
  }

  std::atomic<long long> value_{0};
  std::atomic<long long> high_water_{0};
#endif
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index of `v`: 0 for v ≤ 0, otherwise bit_width(v) saturated
  /// at kBuckets-1. Bucket i ≥ 1 covers [2^(i-1), 2^i).
  static int bucket_of(long long v) {
    if (v <= 0) return 0;
    int width = 0;
    auto u = static_cast<unsigned long long>(v);
    while (u != 0) {
      ++width;
      u >>= 1;
    }
    return width < kBuckets ? width : kBuckets - 1;
  }

  void record(long long v) {
#if ACFC_OBS
    auto& shard = cells_[static_cast<std::size_t>(detail::shard_index())];
    shard.buckets[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  long long count() const {
#if ACFC_OBS
    long long total = 0;
    for (const auto& shard : cells_)
      for (const auto& bucket : shard.buckets)
        total += bucket.load(std::memory_order_relaxed);
    return total;
#else
    return 0;
#endif
  }

  long long sum() const {
#if ACFC_OBS
    long long total = 0;
    for (const auto& shard : cells_)
      total += shard.sum.load(std::memory_order_relaxed);
    return total;
#else
    return 0;
#endif
  }

  long long bucket_count(int bucket) const {
#if ACFC_OBS
    if (bucket < 0 || bucket >= kBuckets) return 0;
    long long total = 0;
    for (const auto& shard : cells_)
      total += shard.buckets[static_cast<std::size_t>(bucket)].load(
          std::memory_order_relaxed);
    return total;
#else
    (void)bucket;
    return 0;
#endif
  }

 private:
#if ACFC_OBS
  struct alignas(64) Shard {
    std::atomic<long long> buckets[kBuckets]{};
    std::atomic<long long> sum{0};
  };
  Shard cells_[detail::kShards];
#endif
};

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

/// A metric frozen to plain integers. For counters only `count` is used;
/// gauges use `value` + `high_water`; histograms `count`, `sum`, and
/// `buckets` (trailing zero buckets trimmed so exports stay compact).
struct MetricSnap {
  MetricKind kind = MetricKind::kCounter;
  std::string unit;
  std::string layer;
  long long count = 0;
  long long value = 0;
  long long high_water = 0;
  long long sum = 0;
  std::vector<long long> buckets;

  bool operator==(const MetricSnap&) const = default;
};

struct MetricsSnapshot {
  /// Sorted by name — the deterministic export and merge order.
  std::vector<std::pair<std::string, MetricSnap>> metrics;
  /// Spans in emission order (single-threaded emitters make this
  /// deterministic; multi-threaded emitters are sorted at export).
  std::vector<SpanRec> spans;

  const MetricSnap* find(std::string_view name) const;
};

/// Folds `from` into `into`: counters add, gauges add values and take the
/// max high-water, histograms add counts/sums/buckets; spans concatenate.
/// Associative and commutative on the metric maps, so any fold order over
/// per-run snapshots yields the same bytes — run-index order is used by
/// convention.
void merge_into(MetricsSnapshot& into, const MetricsSnapshot& from);

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One registry per observed scope (per simulation run, per store). All
/// mutation paths are thread-safe; registration is mutex-guarded, metric
/// updates through handles are lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, MetricMeta meta = {});
  Gauge& gauge(std::string_view name, MetricMeta meta = {});
  Histogram& histogram(std::string_view name, MetricMeta meta = {});

  /// Records a closed span (thread-safe; engine spans come from the one
  /// simulation thread and keep their emission order).
  void emit_span(std::string_view name, int track, double t_begin,
                 double t_end, int depth = 0);

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    MetricMeta meta;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, MetricKind kind, MetricMeta meta);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<SpanRec> spans_;
};

}  // namespace acfc::obs

// Deterministic observability: the metric registry.
//
// Three metric kinds, all integer-valued so exports are byte-stable with
// no floating-point formatting in the loop:
//   * Counter   — monotone event tally: one relaxed atomic fetch_add per
//                 increment, exact under concurrent writers.
//   * Gauge     — a level (queue depth, buffer occupancy) with a
//                 high-water mark. set()/add() are relaxed; the high-water
//                 mark is maintained with a CAS-max.
//   * Histogram — log-bucketed distribution: value v lands in bucket
//                 bit_width(v) (v ≤ 0 in bucket 0), i.e. bucket i ≥ 1
//                 covers [2^(i-1), 2^i). kBuckets-1 saturates: anything
//                 ≥ 2^(kBuckets-2) lands there rather than overflowing.
//
// Registration (Registry::counter/gauge/histogram) is mutex-guarded and
// returns a stable reference — call it once at wiring time and keep the
// handle; increments through the handle never take a lock. Names carry a
// dotted layer prefix ("engine.", "calqueue.", "store.", "transport.",
// "persist.") — docs/observability.md is the catalog.
//
// snapshot() freezes the registry into plain integers, sorted by metric
// name, so identical recorded totals export to identical bytes.
//
// Every consumer takes a Registry* and treats nullptr as "inert": an
// uninstrumented run pays one pointer test per site.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace acfc::obs {

/// Registration metadata, surfaced by exporters and docs tooling.
struct MetricMeta {
  std::string_view unit;   ///< "events", "bytes", "us", ...
  std::string_view layer;  ///< "engine", "store", "transport", ...
};

/// One closed span in the caller's clock domain (seconds). `track` is the
/// lane it renders on in the trace viewer (a process id in engine spans).
struct SpanRec {
  std::string name;
  int track = 0;
  double t_begin = 0.0;
  double t_end = 0.0;

  bool operator==(const SpanRec&) const = default;
};

class Counter {
 public:
  void inc(long long n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

class Gauge {
 public:
  void set(long long v) {
    value_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }

  void add(long long d) {
    raise_high_water(value_.fetch_add(d, std::memory_order_relaxed) + d);
  }

  long long value() const { return value_.load(std::memory_order_relaxed); }

  long long high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(long long v) {
    long long seen = high_water_.load(std::memory_order_relaxed);
    while (v > seen &&
           !high_water_.compare_exchange_weak(seen, v,
                                              std::memory_order_relaxed)) {
    }
  }

  std::atomic<long long> value_{0};
  std::atomic<long long> high_water_{0};
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
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  long long count() const {
    long long total = 0;
    for (const auto& bucket : buckets_)
      total += bucket.load(std::memory_order_relaxed);
    return total;
  }

  long long sum() const { return sum_.load(std::memory_order_relaxed); }

  long long bucket_count(int bucket) const {
    if (bucket < 0 || bucket >= kBuckets) return 0;
    return buckets_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<long long> buckets_[kBuckets]{};
  std::atomic<long long> sum_{0};
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
  /// Sorted by name — the deterministic export order.
  std::vector<std::pair<std::string, MetricSnap>> metrics;
  /// Spans in emission order (single-threaded emitters make this
  /// deterministic; multi-threaded emitters are sorted at export).
  std::vector<SpanRec> spans;

  const MetricSnap* find(std::string_view name) const;
};

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
                 double t_end);

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

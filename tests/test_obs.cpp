// Tests for the deterministic observability layer (src/obs/):
//   * metric primitive semantics — counter shard-merge, gauge high-water,
//     histogram log-bucket boundaries and saturation;
//   * snapshot/merge algebra — name-sorted freeze, associative and
//     commutative folds, trailing-bucket trimming;
//   * scoped spans — RAII emission, per-thread nesting depth, inert when
//     the registry pointer is null;
//   * exporters — JSON-lines round-trip, chrome://tracing validity (via
//     the repo's own trace::parse_json), byte determinism;
//   * sim::run_batch_observed — parallel vs serial merged snapshots are
//     byte-identical (the tentpole determinism claim);
//   * a multi-writer hammer that gives TSan the sharded registry;
//   * the metric-catalog drift gate: every metric a fully instrumented
//     run registers has a docs/observability.md row with its kind and
//     unit, and every row names a registered metric.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/montecarlo.h"
#include "sim/snapshot_codec.h"
#include "sim/supervisor.h"
#include "store/async_persist.h"
#include "store/store.h"
#include "trace/json.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;

// Most tests here assert on recorded values, which a -DACFC_OBS=OFF
// build intentionally discards; they skip there. Tests of pure functions
// (bucket_of), inertness, and parser robustness run in both builds.
#if ACFC_OBS
#define ACFC_REQUIRE_OBS() (void)0
#else
#define ACFC_REQUIRE_OBS() \
  GTEST_SKIP() << "observability compiled out (ACFC_OBS=0)"
#endif

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

TEST(ObsCounter, StartsAtZeroAndAccumulates) {
  ACFC_REQUIRE_OBS();
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  ACFC_REQUIRE_OBS();
  obs::Registry registry;
  obs::Counter& c = registry.counter("hammer.counter");
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  for (auto& t : pool) t.join();
  // Shard assignment is per-thread and arbitrary; the merged total is not.
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kIncs);
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

TEST(ObsGauge, TracksValueAndHighWater) {
  ACFC_REQUIRE_OBS();
  obs::Gauge g;
  g.set(5);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.high_water(), 5);
  g.add(10);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.high_water(), 12);
  g.add(-12);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.high_water(), 12);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreBitWidths) {
  // v ≤ 0 → bucket 0; otherwise bucket bit_width(v): bucket i ≥ 1 covers
  // [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucket_of(-7), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 4);
  EXPECT_EQ(obs::Histogram::bucket_of((1LL << 20) - 1), 20);
  EXPECT_EQ(obs::Histogram::bucket_of(1LL << 20), 21);
}

TEST(ObsHistogram, HugeValuesSaturateInTheLastBucket) {
  ACFC_REQUIRE_OBS();
  const int last = obs::Histogram::kBuckets - 1;
  EXPECT_EQ(obs::Histogram::bucket_of(std::numeric_limits<long long>::max()),
            last);
  obs::Histogram h;
  h.record(std::numeric_limits<long long>::max());      // bit width 63
  h.record(std::numeric_limits<long long>::max() - 1);  // bit width 63
  h.record(std::numeric_limits<long long>::max() / 2);  // width 62: below
  EXPECT_EQ(h.bucket_count(last), 2);
  EXPECT_EQ(h.bucket_count(last - 1), 1);
  EXPECT_EQ(h.count(), 3);
}

TEST(ObsHistogram, RecordTracksCountSumAndBuckets) {
  ACFC_REQUIRE_OBS();
  obs::Histogram h;
  h.record(1);
  h.record(3);
  h.record(3);
  h.record(100);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 107);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 2);
  EXPECT_EQ(h.bucket_count(7), 1);  // 100 ∈ [64, 128)
  EXPECT_EQ(h.bucket_count(3), 0);
}

// ---------------------------------------------------------------------------
// Registry + snapshot
// ---------------------------------------------------------------------------

TEST(ObsRegistry, SameNameReturnsTheSameHandle) {
  ACFC_REQUIRE_OBS();
  obs::Registry registry;
  obs::Counter& a = registry.counter("x.count", {"events", "engine"});
  obs::Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(ObsRegistry, SnapshotIsNameSortedWithMetaAndTrimmedBuckets) {
  ACFC_REQUIRE_OBS();
  obs::Registry registry;
  registry.counter("z.last", {"events", "engine"}).inc(9);
  registry.gauge("a.first", {"jobs", "persist"}).set(4);
  obs::Histogram& h = registry.histogram("m.mid", {"us", "store"});
  h.record(3);  // bucket 2: buckets trim to length 3

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].first, "a.first");
  EXPECT_EQ(snap.metrics[1].first, "m.mid");
  EXPECT_EQ(snap.metrics[2].first, "z.last");

  const obs::MetricSnap* gauge = snap.find("a.first");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, obs::MetricKind::kGauge);
  EXPECT_EQ(gauge->layer, "persist");
  EXPECT_EQ(gauge->unit, "jobs");
  EXPECT_EQ(gauge->value, 4);
  EXPECT_EQ(gauge->high_water, 4);

  const obs::MetricSnap* hist = snap.find("m.mid");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), 3u);  // trailing zero buckets trimmed
  EXPECT_EQ(hist->buckets[2], 1);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsMerge, CountersAddGaugesMaxHighWaterHistogramsFold) {
  ACFC_REQUIRE_OBS();
  obs::Registry r1;
  r1.counter("c").inc(10);
  r1.gauge("g").set(7);
  r1.histogram("h").record(1);

  obs::Registry r2;
  r2.counter("c").inc(5);
  r2.gauge("g").set(3);
  r2.histogram("h").record(100);
  r2.counter("only2").inc(1);

  obs::MetricsSnapshot merged = r1.snapshot();
  obs::merge_into(merged, r2.snapshot());

  EXPECT_EQ(merged.find("c")->count, 15);
  EXPECT_EQ(merged.find("g")->value, 10);       // levels add
  EXPECT_EQ(merged.find("g")->high_water, 7);   // high-waters max
  EXPECT_EQ(merged.find("h")->count, 2);
  EXPECT_EQ(merged.find("h")->sum, 101);
  ASSERT_EQ(merged.find("h")->buckets.size(), 8u);  // widened to r2's
  EXPECT_EQ(merged.find("h")->buckets[1], 1);
  EXPECT_EQ(merged.find("h")->buckets[7], 1);
  EXPECT_EQ(merged.find("only2")->count, 1);
}

TEST(ObsMerge, FoldIsAssociativeAndCommutativeOnMetrics) {
  ACFC_REQUIRE_OBS();
  const auto make = [](long long c, long long g, long long v) {
    obs::Registry r;
    r.counter("c").inc(c);
    r.gauge("g").set(g);
    r.histogram("h").record(v);
    return r.snapshot();
  };
  const obs::MetricsSnapshot a = make(1, 10, 2);
  const obs::MetricsSnapshot b = make(2, 5, 70);
  const obs::MetricsSnapshot c = make(4, 20, 1000);

  obs::MetricsSnapshot left;  // (a ⊕ b) ⊕ c
  obs::merge_into(left, a);
  obs::merge_into(left, b);
  obs::merge_into(left, c);

  obs::MetricsSnapshot right;  // a ⊕ (b ⊕ c), then reordered folds
  obs::MetricsSnapshot bc;
  obs::merge_into(bc, b);
  obs::merge_into(bc, c);
  obs::merge_into(right, a);
  obs::merge_into(right, bc);
  EXPECT_EQ(left.metrics, right.metrics);

  obs::MetricsSnapshot rev;  // c ⊕ b ⊕ a
  obs::merge_into(rev, c);
  obs::merge_into(rev, b);
  obs::merge_into(rev, a);
  EXPECT_EQ(left.metrics, rev.metrics);
  EXPECT_EQ(obs::to_jsonl(left), obs::to_jsonl(rev));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST(ObsSpan, ScopedSpanEmitsClosedIntervalWithDepth) {
  ACFC_REQUIRE_OBS();
  obs::Registry registry;
  double now = 1.0;
  const auto clock = [&now] { return now; };
  {
    obs::ScopedSpan outer(&registry, "outer", 3, clock);
    now = 2.0;
    {
      obs::ScopedSpan inner(&registry, "inner", 3, clock);
      now = 3.0;
    }
    now = 4.0;
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  // Inner closes first (RAII order).
  EXPECT_EQ(snap.spans[0], (obs::SpanRec{"inner", 3, 2.0, 3.0, 1}));
  EXPECT_EQ(snap.spans[1], (obs::SpanRec{"outer", 3, 1.0, 4.0, 0}));
}

TEST(ObsSpan, NullRegistryIsInertAndNeverReadsTheClock) {
  int clock_calls = 0;
  {
    obs::ScopedSpan span(nullptr, "ghost", 0, [&clock_calls] {
      ++clock_calls;
      return 0.0;
    });
  }
  EXPECT_EQ(clock_calls, 0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

obs::MetricsSnapshot sample_snapshot() {
  obs::Registry registry;
  registry.counter("engine.events", {"events", "engine"}).inc(123);
  registry.gauge("persist.queue_depth", {"jobs", "persist"}).set(2);
  obs::Histogram& h = registry.histogram("store.bytes", {"bytes", "store"});
  h.record(100);
  h.record(5000);
  registry.emit_span("checkpoint", 1, 0.5, 1.25);
  registry.emit_span("rollback", 0, 2.0, 2.5, 1);
  return registry.snapshot();
}

TEST(ObsExport, JsonlRoundTripsExactly) {
  ACFC_REQUIRE_OBS();
  const obs::MetricsSnapshot snap = sample_snapshot();
  const std::string text = obs::to_jsonl(snap);
  const auto back = obs::snapshot_from_jsonl(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->metrics, snap.metrics);
  // Span times in the sample are whole microseconds, so the µs-integer
  // wire format reproduces them exactly (spans come back export-sorted).
  ASSERT_EQ(back->spans.size(), snap.spans.size());
  EXPECT_EQ(back->spans[0], snap.spans[0]);
  EXPECT_EQ(back->spans[1], snap.spans[1]);
  // And the round-trip is a fixed point at the byte level.
  EXPECT_EQ(obs::to_jsonl(*back), text);
}

TEST(ObsExport, JsonlIsByteDeterministicAcrossIdenticalRegistries) {
  EXPECT_EQ(obs::to_jsonl(sample_snapshot()),
            obs::to_jsonl(sample_snapshot()));
}

TEST(ObsExport, JsonlSkipsUnknownLinesAndRejectsMalformed) {
  const std::string text = obs::to_jsonl(sample_snapshot());
  const auto with_unknown = obs::snapshot_from_jsonl(
      "{\"future_record\":1}\n" + text + "\n\n");
  ASSERT_TRUE(with_unknown.has_value());
  EXPECT_EQ(with_unknown->metrics, sample_snapshot().metrics);

  EXPECT_FALSE(obs::snapshot_from_jsonl("{\"metric\":\"x\"").has_value());
  EXPECT_FALSE(obs::snapshot_from_jsonl("not json at all\n").has_value());
  EXPECT_FALSE(
      obs::snapshot_from_jsonl("{\"metric\":\"x\",\"kind\":\"widget\"}\n")
          .has_value());
}

TEST(ObsExport, ChromeTraceIsValidJsonWithSpanAndCounterEvents) {
  ACFC_REQUIRE_OBS();
  const std::string text = obs::to_chrome_trace(sample_snapshot());
  const auto doc = trace::parse_json(text);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, trace::Json::Kind::kObject);
  const auto& top = *doc->object;
  ASSERT_TRUE(top.count("traceEvents"));
  const auto& events = *top.at("traceEvents").array;
  // 2 spans ("X") + 3 metrics ("C").
  ASSERT_EQ(events.size(), 5u);
  int xs = 0, cs = 0;
  for (const auto& ev : events) {
    const auto& e = *ev.object;
    const std::string ph = e.at("ph").string;
    ASSERT_TRUE(e.count("name"));
    ASSERT_TRUE(e.count("ts"));
    if (ph == "X") {
      ++xs;
      ASSERT_TRUE(e.count("dur"));
    } else if (ph == "C") {
      ++cs;
      ASSERT_TRUE(e.count("args"));
    }
  }
  EXPECT_EQ(xs, 2);
  EXPECT_EQ(cs, 3);
}

TEST(ObsExport, ChromeTraceGoldenBytes) {
  ACFC_REQUIRE_OBS();
  // Pins the exact wire format: any byte-level change to the exporter is
  // a deliberate format bump, not an accident.
  obs::Registry registry;
  registry.counter("c", {"events", "engine"}).inc(7);
  registry.emit_span("take", 2, 0.0, 0.001, 0);
  EXPECT_EQ(
      obs::to_chrome_trace(registry.snapshot()),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"take\",\"ph\":\"X\",\"cat\":\"sim\",\"pid\":0,\"tid\":2,"
      "\"ts\":0,\"dur\":1000,\"args\":{\"depth\":0}},"
      "{\"name\":\"c\",\"ph\":\"C\",\"cat\":\"metrics\",\"pid\":0,\"tid\":0,"
      "\"ts\":0,\"args\":{\"value\":7}}]}");
}

// ---------------------------------------------------------------------------
// Instrumented engine runs + parallel ≡ serial aggregation
// ---------------------------------------------------------------------------

mp::Program ring_program() {
  benchws::RingParams params;
  params.iterations = 6;
  params.checkpoint = true;
  return benchws::ring_exchange(params);
}

TEST(ObsEngine, InstrumentedRunExportsEngineAndCalqueueLayers) {
  ACFC_REQUIRE_OBS();
  const mp::Program program = ring_program();
  obs::Registry registry;
  sim::SimOptions opts;
  opts.nprocs = 4;
  opts.obs = &registry;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 25.0)};
  sim::Engine engine(program, opts);
  const sim::SimResult result = engine.run();

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnap* events = snap.find("engine.events_processed");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->count, result.stats.events_processed);
  const obs::MetricSnap* ckpts = snap.find("engine.checkpoints_statement");
  ASSERT_NE(ckpts, nullptr);
  EXPECT_EQ(ckpts->count, result.stats.statement_checkpoints);
  // The queue holds the same events at every step as the calendar queue
  // it replaced did; this high-water mark was recorded from that queue.
  const obs::MetricSnap* high_water = snap.find("calqueue.size_high_water");
  ASSERT_NE(high_water, nullptr);
  EXPECT_EQ(high_water->value, 8);
  EXPECT_EQ(high_water->high_water, 8);
  // The injected failure leaves a rollback span and a recovery counter.
  EXPECT_EQ(snap.find("engine.recoveries")->count, 1);
  bool has_rollback_span = false;
  for (const auto& span : snap.spans)
    has_rollback_span |= span.name == "rollback";
  EXPECT_TRUE(has_rollback_span);
}

TEST(ObsEngine, DetachedRegistryStaysEmpty) {
  const mp::Program program = ring_program();
  sim::SimOptions opts;
  opts.nprocs = 4;
  ASSERT_EQ(opts.obs, nullptr);  // the shipping default
  sim::Engine engine(program, opts);
  engine.run();
  // Nothing to assert on a registry that was never attached — the claim
  // is cheapness, pinned by bench BM_ObsOverhead/0; here we only pin that
  // running without obs is the default and works.
}

TEST(ObsBatch, ParallelAndSerialMergedSnapshotsAreByteIdentical) {
  ACFC_REQUIRE_OBS();
  const mp::Program program = ring_program();
  sim::SimOptions base;
  base.nprocs = 4;
  base.compute_jitter = 0.2;
  const std::vector<sim::SimOptions> configs = sim::seed_sweep(base, 8);

  const sim::ObservedBatch serial =
      sim::run_batch_observed(program, configs, sim::McOptions{1});
  const sim::ObservedBatch parallel =
      sim::run_batch_observed(program, configs, sim::McOptions{4});

  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].stats.events_processed,
              parallel.results[i].stats.events_processed);
    EXPECT_EQ(serial.snapshots[i].metrics, parallel.snapshots[i].metrics);
  }
  EXPECT_EQ(obs::to_jsonl(serial.merged), obs::to_jsonl(parallel.merged));
  // And the merged fold actually aggregated: events equal the batch total.
  long long total = 0;
  for (const auto& r : serial.results) total += r.stats.events_processed;
  EXPECT_EQ(serial.merged.find("engine.events_processed")->count, total);
}

// ---------------------------------------------------------------------------
// Multi-writer hammer (TSan coverage of shards, gauge CAS, registration)
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentWritersAndSnapshotsRaceCleanly) {
  ACFC_REQUIRE_OBS();
  obs::Registry registry;
  constexpr int kThreads = 6;
  constexpr int kOps = 4000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&registry, t] {
      // Every thread registers the same names (exercising the guarded
      // registration path) and hammers all three kinds.
      obs::Counter& c = registry.counter("war.counter");
      obs::Gauge& g = registry.gauge("war.gauge");
      obs::Histogram& h = registry.histogram("war.hist");
      for (int i = 0; i < kOps; ++i) {
        c.inc();
        g.set(i % 97);
        h.record(i);
        if (i % 512 == 0) registry.emit_span("war.span", t, 0.0, 1.0);
      }
    });
  // Concurrent reader: snapshots taken mid-hammer must be well-formed
  // (monotone counter reads, never torn strings), though not final.
  long long last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    if (const obs::MetricSnap* c = snap.find("war.counter")) {
      EXPECT_GE(c->count, last_seen);
      last_seen = c->count;
    }
  }
  for (auto& t : pool) t.join();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("war.counter")->count,
            static_cast<long long>(kThreads) * kOps);
  EXPECT_EQ(snap.find("war.hist")->count,
            static_cast<long long>(kThreads) * kOps);
  EXPECT_LE(snap.find("war.gauge")->high_water, 96);
}

// ---------------------------------------------------------------------------
// Metric-catalog drift gate (docs/observability.md)
// ---------------------------------------------------------------------------

struct CatalogRow {
  std::string kind;
  std::string unit;
};

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(' ');
  if (first == std::string::npos) return "";
  return text.substr(first, text.find_last_not_of(' ') - first + 1);
}

std::vector<std::string> split(const std::string& text,
                               const std::string& sep) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  while (true) {
    const auto at = text.find(sep, from);
    parts.push_back(trim(text.substr(from, at - from)));
    if (at == std::string::npos) return parts;
    from = at + sep.size();
  }
}

/// The rows of every `| metric | kind | unit | meaning |` table. A row
/// naming several metrics (`a` / `b`) lists either one unit for all of
/// them or one unit per metric, in the same order.
std::map<std::string, CatalogRow> catalog_rows(const std::string& markdown) {
  std::map<std::string, CatalogRow> rows;
  std::istringstream in(markdown);
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') {
      in_table = false;
      continue;
    }
    std::vector<std::string> cells = split(line, "|");
    cells.erase(cells.begin());  // before the leading '|'
    if (cells.size() < 3) continue;
    if (cells[0] == "metric" && cells[1] == "kind" && cells[2] == "unit") {
      in_table = true;
      continue;
    }
    if (!in_table || cells[0].rfind("---", 0) == 0) continue;
    const std::vector<std::string> names = split(cells[0], " / ");
    const std::vector<std::string> units = split(cells[2], " / ");
    EXPECT_TRUE(units.size() == 1 || units.size() == names.size())
        << "unit count does not match the metric count: " << line;
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::string name = names[i];
      EXPECT_TRUE(name.size() > 2 && name.front() == '`' &&
                  name.back() == '`')
          << "metric name not in backticks: " << line;
      name = name.substr(1, name.size() - 2);
      EXPECT_EQ(rows.count(name), 0u) << "duplicate row for " << name;
      rows[name] = {cells[1], units.size() == 1 ? units[0] : units.at(i)};
    }
  }
  return rows;
}

const char* kind_of(obs::MetricKind kind) {
  switch (kind) {
    case obs::MetricKind::kCounter:
      return "counter";
    case obs::MetricKind::kGauge:
      return "gauge";
    case obs::MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// Every metric the instrumented layers register: engines over a lossy
/// wire with a partition, a stall, a crash and a corrupt checkpoint, and
/// supervised engines (a false suspicion under a partition, then a
/// detected crash), plus a StableStore fed through an AsyncPersister.
obs::MetricsSnapshot fully_instrumented_snapshot() {
  obs::Registry registry;
  const mp::Program program = ring_program();

  sim::SimOptions lossy;
  lossy.nprocs = 4;
  lossy.obs = &registry;
  lossy.recovery_overhead = 0.5;
  lossy.delay.drop = 0.05;
  lossy.delay.dup = 0.05;
  lossy.delay.reorder = 0.1;
  lossy.fault_plan.faults = {sim::FaultPlan::after_checkpoint(1, 3)};
  lossy.fault_plan.partitions = {sim::FaultPlan::partition({2}, 5.0, 9.0)};
  lossy.fault_plan.stalls = {sim::FaultPlan::stall(3, 12.0, 4.0)};
  lossy.storage_faults.faults = {store::StorageFaultPlan::bit_flip(1, 3)};
  store::StableStore store(store::StorageModel{},
                           store::CheckpointMode::kIncremental,
                           lossy.nprocs);
  store.set_obs(&registry);
  {
    store::AsyncPersistOptions popts;
    popts.obs = &registry;
    store::AsyncPersister persister(store, popts);
    lossy.checkpoint_capture_fn = sim::async_store_capture_fn(persister);
    sim::Engine engine(program, lossy);
    engine.run();
    persister.drain();
  }
  store.collect_garbage(1);

  sim::SupervisorOptions so;
  so.detector.hb_interval = 0.5;
  so.detector.timeout = 2.0;
  so.poll_interval = 1.0;
  so.restart_budget = 10;
  sim::SimOptions supervised;
  supervised.nprocs = 4;
  supervised.obs = &registry;
  supervised.recovery_overhead = 0.5;
  supervised.fault_plan.partitions = {
      sim::FaultPlan::partition({1}, 20.0, 30.0)};
  supervised.fault_plan.faults = {sim::FaultPlan::at_time(2, 45.0)};
  sim::Supervisor supervisor(so);
  sim::Engine engine(program, supervised, &supervisor);
  engine.run();
  return registry.snapshot();
}

TEST(ObsCatalog, EveryRegisteredMetricHasAMatchingDocsRow) {
  ACFC_REQUIRE_OBS();
  std::ifstream file(ACFC_DOCS_DIR "/observability.md");
  ASSERT_TRUE(file.good()) << "cannot open " ACFC_DOCS_DIR "/observability.md";
  std::stringstream text;
  text << file.rdbuf();
  const std::map<std::string, CatalogRow> rows = catalog_rows(text.str());
  ASSERT_FALSE(rows.empty());

  const obs::MetricsSnapshot snap = fully_instrumented_snapshot();
  std::set<std::string> registered;
  for (const auto& [name, metric] : snap.metrics) {
    registered.insert(name);
    const auto row = rows.find(name);
    if (row == rows.end()) {
      ADD_FAILURE() << "metric " << name << " (" << kind_of(metric.kind)
                    << ", " << metric.unit
                    << ") has no row in docs/observability.md";
      continue;
    }
    EXPECT_EQ(row->second.kind, kind_of(metric.kind)) << "kind of " << name;
    EXPECT_EQ(row->second.unit, metric.unit) << "unit of " << name;
  }
  // The scenario reaches every documented metric, so a row for a metric
  // nothing registers any more is stale.
  for (const auto& [name, row] : rows)
    EXPECT_EQ(registered.count(name), 1u)
        << "docs/observability.md documents " << name
        << ", which no instrumented layer registers";
}

}  // namespace

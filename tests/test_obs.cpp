// Tests for the deterministic observability layer (src/obs/):
//   * metric primitive semantics — exact concurrent counter totals, gauge
//     high-water, histogram log-bucket boundaries and saturation;
//   * snapshots — name-sorted freeze, trailing-bucket trimming;
//   * exporters — JSON-lines and chrome://tracing pinned by golden bytes,
//     chrome://tracing output read back as well-formed JSON, byte
//     determinism;
//   * a multi-writer hammer that gives TSan the registry;
//   * the metric-catalog drift gate: every metric a fully instrumented
//     run registers has a docs/observability.md row with its kind and
//     unit, and every row names a registered metric.
#include <gtest/gtest.h>

#include <cctype>
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
#include "sim/engine.h"
#include "sim/snapshot_codec.h"
#include "sim/supervisor.h"
#include "store/async_persist.h"
#include "store/store.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

TEST(ObsCounter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
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
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kIncs);
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

TEST(ObsGauge, TracksValueAndHighWater) {
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
  obs::Registry registry;
  obs::Counter& a = registry.counter("x.count", {"events", "engine"});
  obs::Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(ObsRegistry, SnapshotIsNameSortedWithMetaAndTrimmedBuckets) {
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
  registry.emit_span("rollback", 0, 2.0, 2.5);
  return registry.snapshot();
}

TEST(ObsExport, JsonlGoldenBytes) {
  // Pins the exact wire format: metrics in name order, then spans in
  // begin-time order, every number an integer (span times in whole µs).
  EXPECT_EQ(
      obs::to_jsonl(sample_snapshot()),
      "{\"metric\":\"engine.events\",\"kind\":\"counter\","
      "\"layer\":\"engine\",\"unit\":\"events\",\"count\":123}\n"
      "{\"metric\":\"persist.queue_depth\",\"kind\":\"gauge\","
      "\"layer\":\"persist\",\"unit\":\"jobs\",\"value\":2,"
      "\"high_water\":2}\n"
      "{\"metric\":\"store.bytes\",\"kind\":\"histogram\","
      "\"layer\":\"store\",\"unit\":\"bytes\",\"count\":2,\"sum\":5100,"
      "\"buckets\":[0,0,0,0,0,0,0,1,0,0,0,0,0,1]}\n"
      "{\"span\":\"checkpoint\",\"track\":1,\"ts_us\":500000,"
      "\"dur_us\":750000}\n"
      "{\"span\":\"rollback\",\"track\":0,\"ts_us\":2000000,"
      "\"dur_us\":500000}\n");
}

TEST(ObsExport, JsonlIsByteDeterministicAcrossIdenticalRegistries) {
  EXPECT_EQ(obs::to_jsonl(sample_snapshot()),
            obs::to_jsonl(sample_snapshot()));
}

// A strict RFC 8259 reader just large enough to check an export is a
// well-formed JSON document; object members keep their order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  std::string text;                // kString
  std::vector<std::string> keys;   // kObject, parallel to items
  std::vector<JsonValue> items;    // kArray elements or kObject values

  const JsonValue* get(const std::string& key) const {
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == key) return &items[i];
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  // The whole input as one value, or false on any syntax error.
  bool document(JsonValue& out) {
    if (!value(out, 0)) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool word(const char* w) {
    const std::string lit(w);
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }
  bool number() {
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_)
          if (pos_ >= s_.size() || !std::isxdigit(
                                       static_cast<unsigned char>(s_[pos_])))
            return false;
        out.push_back('?');
      } else if (std::string("\"\\/bfnrt").find(e) != std::string::npos) {
        out.push_back(e);
      } else {
        return false;
      }
    }
    return false;
  }
  bool value(JsonValue& out, int depth) {
    if (depth > 64) return false;
    ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      if (eat('}')) return true;
      do {
        std::string key;
        if (!string(key) || !eat(':')) return false;
        JsonValue member;
        if (!value(member, depth + 1)) return false;
        out.keys.push_back(std::move(key));
        out.items.push_back(std::move(member));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      if (eat(']')) return true;
      do {
        JsonValue item;
        if (!value(item, depth + 1)) return false;
        out.items.push_back(std::move(item));
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.text);
    }
    if (c == 't' || c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      return word(c == 't' ? "true" : "false");
    }
    if (c == 'n') return word("null");
    out.kind = JsonValue::Kind::kNumber;
    return number();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ObsExport, ChromeTraceIsValidJsonWithSpanAndCounterEvents) {
  const std::string text = obs::to_chrome_trace(sample_snapshot());
  JsonValue doc;
  ASSERT_TRUE(JsonReader(text).document(doc)) << text;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  // 2 spans ("X") + 3 metrics ("C").
  ASSERT_EQ(events->items.size(), 5u);
  int xs = 0, cs = 0;
  for (const JsonValue& e : events->items) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = e.get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.get("name"), nullptr);
    ASSERT_NE(e.get("ts"), nullptr);
    if (ph->text == "X") {
      ++xs;
      ASSERT_NE(e.get("dur"), nullptr);
    } else if (ph->text == "C") {
      ++cs;
      ASSERT_NE(e.get("args"), nullptr);
    }
  }
  EXPECT_EQ(xs, 2);
  EXPECT_EQ(cs, 3);
  // The reader is strict: a truncated export is not a document.
  JsonValue truncated;
  EXPECT_FALSE(
      JsonReader(text.substr(0, text.size() - 1)).document(truncated));
}

TEST(ObsExport, ChromeTraceGoldenBytes) {
  // Pins the exact wire format: one "X" event per span with name, ts and
  // dur, then one "C" event per metric whose args carry its value (a
  // gauge's level, a counter's or histogram's count).
  EXPECT_EQ(
      obs::to_chrome_trace(sample_snapshot()),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"checkpoint\",\"ph\":\"X\",\"cat\":\"sim\",\"pid\":0,"
      "\"tid\":1,\"ts\":500000,\"dur\":750000},"
      "{\"name\":\"rollback\",\"ph\":\"X\",\"cat\":\"sim\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"dur\":500000},"
      "{\"name\":\"engine.events\",\"ph\":\"C\",\"cat\":\"metrics\","
      "\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"value\":123}},"
      "{\"name\":\"persist.queue_depth\",\"ph\":\"C\",\"cat\":\"metrics\","
      "\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"value\":2}},"
      "{\"name\":\"store.bytes\",\"ph\":\"C\",\"cat\":\"metrics\","
      "\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"value\":2}}]}");
}

// ---------------------------------------------------------------------------
// Instrumented engine runs
// ---------------------------------------------------------------------------

mp::Program ring_program() {
  benchws::RingParams params;
  params.iterations = 6;
  params.checkpoint = true;
  return benchws::ring_exchange(params);
}

TEST(ObsEngine, InstrumentedRunExportsEngineAndCalqueueLayers) {
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

// ---------------------------------------------------------------------------
// Multi-writer hammer (TSan coverage of counters, gauge CAS, registration)
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentWritersAndSnapshotsRaceCleanly) {
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

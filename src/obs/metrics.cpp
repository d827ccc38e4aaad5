#include "obs/metrics.h"

#include <algorithm>

namespace acfc::obs {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Entry& Registry::entry_for(std::string_view name, MetricKind kind,
                                     MetricMeta meta) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : entries_)
    if (entry->name == name && entry->kind == kind) return *entry;
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->kind = kind;
  entry->meta = meta;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, MetricMeta meta) {
  return *entry_for(name, MetricKind::kCounter, meta).counter;
}

Gauge& Registry::gauge(std::string_view name, MetricMeta meta) {
  return *entry_for(name, MetricKind::kGauge, meta).gauge;
}

Histogram& Registry::histogram(std::string_view name, MetricMeta meta) {
  return *entry_for(name, MetricKind::kHistogram, meta).histogram;
}

void Registry::emit_span(std::string_view name, int track, double t_begin,
                         double t_end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRec{std::string(name), track, t_begin, t_end});
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSnap m;
    m.kind = entry->kind;
    m.unit = std::string(entry->meta.unit);
    m.layer = std::string(entry->meta.layer);
    switch (entry->kind) {
      case MetricKind::kCounter:
        m.count = entry->counter->value();
        break;
      case MetricKind::kGauge:
        m.value = entry->gauge->value();
        m.high_water = entry->gauge->high_water();
        break;
      case MetricKind::kHistogram: {
        m.count = entry->histogram->count();
        m.sum = entry->histogram->sum();
        int top = Histogram::kBuckets;
        while (top > 0 && entry->histogram->bucket_count(top - 1) == 0) --top;
        m.buckets.resize(static_cast<std::size_t>(top));
        for (int b = 0; b < top; ++b)
          m.buckets[static_cast<std::size_t>(b)] =
              entry->histogram->bucket_count(b);
        break;
      }
    }
    snap.metrics.emplace_back(entry->name, std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  snap.spans = spans_;
  return snap;
}

const MetricSnap* MetricsSnapshot::find(std::string_view name) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == metrics.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace acfc::obs

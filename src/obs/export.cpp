#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/error.h"

namespace acfc::obs {

namespace {

/// Span timestamps leave the double domain here: whole microseconds via
/// llround, so export bytes carry only integers and are platform-stable.
long long to_us(double seconds) { return std::llround(seconds * 1e6); }

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

/// Deterministic span order for export: emission order is already stable
/// for single-threaded emitters; sorting by (begin, track, name, end)
/// makes multi-threaded emitters stable too.
std::vector<SpanRec> sorted_spans(const MetricsSnapshot& snap) {
  std::vector<SpanRec> spans = snap.spans;
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     if (a.t_begin != b.t_begin) return a.t_begin < b.t_begin;
                     if (a.track != b.track) return a.track < b.track;
                     if (a.name != b.name) return a.name < b.name;
                     return a.t_end < b.t_end;
                   });
  return spans;
}

}  // namespace

std::string to_jsonl(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, m] : snap.metrics) {
    out += "{\"metric\":";
    append_escaped(out, name);
    out += ",\"kind\":\"";
    out += kind_name(m.kind);
    out += "\",\"layer\":";
    append_escaped(out, m.layer);
    out += ",\"unit\":";
    append_escaped(out, m.unit);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"count\":" + std::to_string(m.count);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + std::to_string(m.value);
        out += ",\"high_water\":" + std::to_string(m.high_water);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":" + std::to_string(m.count);
        out += ",\"sum\":" + std::to_string(m.sum);
        out += ",\"buckets\":[";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          if (b) out += ',';
          out += std::to_string(m.buckets[b]);
        }
        out += ']';
        break;
      }
    }
    out += "}\n";
  }
  for (const auto& span : sorted_spans(snap)) {
    out += "{\"span\":";
    append_escaped(out, span.name);
    out += ",\"track\":" + std::to_string(span.track);
    out += ",\"ts_us\":" + std::to_string(to_us(span.t_begin));
    out += ",\"dur_us\":" +
           std::to_string(to_us(span.t_end) - to_us(span.t_begin));
    out += "}\n";
  }
  return out;
}

std::string to_chrome_trace(const MetricsSnapshot& snap) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };
  for (const auto& span : sorted_spans(snap)) {
    comma();
    out += "{\"name\":";
    append_escaped(out, span.name);
    out += ",\"ph\":\"X\",\"cat\":\"sim\",\"pid\":0,\"tid\":" +
           std::to_string(span.track);
    out += ",\"ts\":" + std::to_string(to_us(span.t_begin));
    out += ",\"dur\":" +
           std::to_string(to_us(span.t_end) - to_us(span.t_begin));
    out += '}';
  }
  // End-of-run totals as one counter event per metric at ts=0 — keeps the
  // whole snapshot visible inside the trace viewer.
  for (const auto& [name, m] : snap.metrics) {
    comma();
    out += "{\"name\":";
    append_escaped(out, name);
    out += ",\"ph\":\"C\",\"cat\":\"metrics\",\"pid\":0,\"tid\":0,\"ts\":0,"
           "\"args\":{\"value\":";
    out += std::to_string(m.kind == MetricKind::kGauge ? m.value : m.count);
    out += "}}";
  }
  out += "]}";
  return out;
}

void save_text(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::Error("cannot open output file: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw util::Error("failed writing output file: " + path);
}

}  // namespace acfc::obs

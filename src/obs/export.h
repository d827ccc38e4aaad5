// Exporters for obs::MetricsSnapshot.
//
// Two formats:
//   * JSON-lines (`to_jsonl`) — one JSON object per line. Metric lines
//     carry {"metric", "kind", "layer", "unit", ...integer fields...};
//     span lines {"span", "track", "ts_us", "dur_us"}. All numeric
//     fields are integers (span times are converted to whole
//     microseconds), so identical snapshots serialize to identical bytes
//     on every platform.
//   * chrome://tracing (`to_chrome_trace`) — a single JSON document with a
//     "traceEvents" array of "X" (complete) events for spans plus one "C"
//     (counter) summary event per metric, loadable in chrome://tracing or
//     Perfetto.
//
// Spans are sorted by (ts, track, name) before export so multi-threaded
// emitters still produce deterministic bytes.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace acfc::obs {

/// One JSON object per line; deterministic bytes for a given snapshot.
std::string to_jsonl(const MetricsSnapshot& snap);

/// chrome://tracing "trace_event" JSON document (displayTimeUnit: ms).
std::string to_chrome_trace(const MetricsSnapshot& snap);

/// Writes `text` to `path`; throws util::ProgramError on I/O failure.
void save_text(const std::string& path, std::string_view text);

}  // namespace acfc::obs

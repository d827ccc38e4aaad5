// Replayable counterexample artifacts (ACFX format).
//
// An artifact is a closed-world record of one explorer finding: the full
// Scenario, the replay-relevant ExploreOptions, the (shrunk) choice plan,
// the violated property, and the run digest. `acfc explore --repro`
// replays it bit-identically on any build of the same source.
//
// Wire format (versioned, line-based, diff-friendly):
//
//   ACFX1                    <- magic, exactly this first line
//   workload ring            <- "key value" pairs, one per line
//   nprocs 3
//   ...
//   plan 0,1,0,2             <- comma-separated choice plan (may be empty)
//   end                      <- terminator; trailing bytes rejected
//
// Every key is a row of the settings table (explore/settings.h), which
// gives its field, its type and its range; to_text writes the rows in
// table order. parse_artifact() NEVER throws: every number goes through
// std::from_chars with the row's range, names are validated against the
// workload/driver registries, unknown or duplicate keys reject, and the
// result is std::nullopt on any defect. Doubles are printed with %.17g so
// text round-trips bit-exactly.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "explore/explore.h"

namespace acfc::explore {

struct Artifact {
  Scenario scenario;
  /// Only the replay-relevant fields are serialized: those with an ACFX
  /// key in the settings table.
  ExploreOptions opts;
  std::vector<int> plan;
  /// Violated property the replay is expected to reproduce ("none" when
  /// the artifact just pins a schedule, e.g. a clean run's digest).
  std::string property = "none";
  /// Expected fold_digest of the replayed run.
  std::uint64_t digest = 0;
};

/// Packages a search/shrink finding for emission.
Artifact make_artifact(const Scenario& scenario, const ExploreOptions& opts,
                       const Violation& violation);

/// Serializes to ACFX text (ends with "end\n").
std::string to_text(const Artifact& artifact);

/// Parses ACFX text. Returns std::nullopt on ANY malformed input; never
/// throws, never reads out of bounds.
std::optional<Artifact> parse_artifact(std::string_view text);

struct ReproOutcome {
  ReplayReport replay;
  /// Replay reproduced the artifact's property (for "none": no violation).
  bool property_matched = false;
  /// Replay's digest equals the artifact's recorded digest.
  bool digest_matched = false;
};

/// Replays the artifact's plan under its recorded scenario/options and
/// compares outcome against the recorded property and digest.
ReproOutcome replay_artifact(const Artifact& artifact);

}  // namespace acfc::explore

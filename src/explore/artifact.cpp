#include "explore/artifact.h"

#include <string>
#include <utility>
#include <vector>

#include "explore/settings.h"

namespace acfc::explore {

namespace {

constexpr std::string_view kMagic = "ACFX1";
constexpr std::size_t kMaxLines = 256;

}  // namespace

Artifact make_artifact(const Scenario& scenario, const ExploreOptions& opts,
                       const Violation& violation) {
  Artifact a;
  a.scenario = scenario;
  a.opts = opts;
  a.plan = trim_plan(violation.plan);
  a.property = violation.property.empty() ? "none" : violation.property;
  a.digest = violation.digest;
  return a;
}

std::string to_text(const Artifact& a) {
  std::string out;
  out.reserve(1024);
  out.append(kMagic);
  out.push_back('\n');
  for (const Setting& row : settings()) {
    if (row.key.empty()) continue;
    out.append(row.key);
    out.push_back(' ');
    out.append(format_setting(row, a));
    out.push_back('\n');
  }
  out.append("end\n");
  return out;
}

std::optional<Artifact> parse_artifact(std::string_view text) {
  Artifact a;
  std::vector<char> seen(settings().size());  // by row
  bool saw_magic = false;
  bool saw_end = false;
  std::size_t lines = 0;

  while (!text.empty()) {
    if (++lines > kMaxLines) return std::nullopt;
    const std::size_t nl = text.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);

    if (saw_end) return std::nullopt;  // trailing bytes after "end"
    if (!saw_magic) {
      if (line != kMagic) return std::nullopt;
      saw_magic = true;
      continue;
    }
    if (line == "end") {
      saw_end = true;
      continue;
    }

    const std::size_t sp = line.find(' ');
    if (sp == std::string_view::npos || sp == 0) return std::nullopt;
    const std::string_view key = line.substr(0, sp);
    const std::string_view value = line.substr(sp + 1);
    if (value.find(' ') != std::string_view::npos) return std::nullopt;
    const Setting* row = find_key(key);
    if (row == nullptr) return std::nullopt;  // unknown key
    if (std::exchange(seen[row - settings().data()], 1) != 0)
      return std::nullopt;  // duplicate key
    if (!parse_setting(*row, value, a)) return std::nullopt;
  }

  if (!saw_magic || !saw_end) return std::nullopt;
  return a;
}

ReproOutcome replay_artifact(const Artifact& artifact) {
  ReproOutcome out;
  out.replay = replay_plan(artifact.scenario, artifact.opts, artifact.plan);
  const std::string got =
      out.replay.violation ? out.replay.violation->property : "none";
  out.property_matched = got == artifact.property;
  out.digest_matched = out.replay.digest == artifact.digest;
  return out;
}

}  // namespace acfc::explore

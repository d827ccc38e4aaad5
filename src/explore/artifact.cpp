#include "explore/artifact.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>

namespace acfc::explore {

namespace {

constexpr std::string_view kMagic = "ACFX1";
constexpr std::size_t kMaxPlanLen = 4096;
constexpr std::size_t kMaxLines = 256;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_i64(std::string_view v, long long lo, long long hi,
               long long& out) {
  if (v.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && ptr == v.data() + v.size() && out >= lo &&
         out <= hi;
}

bool parse_int(std::string_view v, int lo, int hi, int& out) {
  long long wide = 0;
  if (!parse_i64(v, lo, hi, wide)) return false;
  out = static_cast<int>(wide);
  return true;
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "0") return out = false, true;
  if (v == "1") return out = true, true;
  return false;
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && ptr == v.data() + v.size();
}

bool parse_hex_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty() || v.size() > 16) return false;
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), out, 16);
  return ec == std::errc{} && ptr == v.data() + v.size();
}

bool parse_double(std::string_view v, double lo, double hi, double& out) {
  if (v.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && ptr == v.data() + v.size() &&
         std::isfinite(out) && out >= lo && out <= hi;
}

bool parse_plan(std::string_view v, std::vector<int>& out) {
  out.clear();
  if (v.empty()) return true;
  while (true) {
    const std::size_t comma = v.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? v : v.substr(0, comma);
    int choice = 0;
    if (!parse_int(item, 0, 1 << 20, choice)) return false;
    if (out.size() >= kMaxPlanLen) return false;
    out.push_back(choice);
    if (comma == std::string_view::npos) return true;
    v.remove_prefix(comma + 1);
  }
}

bool token_ok(std::string_view v) {
  if (v.empty() || v.size() > 64) return false;
  return std::all_of(v.begin(), v.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' ||
           c == '_';
  });
}

bool name_in(const std::vector<std::string>& names, std::string_view v) {
  return std::find(names.begin(), names.end(), v) != names.end();
}

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
  const auto put = [&out](std::string_view key, const std::string& value) {
    out.append(key);
    out.push_back(' ');
    out.append(value);
    out.push_back('\n');
  };
  out.append(kMagic);
  out.push_back('\n');
  put("workload", a.scenario.workload);
  put("iterations", std::to_string(a.scenario.params.iterations));
  put("compute_cost", fmt_double(a.scenario.params.compute_cost));
  put("message_bytes", std::to_string(a.scenario.params.message_bytes));
  put("checkpoints", a.scenario.params.checkpoints ? "1" : "0");
  put("driver", a.scenario.driver);
  put("interval", fmt_double(a.scenario.proto.interval));
  put("coordinator", std::to_string(a.scenario.proto.coordinator));
  put("control_bytes", std::to_string(a.scenario.proto.control_bytes));
  put("stagger", fmt_double(a.scenario.proto.stagger));
  put("first_round_at", fmt_double(a.scenario.proto.first_round_at));
  put("cic_stagger", fmt_double(a.scenario.proto.cic_stagger));
  put("nprocs", std::to_string(a.scenario.nprocs));
  put("seed", std::to_string(a.scenario.seed));
  put("delay_setup", fmt_double(a.scenario.delay.setup));
  put("delay_per_byte", fmt_double(a.scenario.delay.per_byte));
  put("delay_jitter", fmt_double(a.scenario.delay.jitter));
  put("checkpoint_overhead", fmt_double(a.scenario.checkpoint_overhead));
  put("checkpoint_latency", fmt_double(a.scenario.checkpoint_latency));
  put("max_choice_points", std::to_string(a.opts.max_choice_points));
  put("max_failures", std::to_string(a.opts.max_failures));
  put("check_digest", a.opts.check_digest ? "1" : "0");
  put("check_cic_index", a.opts.check_cic_index ? "1" : "0");
  put("tie_cap", std::to_string(a.opts.perturb.tie_cap));
  put("delay_steps", std::to_string(a.opts.perturb.delay_steps));
  put("delay_quantum", fmt_double(a.opts.perturb.delay_quantum));
  put("failure_points", a.opts.perturb.failure_points ? "1" : "0");
  put("partition_points", a.opts.perturb.partition_points ? "1" : "0");
  put("partition_window", fmt_double(a.opts.perturb.partition_window));
  put("stall_points", a.opts.perturb.stall_points ? "1" : "0");
  put("stall_window", fmt_double(a.opts.perturb.stall_window));
  put("max_partitions", std::to_string(a.opts.max_partitions));
  put("max_stalls", std::to_string(a.opts.max_stalls));
  put("property", a.property);
  put("digest", fmt_hex(a.digest));
  std::string plan;
  for (std::size_t i = 0; i < a.plan.size(); ++i) {
    if (i > 0) plan.push_back(',');
    plan.append(std::to_string(a.plan[i]));
  }
  put("plan", plan);
  out.append("end\n");
  return out;
}

std::optional<Artifact> parse_artifact(std::string_view text) {
  Artifact a;
  std::set<std::string, std::less<>> seen;
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
    if (!seen.emplace(key).second) return std::nullopt;  // duplicate key

    bool ok = false;
    if (key == "workload") {
      ok = token_ok(value) && name_in(mp::workload_names(), value);
      if (ok) a.scenario.workload = value;
    } else if (key == "iterations") {
      ok = parse_int(value, 0, 1 << 20, a.scenario.params.iterations);
    } else if (key == "compute_cost") {
      ok = parse_double(value, 0.0, 1e12, a.scenario.params.compute_cost);
    } else if (key == "message_bytes") {
      ok = parse_int(value, 0, 1 << 28, a.scenario.params.message_bytes);
    } else if (key == "checkpoints") {
      ok = parse_bool(value, a.scenario.params.checkpoints);
    } else if (key == "driver") {
      ok = token_ok(value) &&
           name_in(proto::explorable_driver_names(), value);
      if (ok) a.scenario.driver = value;
    } else if (key == "interval") {
      ok = parse_double(value, 1e-9, 1e12, a.scenario.proto.interval);
    } else if (key == "coordinator") {
      ok = parse_int(value, 0, 255, a.scenario.proto.coordinator);
    } else if (key == "control_bytes") {
      ok = parse_int(value, 0, 1 << 20, a.scenario.proto.control_bytes);
    } else if (key == "stagger") {
      ok = parse_double(value, 0.0, 1e3, a.scenario.proto.stagger);
    } else if (key == "first_round_at") {
      ok = parse_double(value, -1e12, 1e12,
                        a.scenario.proto.first_round_at);
    } else if (key == "cic_stagger") {
      ok = parse_double(value, 0.0, 1e3, a.scenario.proto.cic_stagger);
    } else if (key == "nprocs") {
      ok = parse_int(value, 2, 256, a.scenario.nprocs);
    } else if (key == "seed") {
      ok = parse_u64(value, a.scenario.seed);
    } else if (key == "delay_setup") {
      ok = parse_double(value, 0.0, 1e6, a.scenario.delay.setup);
    } else if (key == "delay_per_byte") {
      ok = parse_double(value, 0.0, 1e6, a.scenario.delay.per_byte);
    } else if (key == "delay_jitter") {
      ok = parse_double(value, 0.0, 1e6, a.scenario.delay.jitter);
    } else if (key == "checkpoint_overhead") {
      ok = parse_double(value, 0.0, 1e9, a.scenario.checkpoint_overhead);
    } else if (key == "checkpoint_latency") {
      ok = parse_double(value, 0.0, 1e9, a.scenario.checkpoint_latency);
    } else if (key == "max_choice_points") {
      ok = parse_int(value, 0, 100000, a.opts.max_choice_points);
    } else if (key == "max_failures") {
      ok = parse_int(value, 0, 1024, a.opts.max_failures);
    } else if (key == "check_digest") {
      ok = parse_bool(value, a.opts.check_digest);
    } else if (key == "check_cic_index") {
      ok = parse_bool(value, a.opts.check_cic_index);
    } else if (key == "tie_cap") {
      ok = parse_int(value, 1, sim::PerturbOptions::kMaxTieBreak,
                     a.opts.perturb.tie_cap);
    } else if (key == "delay_steps") {
      ok = parse_int(value, 1, 1024, a.opts.perturb.delay_steps);
    } else if (key == "delay_quantum") {
      ok = parse_double(value, 0.0, 1e6, a.opts.perturb.delay_quantum);
    } else if (key == "failure_points") {
      ok = parse_bool(value, a.opts.perturb.failure_points);
    } else if (key == "partition_points") {
      ok = parse_bool(value, a.opts.perturb.partition_points);
    } else if (key == "partition_window") {
      ok = parse_double(value, 0.0, 1e6, a.opts.perturb.partition_window);
    } else if (key == "stall_points") {
      ok = parse_bool(value, a.opts.perturb.stall_points);
    } else if (key == "stall_window") {
      ok = parse_double(value, 0.0, 1e6, a.opts.perturb.stall_window);
    } else if (key == "max_partitions") {
      ok = parse_int(value, 0, 1024, a.opts.max_partitions);
    } else if (key == "max_stalls") {
      ok = parse_int(value, 0, 1024, a.opts.max_stalls);
    } else if (key == "property") {
      ok = token_ok(value);
      if (ok) a.property = value;
    } else if (key == "digest") {
      ok = parse_hex_u64(value, a.digest);
    } else if (key == "plan") {
      ok = parse_plan(value, a.plan);
    } else {
      return std::nullopt;  // unknown key
    }
    if (!ok) return std::nullopt;
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

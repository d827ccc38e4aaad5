#include "explore/settings.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "explore/artifact.h"

namespace acfc::explore {

namespace {

constexpr double kTypeMax = std::numeric_limits<double>::infinity();
constexpr std::size_t kMaxPlanLen = 4096;
constexpr std::size_t kMaxToken = 64;

const Setting kSettings[] = {
    {"workload", "", "", 0, 0,
     [](Artifact& a) -> Field { return &a.scenario.workload; },
     mp::workload_names},
    {"iterations", "--iterations", "", 0, 1 << 20,
     [](Artifact& a) -> Field { return &a.scenario.params.iterations; }},
    {"compute_cost", "", "", 0, 1e12,
     [](Artifact& a) -> Field { return &a.scenario.params.compute_cost; }},
    {"message_bytes", "", "", 0, 1 << 28,
     [](Artifact& a) -> Field { return &a.scenario.params.message_bytes; }},
    {"checkpoints", "", "", 0, 1,
     [](Artifact& a) -> Field { return &a.scenario.params.checkpoints; }},
    {"driver", "--driver", "", 0, 0,
     [](Artifact& a) -> Field { return &a.scenario.driver; },
     proto::explorable_driver_names},
    {"interval", "--interval", "-T", 1e-9, 1e12,
     [](Artifact& a) -> Field { return &a.scenario.proto.interval; }},
    {"coordinator", "", "", 0, 255,
     [](Artifact& a) -> Field { return &a.scenario.proto.coordinator; }},
    {"control_bytes", "", "", 0, 1 << 20,
     [](Artifact& a) -> Field { return &a.scenario.proto.control_bytes; }},
    {"stagger", "", "", 0, 1e3,
     [](Artifact& a) -> Field { return &a.scenario.proto.stagger; }},
    {"first_round_at", "", "", -1e12, 1e12,
     [](Artifact& a) -> Field { return &a.scenario.proto.first_round_at; }},
    {"cic_stagger", "--cic-stagger", "", 0, 1e3,
     [](Artifact& a) -> Field { return &a.scenario.proto.cic_stagger; }},
    {"nprocs", "-n", "", 2, 256,
     [](Artifact& a) -> Field { return &a.scenario.nprocs; }},
    {"seed", "--seed", "", 0, kTypeMax,
     [](Artifact& a) -> Field { return &a.scenario.seed; }},
    {"delay_setup", "", "", 0, 1e6,
     [](Artifact& a) -> Field { return &a.scenario.delay.setup; }},
    {"delay_per_byte", "", "", 0, 1e6,
     [](Artifact& a) -> Field { return &a.scenario.delay.per_byte; }},
    {"delay_jitter", "", "", 0, 1e6,
     [](Artifact& a) -> Field { return &a.scenario.delay.jitter; }},
    {"checkpoint_overhead", "", "", 0, 1e9,
     [](Artifact& a) -> Field { return &a.scenario.checkpoint_overhead; }},
    {"checkpoint_latency", "", "", 0, 1e9,
     [](Artifact& a) -> Field { return &a.scenario.checkpoint_latency; }},
    {"max_choice_points", "--depth", "", 1, 100000,
     [](Artifact& a) -> Field { return &a.opts.max_choice_points; }},
    {"max_failures", "--max-failures", "", 0, 1024,
     [](Artifact& a) -> Field { return &a.opts.max_failures; }},
    {"check_digest", "--no-digest", "", 0, 1,
     [](Artifact& a) -> Field { return &a.opts.check_digest; }},
    {"check_cic_index", "--check-cic-index", "", 0, 1,
     [](Artifact& a) -> Field { return &a.opts.check_cic_index; }},
    {"tie_cap", "--tie-cap", "", 1, sim::PerturbOptions::kMaxTieBreak,
     [](Artifact& a) -> Field { return &a.opts.perturb.tie_cap; }},
    {"delay_steps", "--delay-steps", "", 1, 1024,
     [](Artifact& a) -> Field { return &a.opts.perturb.delay_steps; }},
    {"delay_quantum", "--delay-quantum", "", 0, 1e6,
     [](Artifact& a) -> Field { return &a.opts.perturb.delay_quantum; }},
    {"failure_points", "--failure-points", "", 0, 1,
     [](Artifact& a) -> Field { return &a.opts.perturb.failure_points; }},
    {"partition_points", "--partition-points", "", 0, 1,
     [](Artifact& a) -> Field { return &a.opts.perturb.partition_points; }},
    {"partition_window", "--partition-window", "", 0, 1e6,
     [](Artifact& a) -> Field { return &a.opts.perturb.partition_window; }},
    {"stall_points", "--stall-points", "", 0, 1,
     [](Artifact& a) -> Field { return &a.opts.perturb.stall_points; }},
    {"stall_window", "--stall-window", "", 0, 1e6,
     [](Artifact& a) -> Field { return &a.opts.perturb.stall_window; }},
    {"max_partitions", "--max-partitions", "", 0, 1024,
     [](Artifact& a) -> Field { return &a.opts.max_partitions; }},
    {"max_stalls", "--max-stalls", "", 0, 1024,
     [](Artifact& a) -> Field { return &a.opts.max_stalls; }},
    {"property", "", "", 0, 0,
     [](Artifact& a) -> Field { return &a.property; }},
    {"digest", "", "", 0, kTypeMax,
     [](Artifact& a) -> Field { return &a.digest; }, nullptr, true},
    {"plan", "", "", 0, 1 << 20,
     [](Artifact& a) -> Field { return &a.plan; }},
    // CLI only: how to search, not what a replay needs.
    {"", "--budget", "", 1, kTypeMax,
     [](Artifact& a) -> Field { return &a.opts.max_schedules; }},
    {"", "--threads", "", 1, 256,
     [](Artifact& a) -> Field { return &a.opts.threads; }},
    {"", "--walks", "", 0, kTypeMax,
     [](Artifact& a) -> Field { return &a.opts.random_walks; }},
    {"", "--no-memo", "", 0, 1,
     [](Artifact& a) -> Field { return &a.opts.memoize; }},
};

bool token_ok(std::string_view v) {
  return !v.empty() && v.size() <= kMaxToken &&
         std::all_of(v.begin(), v.end(), [](char c) {
           return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '-' || c == '_';
         });
}

bool parse_name(const Setting& row, std::string_view v, std::string& out) {
  if (!token_ok(v)) return false;
  if (row.names != nullptr) {
    const std::vector<std::string> names = row.names();
    if (std::find(names.begin(), names.end(), v) == names.end())
      return false;
  }
  out = v;
  return true;
}

bool parse_plan(const Setting& row, std::string_view v,
                std::vector<int>& out) {
  out.clear();
  if (v.empty()) return true;
  while (true) {
    const std::size_t comma = v.find(',');
    const auto choice =
        parse_number<int>(v.substr(0, comma), row.lo, row.hi);
    if (!choice || out.size() >= kMaxPlanLen) return false;
    out.push_back(*choice);
    if (comma == std::string_view::npos) return true;
    v.remove_prefix(comma + 1);
  }
}

std::string fmt(const char* format, auto value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

}  // namespace

std::span<const Setting> settings() { return kSettings; }

const Setting* find_key(std::string_view key) {
  if (key.empty()) return nullptr;
  for (const Setting& row : kSettings)
    if (row.key == key) return &row;
  return nullptr;
}

const Setting* find_flag(std::string_view flag) {
  if (flag.empty()) return nullptr;
  for (const Setting& row : kSettings)
    if (row.flag == flag || row.alias == flag) return &row;
  return nullptr;
}

bool takes_value(const Setting& row) {
  Artifact probe;
  return !std::holds_alternative<bool*>(row.field(probe));
}

std::string_view bare_flag_text(const Setting& row) {
  return row.flag.starts_with("--no-") ? "0" : "1";
}

bool parse_setting(const Setting& row, std::string_view text, Artifact& a) {
  return std::visit(
      [&](auto* out) {
        using T = std::remove_pointer_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (text != "0" && text != "1") return false;
          *out = text == "1";
          return true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          return parse_name(row, text, *out);
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          return parse_plan(row, text, *out);
        } else {
          if (row.hex && text.size() > 16) return false;
          const auto value =
              parse_number<T>(text, row.lo, row.hi, row.hex ? 16 : 10);
          if (value) *out = *value;
          return value.has_value();
        }
      },
      row.field(a));
}

std::string format_setting(const Setting& row, const Artifact& a) {
  // The accessor only locates the field; formatting reads it.
  return std::visit(
      [&](const auto* in) -> std::string {
        using T = std::remove_cv_t<std::remove_pointer_t<decltype(in)>>;
        if constexpr (std::is_same_v<T, bool>) {
          return *in ? "1" : "0";
        } else if constexpr (std::is_same_v<T, std::string>) {
          return *in;
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          std::string plan;
          for (std::size_t i = 0; i < in->size(); ++i) {
            if (i > 0) plan.push_back(',');
            plan.append(std::to_string((*in)[i]));
          }
          return plan;
        } else if constexpr (std::is_same_v<T, double>) {
          return fmt("%.17g", *in);
        } else if (row.hex) {
          return fmt("%016llx", static_cast<unsigned long long>(*in));
        } else {
          return std::to_string(*in);
        }
      },
      row.field(const_cast<Artifact&>(a)));
}

std::string range_text(const Setting& row) {
  if (row.names != nullptr) {
    std::string names;
    for (const std::string& name : row.names())
      names += (names.empty() ? "" : "|") + name;
    return names;
  }
  Artifact probe;
  const bool integral = !std::holds_alternative<double*>(row.field(probe));
  const auto bound = [integral](double v) {
    return integral ? fmt("%.0f", v) : fmt("%g", v);
  };
  return bound(row.lo) + ".." + (std::isinf(row.hi) ? "" : bound(row.hi));
}

}  // namespace acfc::explore

// The settings table: one row per ACFX key and per `acfc explore` setting.
//
// A row names the ACFX key, the CLI flag, the Artifact field and the
// inclusive range, once. to_text and parse_artifact (explore/artifact.h)
// walk it, and so do the CLI's flag parser and its explore usage lines,
// so a value one side accepts the other accepts too: every artifact the
// CLI writes replays, and every flag has the range its key has.
//
// Rows come in ACFX key order, then the CLI-only settings. A value's type
// is its field's: integers and doubles are bounds-checked whole strings
// (parse_number), booleans are "0"/"1" in ACFX and bare flags on the
// command line, names are checked against a registry, and the plan is a
// comma-separated list whose every choice is in the row's range.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace acfc::explore {

struct Artifact;

/// Where a setting lives in an Artifact; the alternative is its type.
using Field = std::variant<int*, long*, std::uint64_t*, double*, bool*,
                           std::string*, std::vector<int>*>;

struct Setting {
  std::string_view key;    ///< ACFX key; empty for a CLI-only setting
  std::string_view flag;   ///< `acfc explore` flag; empty for none
  std::string_view alias;  ///< a second spelling of the flag
  /// Inclusive range of a number, or of each choice of a plan. An
  /// infinite hi stands for the field type's own maximum.
  double lo = 0.0;
  double hi = 0.0;
  Field (*field)(Artifact&) = nullptr;
  /// Name rows: the names accepted; nullptr accepts any token.
  std::vector<std::string> (*names)() = nullptr;
  /// A u64 written as hex digits (the run digest).
  bool hex = false;
};

/// Every row, in ACFX key order, then the CLI-only ones.
std::span<const Setting> settings();

/// The row with this ACFX key / CLI flag (or alias); nullptr if none.
const Setting* find_key(std::string_view key);
const Setting* find_flag(std::string_view flag);

/// Writes `text` into the row's field of `a`; false, leaving the field
/// unspecified, when `text` is not a value in the row's range.
bool parse_setting(const Setting& row, std::string_view text, Artifact& a);

/// The row's field of `a` as ACFX writes it (doubles as %.17g).
std::string format_setting(const Setting& row, const Artifact& a);

/// False for a boolean row: its CLI flag is bare, and stands for the
/// value bare_flag_text() gives.
bool takes_value(const Setting& row);
/// "1", or "0" for a flag that begins with "--no-".
std::string_view bare_flag_text(const Setting& row);

/// What the row accepts, for usage and error text: "lo..hi" ("lo.." when
/// hi is the type's maximum), or the names joined by '|'.
std::string range_text(const Setting& row);

/// A whole-string number in [lo, hi] (an infinite bound is no bound): no
/// leading blanks or '+', no trailing garbage, no wrap-around, finite
/// (std::stoi and friends accept "4x" as 4, and std::stoull accepts "-1"
/// as 2^64-1). `base` applies to integers.
template <typename T>
std::optional<T> parse_number(std::string_view text, double lo, double hi,
                              int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  std::from_chars_result got;
  if constexpr (std::is_floating_point_v<T>)
    got = std::from_chars(text.data(), end, value);
  else
    got = std::from_chars(text.data(), end, value, base);
  if (got.ec != std::errc() || got.ptr != end) return std::nullopt;
  const auto wide = static_cast<double>(value);
  if (!std::isfinite(wide) || wide < lo || wide > hi) return std::nullopt;
  return value;
}

}  // namespace acfc::explore

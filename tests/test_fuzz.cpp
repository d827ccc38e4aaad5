// Robustness fuzzing: mutated program sources must either parse cleanly
// or raise util::ProgramError — never crash, hang, or corrupt state. The
// analyzer and simulator are additionally exercised on every mutant that
// still parses.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "explore/artifact.h"
#include "explore/settings.h"
#include "match/match.h"
#include "mp/generate.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

using namespace acfc;

std::string mutate(const std::string& source, util::Rng& rng) {
  std::string out = source;
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const auto pos = static_cast<size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // delete a character
        out.erase(pos, 1);
        break;
      case 1:  // duplicate a character
        out.insert(pos, 1, out[pos]);
        break;
      case 2: {  // replace with a random printable character
        out[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      }
      case 3: {  // swap two characters
        const auto pos2 = static_cast<size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
        std::swap(out[pos], out[pos2]);
        break;
      }
    }
  }
  return out;
}

TEST(Fuzz, MutatedSourcesNeverCrashTheParser) {
  util::Rng rng(2026);
  int parsed = 0, rejected = 0;
  for (int round = 0; round < 400; ++round) {
    mp::GenerateOptions gopts;
    gopts.seed = static_cast<std::uint64_t>(round % 10) + 1;
    gopts.segments = 5;
    const std::string source = mp::print(mp::generate_program(gopts));
    const std::string mutant = mutate(source, rng);
    try {
      const mp::Program p = mp::parse(mutant);
      ++parsed;
      // A parsed mutant must survive printing and re-parsing.
      EXPECT_NO_THROW({ mp::parse(mp::print(p)); });
    } catch (const util::ProgramError&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  // Sanity: the mutator produces both outcomes.
  EXPECT_GT(parsed, 10);
  EXPECT_GT(rejected, 10);
}

TEST(Fuzz, ParsedMutantsNeverCrashTheAnalyzer) {
  util::Rng rng(777);
  int analyzed = 0;
  for (int round = 0; round < 150 || analyzed < 20; ++round) {
    if (round > 2000) break;
    mp::GenerateOptions gopts;
    gopts.seed = static_cast<std::uint64_t>(round % 7) + 1;
    gopts.segments = 4;
    gopts.misalign_checkpoints = true;
    const std::string mutant =
        mutate(mp::print(mp::generate_program(gopts)), rng);
    try {
      mp::Program p = mp::parse(mutant);
      // Any structured failure is fine; crashes are not.
      const match::ExtendedCfg ext = match::build_extended_cfg(p);
      (void)place::check_condition1(ext);
      ++analyzed;
    } catch (const util::Error&) {
      // ProgramError (parse/balance) or InternalError guard — acceptable.
    }
  }
  EXPECT_GT(analyzed, 0);
}

TEST(Fuzz, ParsedMutantsNeverCrashTheSimulator) {
  util::Rng rng(4242);
  int simulated = 0;
  for (int round = 0; round < 150; ++round) {
    mp::GenerateOptions gopts;
    gopts.seed = static_cast<std::uint64_t>(round % 7) + 1;
    gopts.segments = 4;
    const std::string mutant =
        mutate(mp::print(mp::generate_program(gopts)), rng);
    try {
      const mp::Program p = mp::parse(mutant);
      sim::SimOptions opts;
      opts.nprocs = 3;
      opts.max_events = 50'000;  // mutants may loop more; keep bounded
      sim::Engine engine(p, opts);
      (void)engine.run();  // completed or not — just must return
      ++simulated;
    } catch (const util::Error&) {
      // Structured rejection (bad destination, unresolvable expr, ...).
    }
  }
  EXPECT_GT(simulated, 0);
}

// ---------------------------------------------------------------------------
// Token-level mutations: structurally plausible mutants.
// ---------------------------------------------------------------------------

// Splits DSL source into whole tokens (identifiers/numbers, quoted strings,
// punctuation runs). The grammar is whitespace-insensitive, so rejoining
// with single spaces preserves meaning.
std::vector<std::string> split_tokens(const std::string& source) {
  std::vector<std::string> tokens;
  size_t i = 0;
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  };
  while (i < source.size()) {
    const char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '"') {  // quoted label: one token, quotes included
      size_t j = i + 1;
      while (j < source.size() && source[j] != '"') ++j;
      tokens.push_back(source.substr(i, j + 1 - i));
      i = j + 1;
    } else if (word(c)) {
      size_t j = i;
      while (j < source.size() && word(source[j])) ++j;
      tokens.push_back(source.substr(i, j - i));
      i = j;
    } else {  // punctuation: multi-char operators stay glued
      size_t j = i + 1;
      static const std::string two[] = {"==", "!=", "<=", ">=", "&&",
                                        "||", ".."};
      for (const auto& op : two)
        if (source.compare(i, 2, op) == 0) j = i + 2;
      tokens.push_back(source.substr(i, j - i));
      i = j;
    }
  }
  return tokens;
}

bool is_number(const std::string& t) {
  if (t.empty()) return false;
  for (const char c : t)
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.')
      return false;
  return true;
}

// Picks the [start, end] token span of a random simple statement (span ends
// at a ";" and starts just after the previous ";", "{", or "}").
bool statement_span(const std::vector<std::string>& tokens, util::Rng& rng,
                    size_t* start, size_t* end) {
  std::vector<size_t> semis;
  for (size_t i = 0; i < tokens.size(); ++i)
    if (tokens[i] == ";") semis.push_back(i);
  if (semis.empty()) return false;
  const size_t e = semis[static_cast<size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(semis.size()) - 1))];
  size_t s = e;
  while (s > 0 && tokens[s - 1] != ";" && tokens[s - 1] != "{" &&
         tokens[s - 1] != "}")
    --s;
  if (s >= e) return false;
  *start = s;
  *end = e;
  return true;
}

// Six whole-token edits: three raw ones (duplicate/drop/swap arbitrary
// tokens — mostly grammar-fatal, exercising the rejection paths) and three
// class-aware ones (swap numbers, duplicate or drop a whole statement —
// mostly parseable, yielding structurally odd programs: retagged or
// redirected messages, doubled checkpoints, orphaned recvs).
std::string mutate_tokens(std::vector<std::string> tokens, util::Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && tokens.size() > 1; ++e) {
    const auto pick = [&] {
      return static_cast<size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(tokens.size()) - 1));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0:  // duplicate a whole token
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(pick()),
                      tokens[pick()]);
        break;
      case 1:  // drop a whole token
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pick()));
        break;
      case 2:  // swap two whole tokens
        std::swap(tokens[pick()], tokens[pick()]);
        break;
      case 3: {  // swap two number tokens
        std::vector<size_t> nums;
        for (size_t i = 0; i < tokens.size(); ++i)
          if (is_number(tokens[i])) nums.push_back(i);
        if (nums.size() < 2) break;
        const auto pick_num = [&] {
          return nums[static_cast<size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(nums.size()) - 1))];
        };
        std::swap(tokens[pick_num()], tokens[pick_num()]);
        break;
      }
      case 4: {  // duplicate a whole simple statement
        size_t s, t;
        if (!statement_span(tokens, rng, &s, &t)) break;
        const std::vector<std::string> span(
            tokens.begin() + static_cast<std::ptrdiff_t>(s),
            tokens.begin() + static_cast<std::ptrdiff_t>(t) + 1);
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t) + 1,
                      span.begin(), span.end());
        break;
      }
      default: {  // drop a whole simple statement
        size_t s, t;
        if (!statement_span(tokens, rng, &s, &t)) break;
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(s),
                     tokens.begin() + static_cast<std::ptrdiff_t>(t) + 1);
        break;
      }
    }
  }
  std::string out;
  for (const auto& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

TEST(TokenFuzz, SplitterRoundTripsGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    mp::GenerateOptions gopts;
    gopts.seed = seed;
    gopts.segments = 6;
    gopts.misalign_checkpoints = (seed % 2) == 0;
    const std::string source = mp::print(mp::generate_program(gopts));
    util::Rng rng(seed);  // unused by a 0-edit join; just rejoin
    std::string joined;
    for (const auto& t : split_tokens(source)) {
      if (!joined.empty()) joined += ' ';
      joined += t;
    }
    // Token-joined source parses back to the identical program.
    EXPECT_EQ(mp::print(mp::parse(joined)), source) << "seed=" << seed;
  }
}

TEST(TokenFuzzSlow, RepairPlacementSurvivesEveryParseableMutant) {
  // Token-level mutants are far likelier than character mutants to parse —
  // they stress the analyzer/repair pipeline with *structurally* odd
  // programs (dangling recvs, doubled checkpoints, swapped bounds) rather
  // than the lexer. repair_placement must terminate with a report or a
  // structured util::Error on every one, and must be deterministic (two
  // repairs of the same mutant agree — no corrupted global state).
  util::Rng rng(31337);
  int parsed = 0, rejected = 0, repaired_ok = 0;
  for (int round = 0; round < 300; ++round) {
    mp::GenerateOptions gopts;
    gopts.seed = static_cast<std::uint64_t>(round % 12) + 1;
    gopts.segments = 5;
    gopts.misalign_checkpoints = (round % 2) == 0;
    const std::string source = mp::print(mp::generate_program(gopts));
    const std::string mutant = mutate_tokens(split_tokens(source), rng);
    try {
      (void)mp::parse(mutant);
    } catch (const util::ProgramError&) {
      ++rejected;
      continue;
    }
    ++parsed;
    try {
      mp::Program p = mp::parse(mutant);
      mp::Program copy = mp::parse(mutant);
      const auto a = place::repair_placement(p);
      const auto b = place::repair_placement(copy);
      EXPECT_EQ(a.success, b.success) << "round=" << round;
      EXPECT_EQ(a.moves, b.moves) << "round=" << round;
      EXPECT_EQ(mp::print(p), mp::print(copy)) << "round=" << round;
      if (a.success) ++repaired_ok;
    } catch (const util::Error&) {
      // Structured rejection (unmatched recv, unsat guard, ...) is fine.
    }
  }
  // The mutator must produce a healthy mix, and repair must actually
  // succeed on a sizable share of the parseable mutants.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 10);
  EXPECT_GT(repaired_ok, 25);
}

TEST(Fuzz, GarbageInputsRejectedStructurally) {
  util::Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    const auto len = rng.uniform_int(0, 200);
    for (std::int64_t i = 0; i < len; ++i)
      garbage += static_cast<char>(rng.uniform_int(9, 126));
    try {
      (void)mp::parse(garbage);
    } catch (const util::ProgramError&) {
      // expected for essentially all inputs
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// ACFX repro-artifact parser (explore/artifact.h): parse-or-reject, never
// throws. Artifacts cross machine boundaries (checked into bug reports,
// passed to `acfc explore --repro`), so the parser sees arbitrary bytes.

std::string sample_artifact_text() {
  explore::Violation v;
  v.property = "cic-index";
  v.plan = {0, 0, 1, 2, 0, 1};
  v.digest = 0xdeadbeefcafef00dULL;
  explore::Scenario sc;
  sc.driver = "cic-broken";
  sc.proto.cic_stagger = 0.5;
  explore::ExploreOptions opts;
  opts.perturb.delay_steps = 3;
  opts.perturb.delay_quantum = 2.0;
  opts.perturb.partition_points = true;
  opts.perturb.partition_window = 0.75;
  opts.perturb.stall_points = true;
  opts.perturb.stall_window = 1.5;
  opts.max_partitions = 2;
  opts.max_stalls = 3;
  explore::Artifact a = explore::make_artifact(sc, opts, v);
  // Every other key gets a non-default value from the settings table (its
  // upper bound, else its lower; the other boolean; the last name), so
  // mutations land on every key's parse path.
  const explore::Artifact defaults;
  for (const explore::Setting& row : explore::settings()) {
    if (row.key.empty()) continue;
    const std::string old = explore::format_setting(row, defaults);
    if (explore::format_setting(row, a) != old) continue;
    std::string value;
    if (row.names != nullptr) {
      value = row.names().back();
    } else if (!explore::takes_value(row)) {
      value = old == "1" ? "0" : "1";
    } else {
      const std::string range = explore::range_text(row);
      const std::size_t dots = range.find("..");
      value = range.substr(dots + 2);
      if (value.empty()) value = range.substr(0, dots);
    }
    if (!explore::parse_setting(row, value, a) ||
        explore::format_setting(row, a) == old)
      ADD_FAILURE() << row.key << " keeps its default in the sample";
  }
  return explore::to_text(a);
}

TEST(AcfxFuzz, MutatedArtifactsParseOrRejectCleanly) {
  const std::string clean = sample_artifact_text();
  ASSERT_TRUE(explore::parse_artifact(clean).has_value());

  util::Rng rng(20260808);
  int accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string mutant = mutate(clean, rng);
    const auto parsed = explore::parse_artifact(mutant);
    if (!parsed.has_value()) continue;
    ++accepted;
    // Anything accepted must re-serialize canonically and re-parse equal.
    const std::string reencoded = explore::to_text(*parsed);
    const auto again = explore::parse_artifact(reencoded);
    ASSERT_TRUE(again.has_value()) << "round=" << round;
    EXPECT_EQ(again->plan, parsed->plan);
    EXPECT_EQ(again->digest, parsed->digest);
    EXPECT_EQ(again->scenario.workload, parsed->scenario.workload);
  }
  // No checksum, so benign mutants (digit tweaks inside a value) can
  // survive — but names, keys, and structure gate most of them.
  EXPECT_LT(accepted, 600);
}

TEST(AcfxFuzz, EveryTruncationParsesOrRejectsCleanly) {
  const std::string clean = sample_artifact_text();
  // Every prefix short of the "end" line lacks the terminator (or cuts a
  // line) and must be rejected. The one legitimate exception is dropping
  // only the final newline — "…\nend" is still a complete artifact.
  for (std::size_t len = 0; len + 1 < clean.size(); ++len) {
    EXPECT_FALSE(
        explore::parse_artifact(std::string_view(clean.data(), len))
            .has_value())
        << "prefix of length " << len << " accepted";
  }
  EXPECT_TRUE(explore::parse_artifact(clean.substr(0, clean.size() - 1))
                  .has_value());
  EXPECT_TRUE(explore::parse_artifact(clean).has_value());
}

TEST(AcfxFuzz, TrailingGarbageRejected) {
  const std::string clean = sample_artifact_text();
  util::Rng rng(808);
  for (int round = 0; round < 50; ++round) {
    std::string padded = clean;
    const auto extra = rng.uniform_int(1, 32);
    for (std::int64_t i = 0; i < extra; ++i)
      padded += static_cast<char>(rng.uniform_int(0, 255));
    EXPECT_FALSE(explore::parse_artifact(padded).has_value())
        << "round=" << round;
  }
}

TEST(AcfxFuzz, RandomGarbageNeverAccepted) {
  util::Rng rng(424242);
  int accepted = 0;
  for (int round = 0; round < 1000; ++round) {
    std::string garbage;
    const auto len = rng.uniform_int(0, 300);
    for (std::int64_t i = 0; i < len; ++i)
      garbage += static_cast<char>(rng.uniform_int(0, 255));
    if (explore::parse_artifact(garbage).has_value()) ++accepted;
  }
  EXPECT_EQ(accepted, 0);  // the ACFX1 magic line gates random bytes
}

}  // namespace

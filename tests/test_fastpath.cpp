// Differential tests for the analysis engine against tests/place_reference.h:
// the hop-closure Condition-1 checker vs the per-pair product-graph BFS,
// skeleton repair (one Ĝ per repair, checkpoints tracked as slots) vs the
// rebuild-everything fixpoint, and the memoized satisfiability cache vs the
// plain bounded enumeration. Every engine path must be bit-for-bit
// equivalent to its reference; the skeleton's invariance lemma is tested on
// its own.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attr/attr.h"
#include "cfg/cfg.h"
#include "match/match.h"
#include "mp/generate.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "place_reference.h"
#include "util/error.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;
using place::CheckOptions;
using place::CheckResult;
using place::RepairOptions;
using place::RepairPolicy;

// The misaligned Jacobi exchange of the paper's running example: even ranks
// checkpoint before the exchange, odd ranks after, so both orientations of
// the S_1 pair are causally related (even→odd same-instance, odd→even
// loop-carried).
constexpr const char* kJacobi2 = R"(
  program jacobi2 {
    for it in 0 .. 10 {
      compute 5.0;
      if (rank % 2 == 0) {
        checkpoint "even";
        send to rank + 1 tag 1;
        recv from rank + 1 tag 1;
      } else {
        send to rank - 1 tag 1;
        recv from rank - 1 tag 1;
        checkpoint "odd";
      }
    }
  })";

mp::Program generated(std::uint64_t seed, int segments) {
  mp::GenerateOptions opts;
  opts.seed = seed;
  opts.segments = segments;
  opts.misalign_checkpoints = true;
  return mp::generate_program(opts);
}

using ViolationKey = std::tuple<int, cfg::NodeId, cfg::NodeId, int, int, bool>;

std::vector<ViolationKey> keys_of(const CheckResult& result) {
  std::vector<ViolationKey> keys;
  keys.reserve(result.violations.size());
  for (const auto& v : result.violations)
    keys.emplace_back(v.index, v.from, v.to, v.from_ckpt_id, v.to_ckpt_id,
                      v.hard);
  return keys;
}

/// check_condition1 and the per-pair reference agree on `p`.
void expect_same_check(const mp::Program& p, const CheckOptions& opts) {
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  EXPECT_EQ(keys_of(place::check_condition1(ext, opts)),
            keys_of(place::reference::check_condition1(ext, opts)));
}

// ---------------------------------------------------------------------------
// Condition 1: hop closure vs per-pair BFS
// ---------------------------------------------------------------------------

TEST(FastPathCheck, MatchesLegacyAcrossSeedsAndSizes) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 99u}) {
    for (const int segments : {6, 12, 20, 28}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " segments=" + std::to_string(segments));
      expect_same_check(generated(seed, segments), {});
    }
  }
  // The canonical shapes, collectives included.
  for (const std::string& name : mp::workload_names()) {
    SCOPED_TRACE(name);
    expect_same_check(mp::workload_by_name(name), {});
  }
}

TEST(FastPathCheck, MatchesLegacyWithRefinement) {
  CheckOptions refined;
  refined.attribute_refinement = true;
  for (const std::uint64_t seed : {3u, 17u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_same_check(generated(seed, 14), refined);
  }
  for (const std::string& name : mp::workload_names()) {
    SCOPED_TRACE(name);
    expect_same_check(mp::workload_by_name(name), refined);
  }
}

TEST(FastPathCheck, BothOrientationsReportedOnMisalignedJacobi) {
  const mp::Program p = mp::parse(kJacobi2);
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  const CheckResult result = place::check_condition1(ext);
  // The even→odd orientation is same-instance (hard); odd→even needs the
  // loop back edge. A checker that only scans one orientation of each pair
  // (the naive "half the pairs" optimization) misses one of these.
  bool fwd = false;
  bool rev = false;
  for (const auto& v : result.violations) {
    if (v.from == v.to) continue;
    if (v.hard) fwd = true;
    if (!v.hard) rev = true;
    // Its mirror must also be reported (with some classification).
    bool mirrored = false;
    for (const auto& w : result.violations)
      mirrored = mirrored || (w.from == v.to && w.to == v.from);
    EXPECT_TRUE(mirrored) << "violation " << v.from << "->" << v.to
                          << " has no mirrored orientation";
  }
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(rev);

  EXPECT_EQ(keys_of(result),
            keys_of(place::reference::check_condition1(ext)));
}

TEST(FastPathCheck, EdgeSpansCoverTheEdgeList) {
  const mp::Program p = generated(/*seed=*/11, /*segments=*/16);
  const match::ExtendedCfg ext = match::build_extended_cfg(p);
  const int n = ext.graph().node_count();
  size_t from_total = 0;
  size_t to_total = 0;
  for (cfg::NodeId id = 0; id < n; ++id) {
    for (const auto& e : ext.edges_from(id)) {
      EXPECT_EQ(e.send, id);
      ++from_total;
    }
    for (const auto& e : ext.edges_to(id)) {
      EXPECT_EQ(e.recv, id);
      ++to_total;
    }
  }
  EXPECT_EQ(from_total, ext.message_edges().size());
  EXPECT_EQ(to_total, ext.message_edges().size());
}

// ---------------------------------------------------------------------------
// Repair: the skeleton path vs rebuild-everything
// ---------------------------------------------------------------------------

/// One differential repair case: a generated program (or, if `workload`
/// is set, that canonical workload) and the repair policy. A
/// checkpoint-free program goes through analyze_and_place, so Phase I
/// (loop blocking included) and equalization run first.
struct RepairCase {
  mp::GenerateOptions gen;
  std::string workload;
  RepairPolicy policy = RepairPolicy::kAlignedInstances;

  mp::Program program() const {
    return workload.empty() ? mp::generate_program(gen)
                            : mp::workload_by_name(workload);
  }
};

RepairCase repair_case(std::uint64_t seed, int segments) {
  RepairCase c;
  c.gen.seed = seed;
  c.gen.segments = segments;
  c.gen.misalign_checkpoints = true;
  return c;
}

std::string describe(const RepairCase& c) {
  if (!c.workload.empty())
    return c.workload +
           " strict=" + std::to_string(c.policy == RepairPolicy::kStrict);
  return "seed=" + std::to_string(c.gen.seed) +
         " seg=" + std::to_string(c.gen.segments) +
         " misalign=" + std::to_string(c.gen.misalign_checkpoints) +
         " irregular=" + std::to_string(c.gen.allow_irregular) +
         " phase1=" + std::to_string(c.gen.checkpoint_probability == 0.0) +
         " strict=" + std::to_string(c.policy == RepairPolicy::kStrict);
}

/// A repair's report, or the error it threw.
struct RepairRun {
  place::RepairReport report;
  std::string error;
};

/// Runs place's repair (or, with `reference`, the rebuild-everything one).
RepairRun run_repair(mp::Program& program, const RepairOptions& opts,
                     bool reference) {
  RepairRun run;
  try {
    if (mp::checkpoint_count(program) == 0) {
      place::InsertOptions insert;
      insert.target_interval = 4.0;  // generated programs run for seconds
      run.report =
          reference
              ? place::reference::analyze_and_place(program, insert, opts)
              : place::analyze_and_place(program, insert, opts);
    } else {
      run.report = reference
                       ? place::reference::repair_placement(program, opts)
                       : place::repair_placement(program, opts);
    }
  } catch (const util::Error& e) {
    run.error = e.what();
  }
  return run;
}

/// Repairs two copies of the case's program, one with repair_placement
/// and one with the rebuild-everything reference, and expects the same
/// RepairReport — log line for line — and the same repaired text.
/// Returns repair_placement's report.
place::RepairReport expect_same_repair(const RepairCase& c) {
  SCOPED_TRACE(describe(c));
  mp::Program fast_p = c.program();
  mp::Program slow_p = c.program();
  RepairOptions fast;  // skeleton + hop closure + sat cache (default)
  fast.policy = c.policy;
  RepairOptions slow = fast;
  slow.match.sat.use_cache = false;

  const RepairRun a = run_repair(fast_p, fast, /*reference=*/false);
  const RepairRun b = run_repair(slow_p, slow, /*reference=*/true);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.report.success, b.report.success);
  EXPECT_EQ(a.report.moves, b.report.moves);
  EXPECT_EQ(a.report.merges, b.report.merges);
  EXPECT_EQ(a.report.hoists, b.report.hoists);
  EXPECT_EQ(a.report.initial_hard, b.report.initial_hard);
  EXPECT_EQ(a.report.initial_total, b.report.initial_total);
  EXPECT_EQ(a.report.log, b.report.log);
  EXPECT_EQ(keys_of(a.report.final_check), keys_of(b.report.final_check));
  // Identical placements, not just identical scores.
  EXPECT_EQ(mp::print(fast_p), mp::print(slow_p));
  return a.report;
}

/// Move kinds a grid exercised, so each grid can show it reached them.
struct MoveTally {
  int repaired = 0;
  int moves = 0;
  int merges = 0;
  int hoists = 0;

  void add(const place::RepairReport& r) {
    repaired += r.moves + r.merges + r.hoists > 0 ? 1 : 0;
    moves += r.moves;
    merges += r.merges;
    hoists += r.hoists;
  }
};

TEST(IncrementalRepair, MatchesLegacyReportAndProgram) {
  MoveTally tally;
  for (const std::uint64_t seed : {1u, 7u, 26u, 42u})
    for (const int segments : {8, 16, 24})
      tally.add(expect_same_repair(repair_case(seed, segments)));
  EXPECT_GT(tally.repaired, 3);
  EXPECT_GT(tally.merges, 0);
}

TEST(IncrementalRepair, MatchesLegacyOnAlignedPrograms) {
  // Aligned placements still violate around collectives. Seed 48 moves a
  // checkpoint onto a run that already holds one, so it checks the rank
  // a move lands on.
  MoveTally tally;
  for (const std::uint64_t seed : {12u, 48u}) {
    RepairCase c = repair_case(seed, 12);
    c.gen.misalign_checkpoints = false;
    tally.add(expect_same_repair(c));
  }
  EXPECT_GT(tally.repaired, 0);
}

TEST(IncrementalRepair, MatchesLegacyUnderStrictPolicy) {
  MoveTally tally;
  for (const std::uint64_t seed : {2u, 5u, 13u}) {
    for (const int segments : {6, 12}) {
      RepairCase c = repair_case(seed, segments);
      c.policy = RepairPolicy::kStrict;
      tally.add(expect_same_repair(c));
    }
  }
  EXPECT_GT(tally.hoists, 0);
}

TEST(IncrementalRepair, MatchesLegacyOnIrregularPrograms) {
  MoveTally tally;
  for (const std::uint64_t seed : {3u, 9u, 21u}) {
    RepairCase c = repair_case(seed, 12);
    c.gen.allow_irregular = true;
    tally.add(expect_same_repair(c));
  }
  EXPECT_GT(tally.repaired, 0);
}

TEST(IncrementalRepair, MatchesLegacyAfterPhaseOneInsertion) {
  MoveTally tally;
  for (const std::uint64_t seed : {4u, 8u, 15u}) {
    RepairCase c = repair_case(seed, 10);
    c.gen.checkpoint_probability = 0.0;  // analyze_and_place inserts
    tally.add(expect_same_repair(c));
  }
  EXPECT_GT(tally.repaired, 0);
}

TEST(IncrementalRepair, MatchesLegacyOnLargePrograms) {
  MoveTally tally;
  for (const int segments : {28, 32}) {
    RepairCase c = repair_case(/*seed=*/6, segments);
    c.gen.allow_irregular = segments == 32;
    tally.add(expect_same_repair(c));
  }
  EXPECT_GT(tally.repaired, 0);
}

TEST(IncrementalRepair, MatchesLegacyOnHandWrittenCounterexample) {
  MoveTally tally;
  for (const RepairPolicy policy :
       {RepairPolicy::kAlignedInstances, RepairPolicy::kStrict}) {
    mp::Program fast_p = mp::parse(kJacobi2);
    mp::Program slow_p = mp::parse(kJacobi2);
    RepairOptions fast;
    fast.policy = policy;
    const auto a = place::repair_placement(fast_p, fast);
    const auto b = place::reference::repair_placement(slow_p, fast);
    EXPECT_TRUE(a.success);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.hoists, b.hoists);
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(mp::print(fast_p), mp::print(slow_p));

    // The canonical shapes, collectives included.
    for (const std::string& name : mp::workload_names()) {
      RepairCase c;
      c.workload = name;
      c.policy = policy;
      tally.add(expect_same_repair(c));
    }
  }
  EXPECT_GT(tally.repaired, 0);
}

TEST(IncrementalRepair, UnbalancingMergeThrowsLikeLegacy) {
  // Under kStrict the loop-carried self-violation of "a" merges it with the
  // first same-index checkpoint of the other arm, "b", which sits in a
  // nested if: its sibling "c" is left alone and the placement is
  // unbalanced. Both paths must stop with the same Phase-I diagnostic.
  constexpr const char* kNested = R"(
    program nested {
      for it in 0 .. 4 {
        if (rank % 2 == 0) {
          checkpoint "a";
          send to rank + 1 tag 1;
        } else {
          if (rank == 1) { checkpoint "b"; } else { checkpoint "c"; }
          recv from rank - 1 tag 1;
        }
      }
    })";
  std::string errors[2];
  for (const bool reference : {false, true}) {
    mp::Program p = mp::parse(kNested);
    RepairOptions opts;
    opts.policy = RepairPolicy::kStrict;
    try {
      if (reference)
        place::reference::repair_placement(p, opts);
      else
        place::repair_placement(p, opts);
    } catch (const util::ProgramError& e) {
      errors[reference ? 1 : 0] = e.what();
    }
  }
  EXPECT_NE(errors[0].find("unbalanced checkpoint counts"), std::string::npos)
      << errors[0];
  EXPECT_EQ(errors[0], errors[1]);
}

TEST(IncrementalRepair, MatchesLegacyWithAttributeRefinement) {
  for (const std::uint64_t seed : {3u, 17u}) {
    mp::Program fast_p = generated(seed, 10);
    mp::Program slow_p = generated(seed, 10);
    RepairOptions fast;
    fast.check.attribute_refinement = true;
    const auto a = place::repair_placement(fast_p, fast);
    const auto b = place::reference::repair_placement(slow_p, fast);
    EXPECT_EQ(a.success, b.success) << "seed=" << seed;
    EXPECT_EQ(a.log, b.log) << "seed=" << seed;
    EXPECT_EQ(keys_of(a.final_check), keys_of(b.final_check));
    EXPECT_EQ(mp::print(fast_p), mp::print(slow_p)) << "seed=" << seed;
  }
}

TEST(IncrementalRepair, IterationCapMatchesLegacy) {
  for (const int cap : {0, 1, 2, 5}) {
    mp::Program fast_p = generated(/*seed=*/7, /*segments=*/16);
    mp::Program slow_p = generated(/*seed=*/7, /*segments=*/16);
    RepairOptions fast;
    fast.max_iterations = cap;
    const auto a = place::repair_placement(fast_p, fast);
    const auto b = place::reference::repair_placement(slow_p, fast);
    EXPECT_EQ(a.success, b.success) << "cap=" << cap;
    EXPECT_EQ(a.initial_total, b.initial_total) << "cap=" << cap;
    EXPECT_EQ(a.initial_hard, b.initial_hard) << "cap=" << cap;
    if (cap == 0) {
      // No move is allowed, so the initial counts describe the final check.
      EXPECT_EQ(a.initial_total,
                static_cast<int>(a.final_check.violations.size()));
      EXPECT_EQ(a.initial_hard, a.final_check.hard_count());
    }
    EXPECT_EQ(a.log, b.log) << "cap=" << cap;
    EXPECT_EQ(keys_of(a.final_check), keys_of(b.final_check))
        << "cap=" << cap;
    EXPECT_EQ(mp::print(fast_p), mp::print(slow_p)) << "cap=" << cap;
  }
}

// ---------------------------------------------------------------------------
// The lemma behind the repair skeleton: no move changes the
// checkpoint-free part of the extended CFG.
// ---------------------------------------------------------------------------

/// A rebuild-stable name for a non-checkpoint CFG node: its statement and
/// kind. A join has no statement; it is named by the branch it closes
/// (the join's immediate dominator). Entry and exit are unique by kind.
using NodeKey = std::pair<const mp::Stmt*, cfg::NodeKind>;

struct GraphShape {
  std::set<std::pair<NodeKey, NodeKey>> reach;
  std::set<std::pair<NodeKey, NodeKey>> reach_acyclic;
  std::set<std::pair<NodeKey, NodeKey>> message_edges;
};

GraphShape shape_of(const match::ExtendedCfg& ext) {
  const cfg::Cfg& g = ext.graph();
  const auto key = [&g](cfg::NodeId id) -> NodeKey {
    const cfg::Node& n = g.node(id);
    if (n.kind == cfg::NodeKind::kJoin)
      return {g.node(g.idom(id)).stmt, n.kind};
    return {n.stmt, n.kind};
  };
  std::vector<cfg::NodeId> nodes;
  for (cfg::NodeId id = 0; id < g.node_count(); ++id)
    if (g.node(id).kind != cfg::NodeKind::kCheckpoint) nodes.push_back(id);
  GraphShape out;
  for (const cfg::NodeId a : nodes) {
    for (const cfg::NodeId b : nodes) {
      if (g.reaches(a, b)) out.reach.emplace(key(a), key(b));
      if (g.reaches_acyclic(a, b)) out.reach_acyclic.emplace(key(a), key(b));
    }
  }
  for (const auto& e : ext.message_edges())
    out.message_edges.emplace(key(e.send), key(e.recv));
  return out;
}

TEST(RepairSkeleton, CheckpointFreeGraphIsInvariantUnderEveryMove) {
  MoveTally tally;
  int rounds = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u}) {
    for (const RepairPolicy policy :
         {RepairPolicy::kAlignedInstances, RepairPolicy::kStrict}) {
      RepairCase c = repair_case(seed, 6 + static_cast<int>(seed % 3) * 2);
      c.policy = policy;
      c.gen.allow_irregular = seed % 2 == 1;
      SCOPED_TRACE(describe(c));
      mp::Program full = mp::generate_program(c.gen);
      RepairOptions opts;
      opts.policy = policy;
      const auto report = place::repair_placement(full, opts);
      tally.add(report);
      const int steps = report.moves + report.merges + report.hoists;

      // Each round repairs a fresh copy capped at k moves and compares its
      // Ĝ with the copy's own initial Ĝ: non-checkpoint statements never
      // move, so their addresses name the same nodes before and after.
      for (int k = 1; k <= steps; ++k) {
        mp::Program program = mp::generate_program(c.gen);
        const GraphShape before = shape_of(match::build_extended_cfg(program));
        opts.max_iterations = k;
        place::repair_placement(program, opts);
        const GraphShape after = shape_of(match::build_extended_cfg(program));
        EXPECT_EQ(before.reach, after.reach) << "k=" << k;
        EXPECT_EQ(before.reach_acyclic, after.reach_acyclic) << "k=" << k;
        EXPECT_EQ(before.message_edges, after.message_edges) << "k=" << k;
        ++rounds;
      }
    }
  }
  EXPECT_GT(rounds, 20);
  EXPECT_GT(tally.moves, 0);
  EXPECT_GT(tally.merges, 0);
  EXPECT_GT(tally.hoists, 0);
}

// ---------------------------------------------------------------------------
// Differential corpus (slow tier): the engine vs the reference over
// hundreds of generated programs.
// ---------------------------------------------------------------------------

// 100 seeds × misaligned {off, on} = 200 programs, sizes cycling through
// 6..22 segments. Collectives and plain alignment are both represented, so
// the corpus covers shapes the small tier-1 grids above do not.
mp::Program corpus_program(int index, bool misalign) {
  mp::GenerateOptions opts;
  opts.seed = 0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(index);
  opts.segments = 6 + (index % 5) * 4;
  opts.misalign_checkpoints = misalign;
  return mp::generate_program(opts);
}

TEST(DifferentialCorpusSlow, HopClosureMatchesPairwiseOn200Programs) {
  int programs = 0;
  for (int index = 0; index < 100; ++index) {
    for (const bool misalign : {false, true}) {
      SCOPED_TRACE("index=" + std::to_string(index) +
                   " misalign=" + std::to_string(misalign));
      expect_same_check(corpus_program(index, misalign), {});
      ++programs;
    }
  }
  EXPECT_GE(programs, 200);
}

/// The repair corpus adds the shapes the analyze workload uses: irregular
/// patterns, checkpoint-free inputs placed by Phase I, the strict policy
/// and programs of up to 32 segments.
RepairCase repair_corpus_case(int index, bool misalign) {
  static constexpr int kSegments[] = {6, 10, 14, 18, 22, 24, 28, 32};
  RepairCase c;
  c.gen.seed = 0x5eedULL * 2654435761ULL + static_cast<std::uint64_t>(index);
  c.gen.segments = kSegments[index % 8];
  c.gen.misalign_checkpoints = misalign;
  c.gen.allow_irregular = index % 4 == 0;
  if (index % 7 == 3) c.gen.checkpoint_probability = 0.0;
  if (index % 3 == 1) c.policy = RepairPolicy::kStrict;
  return c;
}

TEST(DifferentialCorpusSlow, IncrementalRepairMatchesFullOn200Programs) {
  int programs = 0;
  MoveTally tally;
  for (int index = 0; index < 100; ++index) {
    for (const bool misalign : {false, true}) {
      tally.add(expect_same_repair(repair_corpus_case(index, misalign)));
      ++programs;
    }
  }
  EXPECT_GE(programs, 200);
  // The corpus must actually exercise the repair loop, not just the check.
  EXPECT_GT(tally.repaired, 20);
  EXPECT_GT(tally.merges, 0);
  EXPECT_GT(tally.hoists, 0);
}

// ---------------------------------------------------------------------------
// Satisfiability memoization
// ---------------------------------------------------------------------------

TEST(SatCacheDifferential, CachedAndUncachedAgreeWithNonzeroHitRate) {
  const mp::Program p = generated(/*seed=*/23, /*segments=*/18);

  match::MatchOptions uncached;
  uncached.sat.use_cache = false;
  const match::ExtendedCfg plain = match::build_extended_cfg(p, uncached);

  attr::global_sat_cache().clear();
  const match::ExtendedCfg cached = match::build_extended_cfg(p);
  // Identical verdicts: same matched pairs with the same example witnesses.
  ASSERT_EQ(cached.message_edges().size(), plain.message_edges().size());
  for (size_t i = 0; i < plain.message_edges().size(); ++i) {
    const auto& a = cached.message_edges()[i];
    const auto& b = plain.message_edges()[i];
    EXPECT_EQ(a.send, b.send);
    EXPECT_EQ(a.recv, b.recv);
    EXPECT_EQ(a.witness.nprocs, b.witness.nprocs);
    EXPECT_EQ(a.witness.sender, b.witness.sender);
    EXPECT_EQ(a.witness.receiver, b.witness.receiver);
  }

  // Rebuilding the same program hits the cache — every query repeats.
  const auto before = attr::global_sat_cache().stats();
  const match::ExtendedCfg again = match::build_extended_cfg(p);
  const auto after = attr::global_sat_cache().stats();
  EXPECT_EQ(again.message_edges().size(), plain.message_edges().size());
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

}  // namespace

// Tests for the attribute-aware path-feasibility refinement: attribute
// combination, spurious-violation elimination (the master/worker loop
// case), preservation of real violations (soundness on the whole safety
// corpus), and its effect on strict-mode repair.
#include <gtest/gtest.h>

#include <optional>

#include "attr/attr.h"
#include "match/match.h"
#include "mp/generate.h"
#include "mp/parser.h"
#include "mp/printer.h"
#include "place/place.h"
#include "place_reference.h"
#include "sim/engine.h"
#include "trace/analysis.h"

namespace {

using namespace acfc;
using match::build_extended_cfg;
using mp::Expr;
using mp::Pred;

const match::ExtendedCfg::RefineOptions kRefine;  // the defaults

/// The reference classification of (from, to), refined under `refine` if
/// given, expected to equal check_condition1's verdict on the pair.
match::PathClass classify_checked(
    const match::ExtendedCfg& ext, cfg::NodeId from, cfg::NodeId to,
    std::optional<match::ExtendedCfg::RefineOptions> refine = std::nullopt) {
  place::CheckOptions opts;
  opts.attribute_refinement = refine.has_value();
  if (refine) opts.refine = *refine;
  const match::PathClass pc =
      refine ? place::reference::classify_paths_refined(ext, from, to, *refine)
             : place::reference::classify_paths(ext, from, to);
  const match::PathClass engine = place::reference::path_class_in(
      place::check_condition1(ext, opts), from, to);
  EXPECT_EQ(engine.has_message_path, pc.has_message_path);
  EXPECT_EQ(engine.message_path_without_back_edge,
            pc.message_path_without_back_edge);
  return pc;
}

// ---------------------------------------------------------------------------
// combine_attributes
// ---------------------------------------------------------------------------

TEST(CombineAttr, MergesGuards) {
  attr::PathAttribute a, b;
  a.guards.emplace_back(Pred::eq(Expr::rank(), Expr::constant(0)), true);
  b.guards.emplace_back(Pred::gt(Expr::nprocs(), Expr::constant(2)), true);
  const auto c = attr::combine_attributes(a, b, 1);
  EXPECT_EQ(c.guards.size(), 2u);
  EXPECT_TRUE(attr::satisfiable(c));
}

TEST(CombineAttr, ContradictoryGuardsUnsatisfiable) {
  attr::PathAttribute a, b;
  a.guards.emplace_back(
      Pred::eq(Expr::rank() % Expr::constant(2), Expr::constant(0)), true);
  b.guards.emplace_back(
      Pred::eq(Expr::rank() % Expr::constant(2), Expr::constant(1)), true);
  EXPECT_FALSE(attr::satisfiable(attr::combine_attributes(a, b, 1)));
}

TEST(CombineAttr, LoopVariablesAreRenamedApart) {
  // Both attributes bind "w", but in different iterations; unification
  // would wrongly conclude the same value.
  attr::PathAttribute a, b;
  a.loops.push_back({"w", Expr::constant(0), Expr::constant(4)});
  a.guards.emplace_back(Pred::eq(Expr::loop_var("w"), Expr::constant(1)),
                        true);
  b.loops.push_back({"w", Expr::constant(0), Expr::constant(4)});
  b.guards.emplace_back(Pred::eq(Expr::loop_var("w"), Expr::constant(3)),
                        true);
  // w==1 ∧ w==3 would contradict if unified; renamed apart it must not.
  EXPECT_TRUE(attr::satisfiable(attr::combine_attributes(a, b, 1)));
}

TEST(CombineAttr, RenamedBoundsStayLinked) {
  // b's inner loop bound references b's outer variable; the rename must
  // rewrite the bound consistently.
  attr::PathAttribute a, b;
  b.loops.push_back({"i", Expr::constant(2), Expr::constant(3)});
  b.loops.push_back({"j", Expr::constant(0), Expr::loop_var("i")});
  b.guards.emplace_back(Pred::ge(Expr::loop_var("j"), Expr::constant(2)),
                        true);
  // j ∈ [0, i) with i = 2 ⇒ j ∈ {0, 1}: j >= 2 unsatisfiable, and the
  // rename must preserve that linkage.
  EXPECT_FALSE(attr::satisfiable(attr::combine_attributes(a, b, 1)));
}

// ---------------------------------------------------------------------------
// Spurious violations eliminated, real ones kept
// ---------------------------------------------------------------------------

// Master-only checkpoint in a loop: the only self-path goes through the
// workers' arm, which rank 0 can never execute — spurious under
// refinement, flagged without it.
constexpr const char* kMasterLoop = R"(
  program master_loop {
    loop 5 {
      if (rank == 0) {
        checkpoint "m";
        for w in 1 .. nprocs { send to w tag 1; }
      } else {
        recv from 0 tag 1;
        checkpoint "w";
      }
    }
  })";

TEST(Refine, DiscardsInfeasibleSelfViolation) {
  const mp::Program p = mp::parse(kMasterLoop);
  const match::ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  cfg::NodeId master = cfg::kNoNode;
  for (const auto& n : ckpts)
    if (static_cast<const mp::CheckpointStmt*>(n.stmt)->note == "m")
      master = n.id;
  ASSERT_NE(master, cfg::kNoNode);

  // Coarse: a self message path exists (m → send ⇒ recv → back edge → m).
  const auto coarse = classify_checked(ext, master, master);
  EXPECT_TRUE(coarse.has_message_path);
  // Refined: the recv→m segment needs rank≠0 ∧ rank==0 — infeasible.
  const auto refined = classify_checked(ext, master, master, kRefine);
  EXPECT_FALSE(refined.has_message_path);
}

TEST(Refine, KeepsRealHardViolation) {
  const mp::Program p = mp::parse(kMasterLoop);
  const match::ExtendedCfg ext = build_extended_cfg(p);
  // m → w (master checkpoint before send, worker checkpoint after recv)
  // is a real same-iteration causality; refinement must keep it.
  place::CheckOptions refined_opts;
  refined_opts.attribute_refinement = true;
  const auto refined = place::check_condition1(ext, refined_opts);
  EXPECT_GE(refined.hard_count(), 1);
}

TEST(Refine, ReducesViolationCount) {
  const mp::Program p = mp::parse(kMasterLoop);
  const match::ExtendedCfg ext = build_extended_cfg(p);
  const auto coarse = place::check_condition1(ext);
  place::CheckOptions refined_opts;
  refined_opts.attribute_refinement = true;
  const auto refined = place::check_condition1(ext, refined_opts);
  EXPECT_LT(refined.violations.size(), coarse.violations.size());
}

TEST(Refine, StrictRepairNoWorseWhenRefined) {
  // Refinement never increases repair work (it can only discard
  // violations), and the repaired program is still safe. (It cannot
  // always *reduce* structural operations: once same-index checkpoints
  // merge at an arm boundary, the merged unguarded checkpoint's
  // violations are real for both checkers.)
  mp::Program coarse_prog = mp::parse(kMasterLoop);
  place::RepairOptions coarse_opts;
  coarse_opts.policy = place::RepairPolicy::kStrict;
  const auto coarse_report =
      place::repair_placement(coarse_prog, coarse_opts);
  ASSERT_TRUE(coarse_report.success);

  mp::Program refined_prog = mp::parse(kMasterLoop);
  place::RepairOptions refined_opts = coarse_opts;
  refined_opts.check.attribute_refinement = true;
  const auto refined_report =
      place::repair_placement(refined_prog, refined_opts);
  ASSERT_TRUE(refined_report.success);

  const int coarse_ops = coarse_report.moves + coarse_report.merges +
                         coarse_report.hoists;
  const int refined_ops = refined_report.moves + refined_report.merges +
                          refined_report.hoists;
  EXPECT_LE(refined_ops, coarse_ops);
  // And fewer violations were on the books to begin with.
  EXPECT_LE(refined_report.initial_total, coarse_report.initial_total);
}

TEST(Refine, MasterOnlyCommunicationFreesMasterCheckpoint) {
  // The master checkpoint has no communication at all; every coarse
  // violation involving it routes through worker-guarded statements.
  // Refinement proves (m → anything) infeasible immediately — rank 0
  // cannot execute a worker send.
  const mp::Program p = mp::parse(R"(
    program split {
      loop 4 {
        if (rank == 0) {
          checkpoint "m";
          compute 5.0;
        } else {
          checkpoint "w";
          if (rank % 2 == 1) {
            if (rank + 1 < nprocs) {
              send to rank + 1 tag 1; recv from rank + 1 tag 1;
            }
          } else {
            send to rank - 1 tag 1; recv from rank - 1 tag 1;
          }
        }
      }
    })");
  const match::ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  cfg::NodeId master = cfg::kNoNode, worker = cfg::kNoNode;
  for (const auto& n : ckpts) {
    const auto& c = *static_cast<const mp::CheckpointStmt*>(n.stmt);
    (c.note == "m" ? master : worker) = n.id;
  }
  // Coarse: graph paths exist from m through the worker arm's sends.
  EXPECT_TRUE(classify_checked(ext, master, master).has_message_path);
  EXPECT_TRUE(classify_checked(ext, master, worker).has_message_path);
  // Refined: rank 0 cannot reach any send — both discarded.
  EXPECT_FALSE(
      classify_checked(ext, master, master, kRefine).has_message_path);
  EXPECT_FALSE(
      classify_checked(ext, master, worker, kRefine).has_message_path);
  // The worker-side self causality is real and must be kept.
  EXPECT_TRUE(
      classify_checked(ext, worker, worker, kRefine).has_message_path);
}

// Soundness: refined repair still yields consistent straight cuts on the
// random corpus.
class RefinedSafety : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefinedSafety, RepairedStraightCutsStillRecoveryLines) {
  mp::GenerateOptions gopts;
  gopts.seed = GetParam();
  gopts.segments = 7;
  gopts.misalign_checkpoints = true;
  gopts.allow_collectives = false;
  mp::Program program = mp::generate_program(gopts);

  place::RepairOptions ropts;
  ropts.check.attribute_refinement = true;
  const auto report = place::repair_placement(program, ropts);
  ASSERT_TRUE(report.success) << mp::print(program);

  for (const int nprocs : {2, 4, 6}) {
    const auto result = sim::simulate(program, nprocs, 1);
    ASSERT_TRUE(result.trace.completed) << mp::print(program);
    for (const auto& cut : trace::all_straight_cuts(result.trace))
      EXPECT_TRUE(trace::analyze_cut(result.trace, cut).consistent)
          << "n=" << nprocs << "\n" << mp::print(program);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinedSafety,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Refine, NoPathMeansNoPathEitherWay) {
  const mp::Program p = mp::parse(R"(
    program quiet { checkpoint; compute 1.0; checkpoint; })");
  const match::ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  const auto refined =
      classify_checked(ext, ckpts[0].id, ckpts[1].id, kRefine);
  EXPECT_FALSE(refined.has_message_path);
}

TEST(Refine, HopBudgetIsConservative) {
  const mp::Program p = mp::parse(kMasterLoop);
  const match::ExtendedCfg ext = build_extended_cfg(p);
  const auto ckpts = ext.graph().nodes_of_kind(cfg::NodeKind::kCheckpoint);
  match::ExtendedCfg::RefineOptions opts;
  opts.max_hops = 0;  // exhausted budget: behaves like the coarse check
  const auto refined =
      classify_checked(ext, ckpts[0].id, ckpts[0].id, opts);
  const auto coarse = classify_checked(ext, ckpts[0].id, ckpts[0].id);
  EXPECT_EQ(refined.has_message_path, coarse.has_message_path);
}

TEST(Refine, UsesTheBoundsTheGraphWasMatchedUnder) {
  // The only exchange runs at nprocs >= 20, past the default world sizes.
  // Matched at a deployment scale that covers it, Ĝ has the edge and the
  // rank-0 checkpoint before the send meets the rank-1 checkpoint after
  // the receive: a real hard violation. Refinement must decide under the
  // same bounds, or it calls the exchange infeasible and keeps nothing.
  mp::Program p = mp::parse(R"(
    program gated {
      compute 1.0;
      if (nprocs >= 20) {
        if (rank == 0) {
          checkpoint;
          send to 1 tag 1;
        } else {
          if (rank == 1) { recv from 0 tag 1; }
          checkpoint;
        }
      } else {
        checkpoint;
      }
    })");
  match::MatchOptions wide;
  wide.sat.world_sizes = {2, 3, 4, 5, 8, 16, 20, 24};
  place::CheckOptions refined;
  refined.attribute_refinement = true;
  {
    const match::ExtendedCfg ext = build_extended_cfg(p, wide);
    ASSERT_EQ(ext.message_edges().size(), 1u);
    EXPECT_EQ(place::check_condition1(ext).hard_count(), 1);
    EXPECT_EQ(place::check_condition1(ext, refined).hard_count(), 1);
  }
  place::RepairOptions ropts;
  ropts.match = wide;
  ropts.check = refined;
  const place::RepairReport report = place::repair_placement(p, ropts);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.initial_hard, 1);
  EXPECT_EQ(report.moves, 1);
  EXPECT_EQ(report.final_check.hard_count(), 0);
}

}  // namespace

// sim::Model's compiled code against the AST it was compiled from.
//
// ModelCode holds every compiled root — send destinations, receive
// sources, collective roots, loop bounds and branch conditions — to
// mp::Expr::eval / mp::Pred::eval at many (rank, n, loop environment)
// points: same value, same success or failure, same irregular instance
// counters. ModelIndex pins the static checkpoint index to
// cfg::build_cfg(p).index_checkpoints(), and ModelUids the rejection of
// programs edited without renumber().
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfg/cfg.h"
#include "mp/generate.h"
#include "mp/parser.h"
#include "mp/subst.h"
#include "sim/engine.h"
#include "sim/model.h"
#include "sim/vm.h"
#include "util/error.h"
#include "workloads/workloads.h"

namespace acfc::sim {
namespace {

// ---------------------------------------------------------------------------
// The corpus: generated programs and the seven canonical workloads, each
// also with irregular values woven in.

/// Rewrites every loop variable `v` in its body to `v + irregular(k) % 3`
/// and every branch condition to `c && irregular(k)` or `irregular(k) ||
/// c`, alternately: irregular leaves in every operand position, on both
/// sides of And/Or. Expressions only, so uids stand.
void irregularize(mp::Block& block, int& next_id) {
  for (auto& stmt : block.stmts) {
    if (stmt->kind() == mp::StmtKind::kIf) {
      auto& c = static_cast<mp::IfStmt&>(*stmt);
      const mp::Pred leaf = mp::Pred::irregular(next_id);
      c.cond = next_id++ % 2 == 0 ? (c.cond && leaf) : (leaf || c.cond);
      irregularize(c.then_body, next_id);
      irregularize(c.else_body, next_id);
    } else if (stmt->kind() == mp::StmtKind::kLoop) {
      auto& c = static_cast<mp::LoopStmt&>(*stmt);
      mp::substitute_in_block(
          c.body, c.var,
          mp::Expr::loop_var(c.var) +
              mp::Expr::irregular(next_id++) % mp::Expr::constant(3));
      irregularize(c.body, next_id);
    }
  }
}

std::vector<mp::Program> corpus() {
  std::vector<mp::Program> base;
  for (int index = 0; index < 24; ++index) {
    mp::GenerateOptions gen;
    gen.seed = 0x5eedULL + static_cast<std::uint64_t>(index);
    gen.segments = 4 + index % 5 * 2;
    gen.misalign_checkpoints = index % 3 == 1;
    gen.allow_irregular = index % 2 == 0;
    gen.loop_probability = 0.5;
    base.push_back(mp::generate_program(gen));
  }
  mp::WorkloadParams params;
  params.iterations = 3;
  for (const std::string& name : mp::workload_names())
    base.push_back(mp::workload_by_name(name, params));
  std::vector<mp::Program> out;
  for (mp::Program& program : base) {
    mp::Program woven = program.clone();
    woven.name += "+irregular";
    int next_id = 1;
    irregularize(woven.body, next_id);
    out.push_back(std::move(program));
    out.push_back(std::move(woven));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Differential evaluation.

/// A user resolver whose values include zero and negatives, so irregular
/// operands also reach division by zero and negative modulo.
std::int64_t skewed_irregular(const mp::IrregularRequest& req) {
  return (req.irregular_id * 31 + req.rank * 7 + req.instance * 5) %
             (req.nprocs + 3) -
         2;
}

/// One evaluation point: who evaluates, and the loop values.
struct Point {
  int rank = 0;
  int nprocs = 2;
  int env_seed = 0;
  const mp::IrregularResolver* user = nullptr;  ///< nullptr: default hash
};

std::int64_t loop_value(const Point& at, int depth) {
  // Small values of both signs, zero included.
  return (at.env_seed * 7 + depth * 3 + at.rank) % 6 - 2;
}

/// Walks a program the way the VM's control stack does and compares every
/// compiled root with the AST evaluation at one point. Counters carry over
/// from root to root, so instance numbering is compared too.
class Differ {
 public:
  Differ(const Model& model, const Point& at) : model_(model), at_(at) {
    reference_resolver_ = [this](const mp::IrregularRequest& req) {
      mp::IrregularRequest numbered = req;
      numbered.instance = ref_counts_[req.irregular_id]++;
      return at_.user != nullptr ? (*at_.user)(numbered)
                                 : default_irregular(numbered);
    };
  }

  /// Number of roots compared.
  int run() {
    const mp::Block& body = model_.program().body;
    if (!body.empty()) walk(body, nullptr);
    return compared_;
  }

  int failures() const { return failures_; }

 private:
  void walk(const mp::Block& block, const mp::LoopStmt* loop) {
    const std::int64_t value =
        loop == nullptr ? 0 : loop_value(at_, static_cast<int>(stack_.size()));
    stack_.push_back(Frame{&block, 0, loop, value, 0});
    if (loop != nullptr) env_.emplace_back(loop->var, value);
    for (const auto& stmt : block.stmts) visit(*stmt);
    if (loop != nullptr) env_.pop_back();
    stack_.pop_back();
  }

  void visit(const mp::Stmt& stmt) {
    const StmtCode& code = model_.stmt_code(stmt.uid());
    switch (stmt.kind()) {
      case mp::StmtKind::kSend:
        check(code.roots[0], static_cast<const mp::SendStmt&>(stmt).dest);
        break;
      case mp::StmtKind::kRecv: {
        const auto& c = static_cast<const mp::RecvStmt&>(stmt);
        if (!c.any_source) check(code.roots[0], c.src);
        break;
      }
      case mp::StmtKind::kBcast:
        check(code.roots[0], static_cast<const mp::BcastStmt&>(stmt).root);
        break;
      case mp::StmtKind::kReduce:
        check(code.roots[0], static_cast<const mp::ReduceStmt&>(stmt).root);
        break;
      case mp::StmtKind::kIf: {
        const auto& c = static_cast<const mp::IfStmt&>(stmt);
        check(code.roots[0], c.cond);
        walk(c.then_body, nullptr);
        walk(c.else_body, nullptr);
        break;
      }
      case mp::StmtKind::kLoop: {
        const auto& c = static_cast<const mp::LoopStmt&>(stmt);
        check(code.roots[0], c.lo);
        check(code.roots[1], c.hi);
        walk(c.body, &c);
        break;
      }
      default:
        break;
    }
  }

  template <class Ast>
  void check(const Root& root, const Ast& ast) {
    ASSERT_GE(root.node, 0);
    ASSERT_LT(static_cast<std::size_t>(root.node), model_.code_size());
    EXPECT_EQ(root.slot >= 0, ast.loop_invariant()) << ast.str();
    mp::EvalCtx ctx;
    ctx.rank = at_.rank;
    ctx.nprocs = at_.nprocs;
    ctx.env = env_;
    ctx.resolver = &reference_resolver_;
    std::optional<std::int64_t> want;
    if (const auto v = ast.eval(ctx)) want = static_cast<std::int64_t>(*v);
    const auto got =
        evaluate(model_, root.node,
                 EvalEnv{at_.rank, at_.nprocs, stack_.data(), &counts_,
                         at_.user});
    ++compared_;
    if (got != want || !(counts_ == ref_counts_)) {
      ++failures_;
      ADD_FAILURE() << ast.str() << " at rank " << at_.rank << " of "
                    << at_.nprocs << ", env seed " << at_.env_seed
                    << (at_.user != nullptr ? ", user resolver" : "")
                    << ": compiled "
                    << (got ? std::to_string(*got) : "none") << ", AST "
                    << (want ? std::to_string(*want) : "none");
    }
  }

  const Model& model_;
  Point at_;
  std::vector<Frame> stack_;
  std::vector<std::pair<std::string, std::int64_t>> env_;
  CounterMap counts_;
  CounterMap ref_counts_;
  mp::IrregularResolver reference_resolver_;
  int compared_ = 0;
  int failures_ = 0;
};

std::vector<Point> points(const mp::IrregularResolver* user) {
  std::vector<Point> out;
  for (const int n : {2, 3, 8, 64})
    for (const int rank : {0, 1, n - 1})
      for (int env_seed = 0; env_seed < 3; ++env_seed)
        out.push_back(Point{rank, n, env_seed, user});
  return out;
}

/// Compares every root of `program` at every point; returns the count.
int expect_compiled_matches_ast(const mp::Program& program) {
  const Model model(program);
  const mp::IrregularResolver user = skewed_irregular;
  int compared = 0;
  for (const mp::IrregularResolver* resolver :
       {static_cast<const mp::IrregularResolver*>(nullptr), &user})
    for (const Point& at : points(resolver)) {
      Differ differ(model, at);
      compared += differ.run();
      if (differ.failures() > 0) return compared;
    }
  return compared;
}

TEST(ModelCode, CorpusMatchesAstEvaluation) {
  int compared = 0;
  for (const mp::Program& program : corpus()) {
    SCOPED_TRACE(program.name);
    compared += expect_compiled_matches_ast(program);
  }
  EXPECT_GT(compared, 10000);
}

TEST(ModelCode, ShadowedLoopVariableBindsInnermost) {
  const mp::Program program = mp::parse(R"(
    program shadow {
      for i in 0 .. 2 {
        for j in i .. i + 2 {
          for i in j .. 3 {
            send to (i + 10 * j) % nprocs tag 1;
            if (i == j) { compute 1.0; }
          }
          recv from i tag 1;
        }
      }
    })");
  EXPECT_GT(expect_compiled_matches_ast(program), 0);
  // The inner send reads the innermost `i` (depth 3), the recv the outer
  // one (depth 1).
  const Model model(program);
  const mp::Stmt* send = program.find(3);
  ASSERT_EQ(send->kind(), mp::StmtKind::kSend);
  std::vector<int> depths;
  for (std::size_t k = 0; k < model.code_size(); ++k)
    if (model.code()[k].op == Op::kLoopVar) depths.push_back(model.code()[k].a);
  EXPECT_NE(std::find(depths.begin(), depths.end(), 3), depths.end());
  EXPECT_NE(std::find(depths.begin(), depths.end(), 1), depths.end());
}

TEST(ModelCode, UnboundLoopVariableFailsLazily) {
  const mp::Program program = mp::parse(R"(
    program unbound {
      for i in 0 .. 2 { send to (i + 1) % nprocs tag 1; }
      send to k tag 2;
      recv from (rank + k - k) % nprocs tag 2;
    })");
  EXPECT_GT(expect_compiled_matches_ast(program), 0);
  const Model model(program);
  EXPECT_EQ(model.code()[static_cast<std::size_t>(
                             model.stmt_code(2).roots[0].node)].op,
            Op::kUnknown);
}

TEST(ModelCode, DivisionByZeroAndEuclideanModulo) {
  const mp::Program program = mp::parse(R"(
    program arith {
      for i in 0 .. 3 {
        send to rank / (i - i) tag 1;
        send to (0 - 7 - rank) % nprocs tag 2;
        send to (0 - 7 - rank) % (0 - nprocs) tag 3;
        send to (rank - 5) / (0 - 2) + i % (i - 1) tag 4;
        recv from nprocs % (rank - rank) tag 5;
        bcast root (rank * 0 - 9) % 4;
      }
    })");
  EXPECT_GT(expect_compiled_matches_ast(program), 0);
}

TEST(ModelCode, ShortCircuitKeepsIrregularCounters) {
  // An irregular leaf on the right of a decided And/Or is never evaluated
  // and must not advance its counter; an undecided left side (unbound
  // name) still evaluates the right.
  const mp::Program program = mp::parse(R"(
    program shortcut {
      for i in 0 .. 4 {
        if (rank > 0 && irregular(1) % 2 == 0) { compute 1.0; }
        if (rank == 0 || irregular(2) > 0) { compute 1.0; }
        if (i > 1 && irregular(3)) { compute 1.0; }
        if (k > 0 && irregular(4) == 1) { compute 1.0; }
        if (k > 0 || irregular(5) == 1) { compute 1.0; }
        if (!(irregular(6)) || irregular(6) + irregular(7) > 1) {
          compute 1.0;
        }
        send to (irregular(8) + irregular(8)) % nprocs tag 1;
        send to (k + irregular(9)) % nprocs tag 2;
      }
    })");
  EXPECT_GT(expect_compiled_matches_ast(program), 0);
}

TEST(ModelCode, IrregularPredicateAndLoopBounds) {
  const mp::Program program = mp::parse(R"(
    program irregular_pred {
      for i in irregular(1) .. irregular(2) + 3 {
        if (irregular(3)) { send to (rank + 1) % nprocs tag 1; }
        if (!(irregular(3))) { recv from (rank + nprocs - 1) % nprocs tag 1; }
      }
    })");
  EXPECT_GT(expect_compiled_matches_ast(program), 0);
}

TEST(ModelCode, InvariantSlotsAreDense) {
  for (const mp::Program& program : corpus()) {
    SCOPED_TRACE(program.name);
    const Model model(program);
    std::vector<int> seen(static_cast<std::size_t>(model.slot_count()), 0);
    for (int uid = 0; uid < program.stmt_count(); ++uid)
      for (const Root& root : model.stmt_code(uid).roots)
        if (root.slot >= 0) {
          ASSERT_LT(root.slot, model.slot_count());
          ++seen[static_cast<std::size_t>(root.slot)];
        }
    for (const int uses : seen) EXPECT_EQ(uses, 1);
  }
}

TEST(ModelCode, CannotEvaluateMessagesAreUnchanged) {
  const auto error_of = [](const char* source) -> std::string {
    const mp::Program program = mp::parse(source);
    SimOptions opts;
    opts.nprocs = 3;
    try {
      Engine(program, opts).run();
    } catch (const util::ProgramError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of("program p { send to k tag 1; }"),
            "rank 0: cannot evaluate send destination: k");
  EXPECT_EQ(error_of("program p { recv from rank / 0 tag 1; }"),
            "rank 0: cannot evaluate recv source: rank / 0");
  EXPECT_EQ(error_of("program p { bcast root nprocs % (rank - rank); }"),
            "rank 0: cannot evaluate bcast root: nprocs % (rank - rank)");
  EXPECT_EQ(error_of("program p { reduce root 1 / (rank - rank); }"),
            "rank 0: cannot evaluate reduce root: 1 / (rank - rank)");
  EXPECT_EQ(error_of("program p { for i in j .. 2 { compute 1.0; } }"),
            "rank 0: cannot evaluate loop lower bound: j");
  EXPECT_EQ(error_of("program p { for i in 0 .. i { compute 1.0; } }"),
            "rank 0: cannot evaluate loop upper bound: i");
  EXPECT_EQ(error_of("program p { if (q == 1) { compute 1.0; } }"),
            "rank 0: cannot evaluate condition: q == 1");
  EXPECT_EQ(error_of("program p { if (rank == 0 && 1 / 0 > 0) { compute "
                     "1.0; } }"),
            "rank 0: cannot evaluate condition: (rank == 0 && 1 / 0 > 0)");
}

// ---------------------------------------------------------------------------
// The static checkpoint index.

TEST(ModelIndex, MatchesBuildCfgIndexCheckpoints) {
  int indexed = 0;
  for (const mp::Program& program : corpus()) {
    SCOPED_TRACE(program.name);
    const Model model(program);
    std::vector<int> want;
    try {
      const cfg::Cfg graph = cfg::build_cfg(program);
      for (const auto& [node, index] : graph.index_checkpoints().index_of) {
        const int id = static_cast<const mp::CheckpointStmt*>(
                           graph.node(node).stmt)->ckpt_id;
        if (id < 0) continue;
        if (static_cast<std::size_t>(id) >= want.size())
          want.resize(static_cast<std::size_t>(id) + 1, -1);
        want[static_cast<std::size_t>(id)] = index;
      }
    } catch (const util::ProgramError&) {
      want.clear();  // unbalanced: every index unknown
    }
    const int ids = mp::checkpoint_count(program) + 2;
    for (int id = -1; id < ids; ++id) {
      const int expected =
          id >= 0 && static_cast<std::size_t>(id) < want.size()
              ? want[static_cast<std::size_t>(id)]
              : -1;
      EXPECT_EQ(model.static_index(id), expected) << "ckpt_id " << id;
      if (expected > 0) ++indexed;
    }
  }
  EXPECT_GT(indexed, 0);
}

TEST(ModelIndex, UnbalancedProgramGivesAllUnknown) {
  const mp::Program program = mp::parse(R"(
    program unbalanced {
      loop 2 {
        if (rank == 0) { checkpoint; } else { compute 1.0; }
        checkpoint;
      }
    })");
  EXPECT_THROW(cfg::build_cfg(program).index_checkpoints(),
               util::ProgramError);
  const Model model(program);
  for (int id = -1; id < 4; ++id) EXPECT_EQ(model.static_index(id), -1);
}

// ---------------------------------------------------------------------------
// Statement uids.

constexpr const char* kRing = R"(
  program ring {
    loop 3 {
      compute 1.0;
      checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1;
    }
  })";

std::string model_error(const mp::Program& program) {
  try {
    const Model model(program);
  } catch (const util::ProgramError& e) {
    return e.what();
  }
  return "no error";
}

TEST(ModelUids, InsertWithoutRenumberIsRejected) {
  mp::Program program = mp::parse(kRing);
  mp::insert_before(program, 2, std::make_unique<mp::ComputeStmt>(0.5));
  const std::string error = model_error(program);
  EXPECT_NE(error.find("stale statement uids"), std::string::npos) << error;
  EXPECT_NE(error.find("uid -1"), std::string::npos) << error;
  EXPECT_NE(error.find("renumber"), std::string::npos) << error;
  SimOptions opts;
  opts.nprocs = 3;
  EXPECT_THROW(Engine(program, opts), util::ProgramError);

  program.renumber();
  EXPECT_EQ(model_error(program), "no error");
  EXPECT_TRUE(Engine(program, opts).run().trace.completed);
}

TEST(ModelUids, InsertAfterAndRemoveWithoutRenumberAreRejected) {
  mp::Program inserted = mp::parse(kRing);
  mp::insert_after(inserted, 4, std::make_unique<mp::ComputeStmt>(0.5));
  EXPECT_NE(model_error(inserted).find("stale statement uids"),
            std::string::npos);

  // A removal leaves no -1 uid, only a gap past the end of the range.
  mp::Program removed = mp::parse(kRing);
  mp::remove_stmt(removed, 1);
  const std::string error = model_error(removed);
  EXPECT_NE(error.find("statement 1 in preorder has uid 2"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace acfc::sim

// Differential tests of the compiled attribute solver (src/attr/solve.cpp)
// against the reference enumerator over expression trees
// (tests/attr_reference.h). Both must return the same verdict, the same
// witness (n, p, q) and leave the same budget — on every endpoint pair of
// a generated corpus and of the canonical workloads, on combined
// attributes (renamed and shadowed loop variables), under default and
// custom world sizes, under budgets small enough to run out with a
// partially bound valuation, and on hand-built corner cases.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "attr/attr.h"
#include "attr_reference.h"
#include "mp/generate.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;
using attr::LoopBinding;
using attr::MatchQuery;
using attr::PathAttribute;
using attr::SatOptions;
using mp::Expr;
using mp::Pred;

/// The option sets every query is checked under.
std::vector<std::pair<std::string, SatOptions>> option_sets() {
  std::vector<std::pair<std::string, SatOptions>> out;
  out.emplace_back("default", SatOptions{});
  SatOptions custom;
  // n = 1 has no distinct pair; 65 and 130 need more than one membership
  // word per rank.
  custom.world_sizes = {1, 9, 65, 130};
  out.emplace_back("custom world sizes", custom);
  // Empty and negative worlds have no ranks; exhaustion is still checked
  // after each of them.
  custom.world_sizes = {0, -3, 5};
  out.emplace_back("degenerate world sizes", custom);
  for (const long budget : {1L, 7L, 100L}) {
    SatOptions o;
    o.budget = budget;
    out.emplace_back("budget " + std::to_string(budget), o);
  }
  SatOptions sampled;
  sampled.max_loop_values = 3;
  sampled.allow_self_messages = true;
  out.emplace_back("3 loop values, self messages", sampled);
  return out;
}

/// Accumulates comparisons; reports the first few mismatches in full.
class Differ {
 public:
  void satisfiable(const PathAttribute& a, const std::string& opts_name,
                   const SatOptions& opts) {
    long ref_left = -1, got_left = -1;
    const bool ref = attr::reference::satisfiable(a, opts, &ref_left);
    const bool got = attr::satisfiable(a, opts, &got_left);
    ++checked_;
    if (ref == got && ref_left == got_left) return;
    std::ostringstream os;
    os << "satisfiable [" << opts_name << "] " << a.describe()
       << ": reference " << ref << " budget " << ref_left << ", compiled "
       << got << " budget " << got_left;
    fail(os.str());
  }

  void match(const MatchQuery& q, const std::string& opts_name,
             const SatOptions& opts) {
    long ref_left = -1, got_left = -1;
    const auto ref = attr::reference::find_match(q, opts, &ref_left);
    const auto got = attr::find_match(q, opts, &got_left);
    ++checked_;
    if (witness(ref) == witness(got) && ref_left == got_left) return;
    std::ostringstream os;
    os << "find_match [" << opts_name << "] " << q.sender_attr.describe()
       << " → " << q.dest.str() << " / " << q.recv_attr.describe() << " ← "
       << (q.src_any ? std::string("any") : q.src.str()) << ": reference "
       << render(ref) << " budget " << ref_left << ", compiled " << render(got)
       << " budget " << got_left;
    fail(os.str());
  }

  void both(const MatchQuery& q) {
    for (const auto& [name, opts] : option_sets()) match(q, name, opts);
  }
  void both(const PathAttribute& a) {
    for (const auto& [name, opts] : option_sets()) satisfiable(a, name, opts);
  }

  long checked() const { return checked_; }
  int failures() const { return failures_; }

 private:
  static std::tuple<bool, int, int, int> witness(
      const std::optional<attr::MatchWitness>& w) {
    if (!w) return {false, 0, 0, 0};
    return {true, w->nprocs, w->sender, w->receiver};
  }
  static std::string render(const std::optional<attr::MatchWitness>& w) {
    if (!w) return "none";
    return "(" + std::to_string(w->nprocs) + ", " + std::to_string(w->sender) +
           ", " + std::to_string(w->receiver) + ")";
  }
  void fail(const std::string& what) {
    if (failures_++ < 5) ADD_FAILURE() << what;
  }

  long checked_ = 0;
  int failures_ = 0;
};

/// The send/recv/collective queries build_extended_cfg would issue for
/// `program`, over every endpoint pair (tags ignored), deduplicated by
/// cache key; plus co-satisfiability of combined endpoint attributes.
void check_program(const mp::Program& program, Differ& differ,
                   std::set<std::string>& seen) {
  const auto attrs = attr::endpoint_attributes(program);
  struct Send { const PathAttribute* a; Expr dest; };
  struct Recv { const PathAttribute* a; Expr src; bool any; };
  std::vector<Send> sends;
  std::vector<Recv> recvs;
  std::vector<const PathAttribute*> collectives;
  mp::for_each_stmt(program, [&](const mp::Stmt& s) {
    const auto it = attrs.find(s.uid());
    if (it == attrs.end()) return;
    const PathAttribute* a = &it->second;
    if (const auto* send = mp::stmt_cast<mp::SendStmt>(&s)) {
      sends.push_back({a, send->dest});
    } else if (const auto* recv = mp::stmt_cast<mp::RecvStmt>(&s)) {
      recvs.push_back({a, recv->src, recv->any_source});
    } else {
      collectives.push_back(a);
    }
  });

  const auto query = [&](const MatchQuery& q) {
    const std::string key =
        attr::sender_side(q.sender_attr, q.dest).key +
        attr::receiver_side(q.recv_attr, q.src, q.src_any).key;
    if (seen.insert(key).second) differ.both(q);
  };
  for (const Send& s : sends) {
    for (const Recv& r : recvs) {
      query(MatchQuery{*s.a, s.dest, *r.a, r.src, r.any});
      // Phase III's hop test: the sender conjoined with another endpoint
      // of the same process, its loop variables renamed.
      query(MatchQuery{attr::combine_attributes(*s.a, *r.a, 2), s.dest, *r.a,
                       r.src, r.any});
    }
  }
  for (const PathAttribute* a : collectives)
    for (const PathAttribute* b : collectives)
      query(MatchQuery{*a, Expr::irregular(-1), *b, Expr(), true});

  std::vector<const PathAttribute*> all;
  for (const auto& [uid, a] : attrs) all.push_back(&a);
  for (const PathAttribute* a : all) {
    for (const PathAttribute* b : all) {
      const PathAttribute combined = attr::combine_attributes(*a, *b, 1);
      if (seen.insert("sat:" + attr::canonical_key(combined)).second)
        differ.both(combined);
    }
  }
}

TEST(AttrSolverDifferential, GeneratedCorpusEndpointPairs) {
  Differ differ;
  std::set<std::string> seen;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    mp::GenerateOptions g;
    g.seed = seed;
    g.segments = 4 + static_cast<int>(seed % 4);
    g.max_loop_depth = 1 + static_cast<int>(seed % 3);
    g.misalign_checkpoints = seed % 2 == 0;
    g.allow_irregular = seed % 3 == 0;
    check_program(mp::generate_program(g), differ, seen);
  }
  EXPECT_EQ(differ.failures(), 0);
  EXPECT_GT(differ.checked(), 1000);
}

TEST(AttrSolverDifferential, CanonicalWorkloadEndpointPairs) {
  Differ differ;
  std::set<std::string> seen;
  const auto names = mp::workload_names();
  EXPECT_EQ(names.size(), 7u);
  for (const std::string& name : names)
    check_program(mp::workload_by_name(name), differ, seen);
  EXPECT_EQ(differ.failures(), 0);
  EXPECT_GT(differ.checked(), 100);
}

// -- Hand-built corner cases ------------------------------------------------

PathAttribute guarded(std::vector<std::pair<Pred, bool>> guards,
                      std::vector<LoopBinding> loops = {}) {
  PathAttribute a;
  a.guards = std::move(guards);
  a.loops = std::move(loops);
  return a;
}

const Expr kRank = Expr::rank();
const Expr kN = Expr::nprocs();
Expr c(std::int64_t v) { return Expr::constant(v); }
Expr var(const char* name) { return Expr::loop_var(name); }

/// Checks `a` alone and as both sides of a match with `param`.
void check_case(Differ& differ, const PathAttribute& a, const Expr& param) {
  differ.both(a);
  differ.both(MatchQuery{a, param, a, param, false});
  differ.both(MatchQuery{a, param, PathAttribute{}, kRank - c(1), true});
  differ.both(MatchQuery{PathAttribute{}, (kRank + c(1)) % kN, a, param,
                         false});
}

TEST(AttrSolverDifferential, EuclideanModuloOfNegativeValues) {
  Differ differ;
  // (rank - 5) % 3 is Euclidean: rank 0 gives 1, never -2.
  check_case(differ, guarded({{Pred::eq((kRank - c(5)) % c(3), c(1)), true}}),
             (kRank - c(7)) % kN);
  // A negative divisor still yields a result in [0, |divisor|).
  check_case(differ,
             guarded({{Pred::eq((kRank - c(4)) % (c(0) - c(3)), c(2)), true}}),
             (c(0) - kRank) % (c(0) - kN));
  // The verdict itself: rank 0 at any n satisfies (rank - 5) % 3 == 1.
  EXPECT_TRUE(attr::satisfiable(
      guarded({{Pred::eq((kRank - c(5)) % c(3), c(1)), true},
               {Pred::eq(kRank, c(0)), true}})));
  EXPECT_FALSE(attr::satisfiable(
      guarded({{Pred::eq((kRank - c(5)) % c(3), c(0) - c(2)), true}})));
  EXPECT_EQ(differ.failures(), 0);
}

TEST(AttrSolverDifferential, DivisionAndModuloByZeroAreUnknown) {
  Differ differ;
  const Expr zero = kRank - kRank;
  check_case(differ, guarded({{Pred::eq(kRank / zero, c(3)), true}}),
             kRank % zero);
  check_case(differ, guarded({{Pred::ne(kRank % zero, c(0)), false}}),
             kRank / zero + c(1));
  // Unknown guards pass and unknown parameters are wildcards.
  EXPECT_TRUE(attr::satisfiable(guarded({{Pred::eq(kRank / zero, c(3)), true}})));
  EXPECT_TRUE(attr::find_match(MatchQuery{PathAttribute{}, kRank % zero,
                                          PathAttribute{}, kRank / zero,
                                          false})
                  .has_value());
  EXPECT_EQ(differ.failures(), 0);
}

TEST(AttrSolverDifferential, IrregularTermsInGuardsAndLoopBounds) {
  Differ differ;
  check_case(differ, guarded({{Pred::eq(Expr::irregular(1), kRank), true}}),
             Expr::irregular(2));
  check_case(differ,
             guarded({{Pred::irregular(3), false},
                      {Pred::lt(kRank, c(2)) && Pred::irregular(4), true}}),
             kRank + c(1));
  check_case(differ,
             guarded({{!(Pred::gt(kRank, c(3)) || Pred::irregular(5)), true}}),
             kRank - c(1));
  // A definite side decides a conjunction or disjunction with an unknown
  // one: (rank > 100) && irregular is false everywhere, so the attribute
  // is unsatisfiable; (rank > 100) || irregular stays unknown.
  const PathAttribute never =
      guarded({{Pred::gt(kRank, c(100)) && Pred::irregular(4), true}});
  check_case(differ, never, kRank);
  EXPECT_FALSE(attr::satisfiable(never));
  const PathAttribute never_either =
      guarded({{Pred::lt(kRank, c(100)) || Pred::irregular(4), false}});
  check_case(differ, never_either, kRank);
  EXPECT_FALSE(attr::satisfiable(never_either));
  check_case(differ,
             guarded({{Pred::gt(kRank, c(100)) || Pred::irregular(4), true}}),
             kRank);
  // Unknown loop bounds enumerate -1 ..= nprocs.
  check_case(differ,
             guarded({{Pred::eq(var("i"), kRank + c(1)), true}},
                     {{"i", c(0), Expr::irregular(6)}}),
             var("i"));
  check_case(differ,
             guarded({{Pred::eq(var("j") % c(2), c(1)), true}},
                     {{"i", Expr::irregular(7), kN},
                      {"j", var("i"), Expr::irregular(8) + var("i")}}),
             var("j") - var("i"));
  EXPECT_EQ(differ.failures(), 0);
}

TEST(AttrSolverDifferential, WideWorldsUseEveryMembershipWord) {
  // Only ranks 100 and 101 of a 130-process world talk: the achievable
  // destinations and sources sit in each rank's second membership word.
  Differ differ;
  SatOptions opts;
  opts.world_sizes = {130};
  const PathAttribute sender = guarded({{Pred::eq(kRank, c(100)), true}});
  const PathAttribute receiver = guarded({{Pred::eq(kRank, c(101)), true}});
  const MatchQuery q{sender, kRank + c(1), receiver, kRank - c(1), false};
  differ.match(q, "n = 130", opts);
  const auto w = attr::find_match(q, opts);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->nprocs, 130);
  EXPECT_EQ(w->sender, 100);
  EXPECT_EQ(w->receiver, 101);
  EXPECT_EQ(differ.failures(), 0);
}

TEST(AttrSolverDifferential, LoopSpansBeyondMaxLoopValues) {
  Differ differ;
  for (const int cap : {1, 4, 5, 64}) {
    SatOptions opts;
    opts.max_loop_values = cap;
    const std::string name = "cap " + std::to_string(cap);
    for (const std::int64_t target : {0, 2, 500, 997, 999}) {
      const PathAttribute a =
          guarded({{Pred::eq(var("i"), c(target)), true}},
                  {{"i", c(0), c(1000)}});
      differ.satisfiable(a, name, opts);
      differ.match(MatchQuery{a, var("i") % kN, PathAttribute{}, kRank, true},
                   name, opts);
    }
  }
  // Only the head and tail are sampled: i == 500 is out of reach.
  SatOptions opts;
  EXPECT_FALSE(attr::satisfiable(
      guarded({{Pred::eq(var("i"), c(500)), true}}, {{"i", c(0), c(1000)}}),
      opts));
  EXPECT_TRUE(attr::satisfiable(
      guarded({{Pred::eq(var("i"), c(999)), true}}, {{"i", c(0), c(1000)}}),
      opts));
  EXPECT_EQ(differ.failures(), 0);
}

TEST(AttrSolverDifferential, EmptyAndUnknownLoopRanges) {
  Differ differ;
  check_case(differ, guarded({}, {{"i", c(5), c(5)}}), var("i"));
  check_case(differ, guarded({}, {{"i", c(5), c(2)}}), kRank);
  check_case(differ, guarded({}, {{"i", kRank, c(1)}}), var("i") + c(1));
  check_case(differ, guarded({}, {{"i", c(0), Expr::irregular(1)}}),
             var("i"));
  check_case(differ,
             guarded({{Pred::eq(var("j"), c(0)), true}},
                     {{"i", c(0), c(2)}, {"j", var("i"), c(1)}}),
             var("i"));
  // A loop that never runs leaves the statement unreachable.
  EXPECT_FALSE(attr::satisfiable(guarded({}, {{"i", c(5), c(5)}})));
  EXPECT_EQ(differ.failures(), 0);
}

TEST(AttrSolverDifferential, ShadowedLoopVariablesUnderExhaustion) {
  // Nested bindings of one name: the inner bound reads the outer i, the
  // guard and parameter read the inner one. When the budget runs out with
  // only the outer binding bound, references fall back to it.
  Differ differ;
  const PathAttribute a =
      guarded({{Pred::eq(var("i") % c(2), kRank % c(2)), true}},
              {{"i", c(0), kN}, {"k", c(0), c(2)}, {"i", var("i"), kN}});
  check_case(differ, a, var("i") + var("k"));
  check_case(differ, attr::combine_attributes(a, a, 3), var("i"));
  // Three bindings of one name, each bound reading the one outside it:
  // the outer i is 0 or 1, the middle one 2 or 3, the inner one 20 or 30.
  // The guard holds only if it reads the inner i and the inner bound
  // reads the middle one.
  const PathAttribute nested =
      guarded({{Pred::ge(var("i"), c(20)), true}},
              {{"i", c(0), c(2)},
               {"i", var("i") + c(2), var("i") + c(3)},
               {"i", var("i") * c(10), var("i") * c(10) + c(1)}});
  check_case(differ, nested, var("i") % kN);
  EXPECT_TRUE(attr::satisfiable(nested));
  for (long budget = 1; budget <= 40; ++budget) {
    SatOptions opts;
    opts.budget = budget;
    const std::string name = "budget " + std::to_string(budget);
    differ.satisfiable(a, name, opts);
    differ.match(MatchQuery{a, var("i"), a, var("k"), false}, name, opts);
  }
  // Unbound names are unknown everywhere.
  check_case(differ, guarded({{Pred::eq(var("zz"), c(1)), true}}),
             var("zz"));
  EXPECT_EQ(differ.failures(), 0);
}

}  // namespace

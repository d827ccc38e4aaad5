// Unit tests for the performance model: the generic Markov solver, the
// paper's closed-form Γ against the numeric chain solution, overhead-ratio
// monotonicity, protocol parameterization, and figure series shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "perf_reference.h"
#include "perf/model.h"
#include "util/error.h"

namespace {

using namespace acfc;
using perf::MarkovChain;
using perf::ModelParams;
using perf::NetworkParams;
using perf::PaperConstants;

TEST(Markov, TwoStateDeterministic) {
  MarkovChain chain;
  const int a = chain.add_state("a");
  const int b = chain.add_state("b");
  chain.add_transition(a, b, 1.0, 7.0);
  const auto e = chain.expected_cost_to_absorption();
  EXPECT_DOUBLE_EQ(e[static_cast<size_t>(a)], 7.0);
  EXPECT_DOUBLE_EQ(e[static_cast<size_t>(b)], 0.0);
}

TEST(Markov, GeometricSelfLoop) {
  // Self-loop with probability q, exit with 1−q: expected loop count
  // q/(1−q), so expected cost = cost·(1/(1−q)).
  MarkovChain chain;
  const int s = chain.add_state("s");
  const int t = chain.add_state("t");
  chain.add_transition(s, s, 0.75, 2.0);
  chain.add_transition(s, t, 0.25, 2.0);
  const auto e = chain.expected_cost_to_absorption();
  EXPECT_NEAR(e[static_cast<size_t>(s)], 8.0, 1e-12);
}

TEST(Markov, ChainOfStates) {
  MarkovChain chain;
  const int a = chain.add_state("a");
  const int b = chain.add_state("b");
  const int c = chain.add_state("c");
  chain.add_transition(a, b, 1.0, 1.0);
  chain.add_transition(b, c, 1.0, 2.0);
  const auto e = chain.expected_cost_to_absorption();
  EXPECT_DOUBLE_EQ(e[static_cast<size_t>(a)], 3.0);
}

TEST(Markov, BadProbabilitiesThrow) {
  MarkovChain chain;
  const int a = chain.add_state("a");
  const int b = chain.add_state("b");
  chain.add_transition(a, b, 0.5, 1.0);  // sums to 0.5
  EXPECT_THROW(chain.expected_cost_to_absorption(), util::ProgramError);
}

TEST(Markov, NoAbsorptionPathThrows) {
  MarkovChain chain;
  const int a = chain.add_state("a");
  const int b = chain.add_state("b");
  chain.add_transition(a, b, 1.0, 1.0);
  chain.add_transition(b, a, 1.0, 1.0);
  EXPECT_THROW(chain.expected_cost_to_absorption(), util::ProgramError);
}

TEST(Markov, ExpectedVisits) {
  MarkovChain chain;
  const int s = chain.add_state("s");
  const int t = chain.add_state("t");
  chain.add_transition(s, s, 0.5, 1.0);
  chain.add_transition(s, t, 0.5, 1.0);
  // Visits to s from s: 1/(1−0.5) = 2 (including the initial visit).
  EXPECT_NEAR(chain.expected_visits(s, s), 2.0, 1e-12);
}

TEST(Markov, LinearSolver) {
  // 2x + y = 5; x − y = 1 → x = 2, y = 1.
  const auto x = perf::solve_linear({{2, 1}, {1, -1}}, {5, 1});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Markov, SingularSolverThrows) {
  EXPECT_THROW(perf::solve_linear({{1, 1}, {2, 2}}, {1, 2}),
               util::ProgramError);
}

// ---------------------------------------------------------------------------
// The paper's closed form vs the exact chain solution
// ---------------------------------------------------------------------------

class GammaCrossCheck
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(GammaCrossCheck, ClosedFormEqualsChainSolution) {
  const auto [lambda, T, M] = GetParam();
  ModelParams p;
  p.lambda = lambda;
  p.T = T;
  p.M = M;
  const double closed = perf::expected_interval_time(p);
  const double numeric = perf::expected_interval_time_numeric(p);
  // The generic solver computes 1 − P(R_i→R_i) by subtraction, which for
  // extreme λ(T+R+L) is ill-conditioned (the closed form is exact); scale
  // the tolerance by that condition number.
  const double cond =
      std::exp(p.lambda * (p.T + p.R + p.total_latency()));
  const double tol = std::max(1e-9, 1e-14 * cond);
  EXPECT_NEAR(numeric / closed, 1.0, tol)
      << "λ=" << lambda << " T=" << T << " M=" << M;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GammaCrossCheck,
    ::testing::Combine(::testing::Values(1e-7, 1.23e-6, 1e-4, 1e-2),
                       ::testing::Values(30.0, 300.0, 3000.0),
                       ::testing::Values(0.0, 0.1, 5.0)));

TEST(Model, GammaApproachesTforSmallLambda) {
  // With a vanishing failure rate, Γ → T + O.
  ModelParams p;
  p.lambda = 1e-12;
  EXPECT_NEAR(perf::expected_interval_time(p), p.T + p.total_overhead(),
              1e-3);
}

TEST(Model, OverheadRatioPositive) {
  ModelParams p;  // paper defaults
  EXPECT_GT(perf::overhead_ratio(p), 0.0);
}

TEST(Model, OverheadRatioIncreasesWithLambda) {
  ModelParams a, b;
  a.lambda = 1e-6;
  b.lambda = 1e-4;
  EXPECT_LT(perf::overhead_ratio(a), perf::overhead_ratio(b));
}

TEST(Model, OverheadRatioIncreasesWithM) {
  ModelParams a, b;
  b.M = 10.0;
  EXPECT_LT(perf::overhead_ratio(a), perf::overhead_ratio(b));
}

TEST(Model, SystemFailureRate) {
  EXPECT_NEAR(perf::system_failure_rate(1.23e-6, 1), 1.23e-6, 1e-12);
  // ≈ n·p for small p.
  EXPECT_NEAR(perf::system_failure_rate(1.23e-6, 100), 100 * 1.23e-6,
              1e-8);
  EXPECT_GT(perf::system_failure_rate(1.23e-6, 200),
            perf::system_failure_rate(1.23e-6, 100));
}

TEST(Model, ProtocolCoordinationTimes) {
  NetworkParams net;
  net.w_m = 2e-3;
  net.w_b = 1e-6;
  const double per_msg = 2e-3 + 8e-6;
  EXPECT_DOUBLE_EQ(perf::protocol_coordination_time(
                       proto::Protocol::kAppDriven, 16, net),
                   0.0);
  EXPECT_DOUBLE_EQ(perf::protocol_coordination_time(
                       proto::Protocol::kSyncAndStop, 16, net),
                   5 * 15 * per_msg);
  EXPECT_DOUBLE_EQ(perf::protocol_coordination_time(
                       proto::Protocol::kChandyLamport, 16, net),
                   2 * 16 * 15 * per_msg);
}

TEST(Model, ParamsForUsesPaperConstants) {
  const ModelParams p =
      perf::params_for(proto::Protocol::kAppDriven, 8);
  EXPECT_DOUBLE_EQ(p.o, 1.78);
  EXPECT_DOUBLE_EQ(p.l, 4.292);
  EXPECT_DOUBLE_EQ(p.R, 3.32);
  EXPECT_DOUBLE_EQ(p.T, 300.0);
  EXPECT_DOUBLE_EQ(p.M, 0.0);
  EXPECT_NEAR(p.lambda, perf::system_failure_rate(1.23e-6, 8), 1e-15);
}

// ---------------------------------------------------------------------------
// Figure shapes (the paper's qualitative claims)
// ---------------------------------------------------------------------------

TEST(Figure8, AppDrivenAlwaysLowest) {
  const auto series =
      perf::figure8_series({2, 4, 8, 16, 32, 64, 128, 256, 512});
  ASSERT_EQ(series.size(), 3u);
  const auto& app = series[0];
  const auto& sas = series[1];
  const auto& cl = series[2];
  ASSERT_EQ(app.name, "appl-driven");
  for (size_t i = 0; i < app.points.size(); ++i) {
    EXPECT_LT(app.points[i].second, sas.points[i].second) << "point " << i;
    EXPECT_LT(app.points[i].second, cl.points[i].second) << "point " << i;
  }
}

TEST(Figure8, ClGrowsFasterThanSaS) {
  // C-L's quadratic message count must overtake SaS's linear one.
  const auto series = perf::figure8_series({64, 128, 256, 512});
  const auto& sas = series[1];
  const auto& cl = series[2];
  for (size_t i = 0; i < sas.points.size(); ++i)
    EXPECT_GT(cl.points[i].second, sas.points[i].second);
}

TEST(Figure8, OverheadGrowsWithN) {
  const auto series = perf::figure8_series({2, 32, 512});
  for (const auto& s : series)
    for (size_t i = 1; i < s.points.size(); ++i)
      EXPECT_GT(s.points[i].second, s.points[i - 1].second) << s.name;
}

TEST(Figure9, AppDrivenFlatOthersGrow) {
  const std::vector<double> wm = {1e-4, 1e-3, 1e-2, 1e-1, 1.0};
  const auto series = perf::figure9_series(wm, 32);
  const auto& app = series[0];
  const auto& sas = series[1];
  const auto& cl = series[2];
  // appl-driven is exactly flat: its M does not depend on w_m.
  for (size_t i = 1; i < app.points.size(); ++i)
    EXPECT_DOUBLE_EQ(app.points[i].second, app.points[0].second);
  // The others strictly increase in w_m.
  for (size_t i = 1; i < wm.size(); ++i) {
    EXPECT_GT(sas.points[i].second, sas.points[i - 1].second);
    EXPECT_GT(cl.points[i].second, cl.points[i - 1].second);
  }
}

TEST(Figure9, SeparationWidensWithWm) {
  const std::vector<double> wm = {1e-3, 1.0};
  const auto series = perf::figure9_series(wm, 32);
  const double gap_small = series[2].points[0].second -
                           series[0].points[0].second;
  const double gap_large = series[2].points[1].second -
                           series[0].points[1].second;
  EXPECT_GT(gap_large, gap_small * 10.0);
}

TEST(OptimalInterval, IsAMinimum) {
  ModelParams p = perf::params_for(proto::Protocol::kSyncAndStop, 64);
  const double t_star = perf::optimal_checkpoint_interval(p);
  ModelParams at = p;
  at.T = t_star;
  const double r_star = perf::overhead_ratio(at);
  for (const double factor : {0.5, 0.8, 1.25, 2.0}) {
    ModelParams off = p;
    off.T = t_star * factor;
    EXPECT_GE(perf::overhead_ratio(off), r_star - 1e-12)
        << "factor " << factor;
  }
}

TEST(OptimalInterval, MatchesYoungToFirstOrder) {
  // For small λ·T the exact optimum approaches sqrt(2·O/λ).
  ModelParams p;
  p.lambda = 1e-6;
  p.M = 0.0;
  const double t_star = perf::optimal_checkpoint_interval(p);
  const double young = perf::young_interval(p);
  EXPECT_NEAR(t_star / young, 1.0, 0.05);
}

TEST(OptimalInterval, GrowsWithCoordinationCost) {
  // More expensive checkpoints → checkpoint less often.
  ModelParams cheap = perf::params_for(proto::Protocol::kAppDriven, 64);
  ModelParams costly = cheap;
  costly.M = 50.0;
  EXPECT_GT(perf::optimal_checkpoint_interval(costly),
            perf::optimal_checkpoint_interval(cheap));
}

TEST(OptimalInterval, OrderingPreservedAtOptima) {
  // Tuning T cannot erase the coordination gap.
  double previous = -1.0;
  for (const auto protocol :
       {proto::Protocol::kAppDriven, proto::Protocol::kSyncAndStop,
        proto::Protocol::kChandyLamport}) {
    ModelParams p = perf::params_for(protocol, 128);
    p.T = perf::optimal_checkpoint_interval(p);
    const double r = perf::overhead_ratio(p);
    EXPECT_GT(r, previous);
    previous = r;
  }
}

TEST(WasteBreakdown, FractionsSumToOne) {
  for (const auto protocol :
       {proto::Protocol::kAppDriven, proto::Protocol::kChandyLamport}) {
    const auto b =
        perf::waste_breakdown(perf::params_for(protocol, 128));
    EXPECT_NEAR(b.useful + b.overhead + b.rollback, 1.0, 1e-12);
    EXPECT_GT(b.useful, 0.5);
    EXPECT_GT(b.overhead, 0.0);
    EXPECT_GE(b.rollback, 0.0);
  }
}

TEST(WasteBreakdown, CoordinationShowsUpAsOverhead) {
  const auto app = perf::waste_breakdown(
      perf::params_for(proto::Protocol::kAppDriven, 256));
  const auto cl = perf::waste_breakdown(
      perf::params_for(proto::Protocol::kChandyLamport, 256));
  EXPECT_GT(cl.overhead, app.overhead);
  EXPECT_LT(cl.useful, app.useful);
}

TEST(WasteBreakdown, RollbackGrowsWithFailureRate) {
  perf::ModelParams low = perf::params_for(proto::Protocol::kAppDriven, 8);
  perf::ModelParams high = low;
  high.lambda = 1e-3;
  EXPECT_GT(perf::waste_breakdown(high).rollback,
            perf::waste_breakdown(low).rollback);
}

TEST(IntervalChain, MatchesFigure7Shape) {
  ModelParams p;
  const auto chain = perf::interval_chain(p);
  EXPECT_EQ(chain.state_count(), 3);
  EXPECT_FALSE(chain.is_absorbing(0));  // i
  EXPECT_FALSE(chain.is_absorbing(1));  // R_i
  EXPECT_TRUE(chain.is_absorbing(2));   // i+1
}

}  // namespace

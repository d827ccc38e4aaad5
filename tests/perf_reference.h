// Test-only parts of the paper's Section-4 model (src/perf/model.h): a
// generic absorbing Markov chain with per-transition costs, Figure 7's
// 3-state interval chain built on it, and the waste breakdown of Γ.
// tests/test_perf.cpp solves the chain exactly to cross-check the closed
// form Γ that src/perf/model.cpp evaluates.
//
// For each non-absorbing state s with transitions (s → t, prob P_st,
// cost W_st), the expected cost to absorption E[s] satisfies
//     E[s] = Σ_t P_st · (W_st + E[t]),
// a linear system (I − P)·E = c with c_s = Σ_t P_st·W_st, solved by
// Gaussian elimination with partial pivoting.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "perf/model.h"
#include "util/error.h"

namespace acfc::perf {

class MarkovChain {
 public:
  /// Adds a state and returns its id.
  int add_state(std::string name);

  /// Adds a transition. Probabilities out of each non-absorbing state must
  /// sum to 1 (validated by solve).
  void add_transition(int from, int to, double prob, double cost);

  int state_count() const { return static_cast<int>(names_.size()); }
  const std::string& name(int state) const {
    return names_.at(static_cast<size_t>(state));
  }

  /// True if the state has no outgoing transitions.
  bool is_absorbing(int state) const;

  /// Expected cost to absorption from every state. Throws
  /// util::ProgramError when probabilities do not sum to 1, or when some
  /// state cannot reach absorption.
  std::vector<double> expected_cost_to_absorption() const;

  /// Expected number of visits to `target` before absorption, starting
  /// from `start` (counts the visit at time 0 if start == target).
  double expected_visits(int start, int target) const;

 private:
  struct Transition {
    int to;
    double prob;
    double cost;
  };

  std::vector<std::string> names_;
  std::vector<std::vector<Transition>> out_;
};

inline int MarkovChain::add_state(std::string name) {
  names_.push_back(std::move(name));
  out_.emplace_back();
  return static_cast<int>(names_.size()) - 1;
}

inline void MarkovChain::add_transition(int from, int to, double prob,
                                        double cost) {
  ACFC_CHECK(from >= 0 && from < state_count());
  ACFC_CHECK(to >= 0 && to < state_count());
  ACFC_CHECK_MSG(prob >= 0.0 && prob <= 1.0 + 1e-12,
                 "transition probability out of [0,1]");
  out_[static_cast<size_t>(from)].push_back({to, prob, cost});
}

inline bool MarkovChain::is_absorbing(int state) const {
  return out_.at(static_cast<size_t>(state)).empty();
}

/// Solves A·x = b by Gaussian elimination with partial pivoting (dense,
/// small systems). Throws util::ProgramError on singular systems.
inline std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                        std::vector<double> b) {
  const size_t n = b.size();
  ACFC_CHECK_MSG(a.size() == n, "matrix/vector size mismatch");
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    if (std::abs(a[pivot][col]) < 1e-300)
      throw util::ProgramError("singular linear system in Markov solve");
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < n; ++row) {
      const double f = a[row][col] / a[col][col];
      if (f == 0.0) continue;
      for (size_t k = col; k < n; ++k) a[row][k] -= f * a[col][k];
      b[row] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (size_t k = row + 1; k < n; ++k) sum -= a[row][k] * x[k];
    x[row] = sum / a[row][row];
  }
  return x;
}

inline std::vector<double> MarkovChain::expected_cost_to_absorption() const {
  const int n = state_count();
  // Identify transient states and validate stochasticity.
  std::vector<int> transient;
  std::vector<int> index_of(static_cast<size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    if (is_absorbing(s)) continue;
    double total = 0.0;
    for (const auto& t : out_[static_cast<size_t>(s)]) total += t.prob;
    if (std::abs(total - 1.0) > 1e-9)
      throw util::ProgramError("probabilities out of state '" +
                               names_[static_cast<size_t>(s)] +
                               "' sum to " + std::to_string(total));
    index_of[static_cast<size_t>(s)] = static_cast<int>(transient.size());
    transient.push_back(s);
  }

  const size_t m = transient.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  std::vector<double> c(m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const int s = transient[i];
    a[i][i] = 1.0;
    for (const auto& t : out_[static_cast<size_t>(s)]) {
      c[i] += t.prob * t.cost;
      if (!is_absorbing(t.to))
        a[i][static_cast<size_t>(index_of[static_cast<size_t>(t.to)])] -=
            t.prob;
    }
  }
  std::vector<double> e;
  try {
    e = solve_linear(std::move(a), std::move(c));
  } catch (const util::ProgramError&) {
    throw util::ProgramError(
        "chain has transient states that cannot reach absorption");
  }

  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (size_t i = 0; i < m; ++i)
    out[static_cast<size_t>(transient[i])] = e[i];
  return out;
}

inline double MarkovChain::expected_visits(int start, int target) const {
  ACFC_CHECK(start >= 0 && start < state_count());
  ACFC_CHECK(target >= 0 && target < state_count());
  // Fundamental-matrix column: N = (I − Q)^{-1}; visits(start, target) =
  // N[start][target]. Solve (I − Qᵀ)·x = e_target over transient states.
  std::vector<int> transient;
  std::vector<int> index_of(static_cast<size_t>(state_count()), -1);
  for (int s = 0; s < state_count(); ++s) {
    if (is_absorbing(s)) continue;
    index_of[static_cast<size_t>(s)] = static_cast<int>(transient.size());
    transient.push_back(s);
  }
  if (index_of[static_cast<size_t>(target)] < 0 ||
      index_of[static_cast<size_t>(start)] < 0)
    return start == target ? 1.0 : 0.0;

  const size_t m = transient.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  std::vector<double> b(m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const int s = transient[i];
    a[i][i] += 1.0;
    for (const auto& t : out_[static_cast<size_t>(s)]) {
      if (is_absorbing(t.to)) continue;
      // (I − Qᵀ) row for column variables: coefficient on x[to].
      a[static_cast<size_t>(index_of[static_cast<size_t>(t.to)])][i] -=
          t.prob;
    }
  }
  b[static_cast<size_t>(index_of[static_cast<size_t>(target)])] = 1.0;
  const auto x = solve_linear(std::move(a), std::move(b));
  return x[static_cast<size_t>(index_of[static_cast<size_t>(start)])];
}


/// Builds the 3-state chain of Figure 7 (states "i", "R_i", "i+1").
inline MarkovChain interval_chain(const ModelParams& p) {
  MarkovChain chain;
  const int s_i = chain.add_state("i");
  const int s_r = chain.add_state("R_i");
  const int s_next = chain.add_state("i+1");  // absorbing

  const double to = p.T + p.total_overhead();
  const double tr = p.T + p.R + p.total_latency();
  const double p_ok = std::exp(-p.lambda * to);
  const double p_fail = 1.0 - p_ok;
  // Expected time to failure conditioned on a failure within [0, to).
  const double w_fail =
      1.0 / p.lambda - to * std::exp(-p.lambda * to) / p_fail;
  const double p_r_ok = std::exp(-p.lambda * tr);
  const double p_r_fail = 1.0 - p_r_ok;
  const double w_r_fail =
      1.0 / p.lambda - tr * std::exp(-p.lambda * tr) / p_r_fail;

  chain.add_transition(s_i, s_next, p_ok, to);
  chain.add_transition(s_i, s_r, p_fail, w_fail);
  chain.add_transition(s_r, s_next, p_r_ok, tr);
  chain.add_transition(s_r, s_r, p_r_fail, w_r_fail);
  (void)s_next;
  return chain;
}

/// Γ evaluated by building the 3-state chain and solving it exactly —
/// used to validate the closed form.
inline double expected_interval_time_numeric(const ModelParams& p) {
  const MarkovChain chain = interval_chain(p);
  return chain.expected_cost_to_absorption()[0];
}

/// Where the expected interval time Γ goes: useful work T, checkpoint +
/// coordination overhead O, and failure/rollback waste (the remainder).
/// Fractions sum to 1.
struct WasteBreakdown {
  double useful = 0.0;     ///< T / Γ
  double overhead = 0.0;   ///< O / Γ
  double rollback = 0.0;   ///< 1 − (T+O)/Γ
};

inline WasteBreakdown waste_breakdown(const ModelParams& params) {
  const double gamma = expected_interval_time(params);
  WasteBreakdown out;
  out.useful = params.T / gamma;
  out.overhead = params.total_overhead() / gamma;
  out.rollback = std::max(0.0, 1.0 - out.useful - out.overhead);
  return out;
}

}  // namespace acfc::perf

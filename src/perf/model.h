// The paper's Section-4 stochastic performance model.
//
// A checkpoint interval is the 3-state Markov chain of Figure 7:
//
//      i ──(no failure, T+O)──────────────▶ i+1
//      i ──(failure, E[TTF])──▶ R_i ──(no further failure, T+R+L)──▶ i+1
//                               R_i ──(another failure)──▶ R_i
//
// with λ the (system) failure rate, T the programmed interval, o/l the
// checkpoint overhead/latency, R the restart cost, and M, C the
// protocol's coordination overheads folded into the totals
// O = o + M + C and L = l + M + C. The expected interval completion time
// has the closed form
//
//      Γ = λ⁻¹ · (1 − e^{−λ(T+O)}) · e^{λ(T+R+L)}
//
// (which tests/perf_reference.h re-derives numerically from a generic
// chain solver), and the overhead ratio is r = Γ/T − 1.
//
// Protocol coordination terms (per checkpoint, fully connected network,
// message cost w_m + 8·w_b for the 8-bit program message):
//      M(appl-driven) = 0                      (the paper's contribution)
//      M(SaS)         = 5(n−1)(w_m + 8 w_b)
//      M(C-L)         = 2n(n−1)(w_m + 8 w_b)
//
// System failure rate for n processes with per-process rate p:
// λ(n) = 1 − (1−p)^n (the paper's formulation; ≈ n·p for small p).
//
// The Starfish-measured constants reported in the paper: o = 1.78 s,
// l = 4.292 s, R = 3.32 s, p = 1.23e-6, T = 300 s.
#pragma once

#include <string>
#include <vector>

#include "proto/protocols.h"

namespace acfc::perf {

struct ModelParams {
  double lambda = 1.23e-6;  ///< system failure rate λ
  double T = 300.0;         ///< programmed checkpoint interval
  double o = 1.78;          ///< checkpoint overhead
  double l = 4.292;         ///< checkpoint latency
  double R = 3.32;          ///< restart cost
  double M = 0.0;           ///< coordination message overhead
  double C = 0.0;           ///< other coordination overhead

  double total_overhead() const { return o + M + C; }  ///< O
  double total_latency() const { return l + M + C; }   ///< L
};

/// Expected interval completion time Γ (closed form).
double expected_interval_time(const ModelParams& params);

/// Overhead ratio r = Γ/T − 1.
double overhead_ratio(const ModelParams& params);

/// The interval T minimizing the overhead ratio with the other parameters
/// fixed (golden-section search on [t_lo, t_hi]; r is unimodal in T).
/// Useful for comparing protocols at their own best operating points and
/// for validating Phase I's first-order rule T* ≈ sqrt(2·O/λ).
double optimal_checkpoint_interval(ModelParams params, double t_lo = 1.0,
                                   double t_hi = 1e6);

/// Young's first-order approximation sqrt(2·O/λ) for the same parameters.
double young_interval(const ModelParams& params);

// -- Protocol parameterization ----------------------------------------------

struct NetworkParams {
  double w_m = 2e-3;  ///< message setup time (s)
  double w_b = 1e-6;  ///< per-bit delay (s)
};

struct PaperConstants {
  double o = 1.78;
  double l = 4.292;
  double R = 3.32;
  double p_single = 1.23e-6;  ///< per-process failure rate
  double T = 300.0;
  int message_bits = 8;       ///< size of the protocol "program message"
};

/// λ(n) = 1 − (1−p)^n.
double system_failure_rate(double p_single, int nprocs);

/// The protocol's per-checkpoint coordination time M.
double protocol_coordination_time(proto::Protocol protocol, int nprocs,
                                  const NetworkParams& net,
                                  int message_bits = 8);

/// Full model parameters for a protocol at world size n.
ModelParams params_for(proto::Protocol protocol, int nprocs,
                       const NetworkParams& net = {},
                       const PaperConstants& constants = {});

// -- Figure series ------------------------------------------------------------

struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;  ///< (x, overhead ratio)
};

/// Figure 8: overhead ratio vs number of processes, one series per
/// protocol in {appl-driven, SaS, C-L}.
std::vector<Series> figure8_series(const std::vector<int>& nprocs,
                                   const NetworkParams& net = {},
                                   const PaperConstants& constants = {});

/// Figure 9: overhead ratio vs message setup time w_m at fixed n.
std::vector<Series> figure9_series(const std::vector<double>& wm_values,
                                   int nprocs,
                                   const NetworkParams& net = {},
                                   const PaperConstants& constants = {});

}  // namespace acfc::perf

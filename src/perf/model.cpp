#include "perf/model.h"

#include <cmath>

#include "util/error.h"

namespace acfc::perf {

double expected_interval_time(const ModelParams& p) {
  ACFC_CHECK_MSG(p.lambda > 0.0, "model needs lambda > 0");
  const double a = p.lambda * (p.T + p.total_overhead());
  const double b = p.lambda * (p.T + p.R + p.total_latency());
  return (1.0 - std::exp(-a)) * std::exp(b) / p.lambda;
}

double overhead_ratio(const ModelParams& p) {
  ACFC_CHECK_MSG(p.T > 0.0, "model needs T > 0");
  return expected_interval_time(p) / p.T - 1.0;
}

double optimal_checkpoint_interval(ModelParams params, double t_lo,
                                   double t_hi) {
  ACFC_CHECK_MSG(t_lo > 0.0 && t_hi > t_lo, "bad interval search range");
  auto ratio_at = [&params](double t) {
    ModelParams p = params;
    p.T = t;
    return overhead_ratio(p);
  };
  // Golden-section search over log(T) — r varies over orders of magnitude.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = std::log(t_lo), b = std::log(t_hi);
  double c = b - phi * (b - a);
  double d = a + phi * (b - a);
  double fc = ratio_at(std::exp(c));
  double fd = ratio_at(std::exp(d));
  for (int iter = 0; iter < 200 && (b - a) > 1e-10; ++iter) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - phi * (b - a);
      fc = ratio_at(std::exp(c));
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + phi * (b - a);
      fd = ratio_at(std::exp(d));
    }
  }
  return std::exp((a + b) / 2.0);
}

double young_interval(const ModelParams& params) {
  ACFC_CHECK_MSG(params.lambda > 0.0, "young_interval needs lambda > 0");
  return std::sqrt(2.0 * params.total_overhead() / params.lambda);
}

double system_failure_rate(double p_single, int nprocs) {
  ACFC_CHECK_MSG(p_single >= 0.0 && p_single < 1.0,
                 "per-process rate out of range");
  return 1.0 - std::pow(1.0 - p_single, nprocs);
}

double protocol_coordination_time(proto::Protocol protocol, int nprocs,
                                  const NetworkParams& net,
                                  int message_bits) {
  const double per_message = net.w_m + message_bits * net.w_b;
  return static_cast<double>(
             proto::expected_control_messages(protocol, nprocs)) *
         per_message;
}

ModelParams params_for(proto::Protocol protocol, int nprocs,
                       const NetworkParams& net,
                       const PaperConstants& constants) {
  ModelParams p;
  p.lambda = system_failure_rate(constants.p_single, nprocs);
  p.T = constants.T;
  p.o = constants.o;
  p.l = constants.l;
  p.R = constants.R;
  p.M = protocol_coordination_time(protocol, nprocs, net,
                                   constants.message_bits);
  p.C = 0.0;
  return p;
}

std::vector<Series> figure8_series(const std::vector<int>& nprocs,
                                   const NetworkParams& net,
                                   const PaperConstants& constants) {
  const proto::Protocol protocols[] = {proto::Protocol::kAppDriven,
                                       proto::Protocol::kSyncAndStop,
                                       proto::Protocol::kChandyLamport};
  std::vector<Series> out;
  for (const auto protocol : protocols) {
    Series series;
    series.name = proto::protocol_name(protocol);
    for (const int n : nprocs) {
      const ModelParams p = params_for(protocol, n, net, constants);
      series.points.emplace_back(static_cast<double>(n), overhead_ratio(p));
    }
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<Series> figure9_series(const std::vector<double>& wm_values,
                                   int nprocs, const NetworkParams& net,
                                   const PaperConstants& constants) {
  const proto::Protocol protocols[] = {proto::Protocol::kAppDriven,
                                       proto::Protocol::kSyncAndStop,
                                       proto::Protocol::kChandyLamport};
  std::vector<Series> out;
  for (const auto protocol : protocols) {
    Series series;
    series.name = proto::protocol_name(protocol);
    for (const double wm : wm_values) {
      NetworkParams varied = net;
      varied.w_m = wm;
      const ModelParams p = params_for(protocol, nprocs, varied, constants);
      series.points.emplace_back(wm, overhead_ratio(p));
    }
    out.push_back(std::move(series));
  }
  return out;
}

}  // namespace acfc::perf

// Summary statistics used by the benchmark harnesses.
#pragma once

#include <cstddef>

namespace acfc::util {

/// Incremental summary statistics: count, sum, mean and range.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace acfc::util

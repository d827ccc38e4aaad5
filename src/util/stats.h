// Summary statistics used by the benchmark harnesses.
#pragma once

#include <cstddef>

namespace acfc::util {

/// Incremental running mean.
class Summary {
 public:
  void add(double x);
  double mean() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace acfc::util

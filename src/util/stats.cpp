#include "util/stats.h"

#include <algorithm>

#include "util/error.h"

namespace acfc::util {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double Summary::mean() const {
  ACFC_CHECK_MSG(n_ > 0, "mean of empty summary");
  return mean_;
}

double Summary::min() const {
  ACFC_CHECK_MSG(n_ > 0, "min of empty summary");
  return min_;
}

double Summary::max() const {
  ACFC_CHECK_MSG(n_ > 0, "max of empty summary");
  return max_;
}

}  // namespace acfc::util

#include "util/stats.h"

#include "util/error.h"

namespace acfc::util {

void Summary::add(double x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double Summary::mean() const {
  ACFC_CHECK_MSG(n_ > 0, "mean of empty summary");
  return mean_;
}

}  // namespace acfc::util

#include "core/convergence.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "data/io.hpp"

namespace ptycho {

double CostHistory::reduction() const {
  PTYCHO_CHECK(!values_.empty(), "empty cost history");
  return values_.back() / values_.front();
}

long long CostHistory::iterations_to_fraction(double fraction) const {
  PTYCHO_CHECK(!values_.empty(), "empty cost history");
  const double target = values_.front() * fraction;
  for (usize i = 0; i < values_.size(); ++i) {
    if (values_[i] <= target) return static_cast<long long>(i);
  }
  return -1;
}

double CostHistory::max_overshoot() const {
  PTYCHO_CHECK(!values_.empty(), "empty cost history");
  double running_min = values_.front();
  double worst = 0.0;
  for (double v : values_) {
    if (v > running_min) worst = std::max(worst, (v - running_min) / running_min);
    running_min = std::min(running_min, v);
  }
  return worst;
}

void CostHistory::write_csv(const std::string& path, const std::string& series_name) const {
  io::CsvWriter csv(path);
  csv.header({"iteration", series_name});
  for (usize i = 0; i < values_.size(); ++i) {
    csv.row({static_cast<double>(i), values_[i]});
  }
}

}  // namespace ptycho

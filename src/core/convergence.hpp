// Convergence tracking: per-iteration values of the cost F(V) (Fig. 9).
#pragma once

#include <string>
#include <vector>

namespace ptycho {

class CostHistory {
 public:
  void record(double cost) { values_.push_back(cost); }

  /// Replace the history wholesale (checkpoint restore: the completed
  /// iterations' costs carry over so a resumed run reports one continuous
  /// trajectory).
  void assign(std::vector<double> values) { values_ = std::move(values); }

  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double first() const { return values_.front(); }
  [[nodiscard]] double last() const { return values_.back(); }

  /// last / first — the fractional residual cost (< 1 when converging).
  [[nodiscard]] double reduction() const;

  /// Iterations needed to reach `fraction` of the initial cost; -1 if the
  /// curve never gets there.
  [[nodiscard]] long long iterations_to_fraction(double fraction) const;

  /// Largest single-iteration *increase* relative to the running minimum —
  /// an overshoot measure (the Fig. 9 "convergence overshooting" effect).
  [[nodiscard]] double max_overshoot() const;

  void write_csv(const std::string& path, const std::string& series_name) const;

 private:
  std::vector<double> values_;
};

}  // namespace ptycho

#pragma once

#include <cstddef>
#include <vector>

namespace moteur {

/// Incremental mean / variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Ordinary least-squares fit y = intercept + slope * x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Coefficient of determination in [0, 1]; 1 when all y equal (perfect fit
  /// of a constant) or when residuals vanish.
  double r_squared = 0.0;

  double operator()(double x) const { return intercept + slope * x; }
};

/// Least-squares regression over paired samples. Requires xs.size() ==
/// ys.size() and at least two distinct x values.
LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys);

/// p-th percentile (p in [0,100]) by linear interpolation between order
/// statistics. Requires a non-empty input; the input vector is copied.
double percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty input.
double mean_of(const std::vector<double>& values);

}  // namespace moteur

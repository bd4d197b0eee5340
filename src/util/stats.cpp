#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace moteur {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return min_; }
double RunningStats::max() const { return max_; }

LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys) {
  MOTEUR_REQUIRE(xs.size() == ys.size(), InternalError,
                 "linear_fit: mismatched sample sizes");
  MOTEUR_REQUIRE(xs.size() >= 2, InternalError, "linear_fit: need >= 2 samples");

  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n, my = sy / n;

  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  MOTEUR_REQUIRE(sxx > 0.0, InternalError, "linear_fit: all x values identical");

  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy <= 0.0) {
    fit.r_squared = 1.0;  // all y identical: the constant fit is exact
  } else {
    double ss_res = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double r = ys[i] - fit(xs[i]);
      ss_res += r * r;
    }
    fit.r_squared = 1.0 - ss_res / syy;
  }
  return fit;
}

double percentile(std::vector<double> values, double p) {
  MOTEUR_REQUIRE(!values.empty(), InternalError, "percentile: empty input");
  MOTEUR_REQUIRE(p >= 0.0 && p <= 100.0, InternalError, "percentile: p out of range");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean_of(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) s.add(v);
  return s.mean();
}

}  // namespace moteur

#include "model/probabilistic.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace moteur::model {

namespace {

MonteCarloEstimate run_trials(std::size_t n_w, std::size_t n_d,
                              const DurationSampler& sampler, std::size_t trials,
                              double (*sigma)(const TimeMatrix&)) {
  MOTEUR_REQUIRE(trials > 0, InternalError, "Monte-Carlo: trials must be > 0");
  RunningStats stats;
  TimeMatrix times(n_w, std::vector<double>(n_d, 0.0));
  for (std::size_t trial = 0; trial < trials; ++trial) {
    for (std::size_t i = 0; i < n_w; ++i) {
      for (std::size_t j = 0; j < n_d; ++j) times[i][j] = sampler(i, j);
    }
    stats.add(sigma(times));
  }
  return MonteCarloEstimate{stats.mean(), stats.stddev(), trials};
}

}  // namespace

MonteCarloEstimate expected_sigma_sequential(std::size_t n_w, std::size_t n_d,
                                             const DurationSampler& sampler,
                                             std::size_t trials) {
  return run_trials(n_w, n_d, sampler, trials, &sigma_sequential);
}

MonteCarloEstimate expected_sigma_dp(std::size_t n_w, std::size_t n_d,
                                     const DurationSampler& sampler, std::size_t trials) {
  return run_trials(n_w, n_d, sampler, trials, &sigma_dp);
}

MonteCarloEstimate expected_sigma_sp(std::size_t n_w, std::size_t n_d,
                                     const DurationSampler& sampler, std::size_t trials) {
  return run_trials(n_w, n_d, sampler, trials, &sigma_sp);
}

MonteCarloEstimate expected_sigma_dsp(std::size_t n_w, std::size_t n_d,
                                      const DurationSampler& sampler, std::size_t trials) {
  return run_trials(n_w, n_d, sampler, trials, &sigma_dsp);
}

double inverse_normal_cdf(double p) {
  MOTEUR_REQUIRE(p > 0.0 && p < 1.0, InternalError,
                 "inverse_normal_cdf: p must lie in (0, 1)");
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  const double p_high = 1.0 - p_low;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double expected_max_lognormal(std::size_t n, double mu, double sigma) {
  MOTEUR_REQUIRE(n > 0, InternalError, "expected_max_lognormal: n must be > 0");
  if (n == 1) return std::exp(mu + 0.5 * sigma * sigma);
  const double p = static_cast<double>(n) / static_cast<double>(n + 1);
  return std::exp(mu + sigma * inverse_normal_cdf(p));
}

double approx_sigma_dp_lognormal(std::size_t n_w, std::size_t n_d, double mu,
                                 double sigma) {
  return static_cast<double>(n_w) * expected_max_lognormal(n_d, mu, sigma);
}

}  // namespace moteur::model

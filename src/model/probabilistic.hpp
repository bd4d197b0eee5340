#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "model/makespan.hpp"

namespace moteur::model {

/// Probabilistic extension of the §3.5 model (the "probabilistic modeling
/// considering the variable nature of the grid" the paper proposes as future
/// work, §5.4, ref [12]): instead of constant T, per-(service, data) times
/// are random. Expected makespans are estimated by Monte-Carlo over the
/// exact formulas, plus a closed-form approximation for the DP case.

/// Draws one T_ij. Called nW * nD times per trial.
using DurationSampler = std::function<double(std::size_t service, std::size_t data)>;

struct MonteCarloEstimate {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t trials = 0;
};

/// Estimate E[Sigma_policy] for each policy by resampling the time matrix.
MonteCarloEstimate expected_sigma_sequential(std::size_t n_w, std::size_t n_d,
                                             const DurationSampler& sampler,
                                             std::size_t trials);
MonteCarloEstimate expected_sigma_dp(std::size_t n_w, std::size_t n_d,
                                     const DurationSampler& sampler, std::size_t trials);
MonteCarloEstimate expected_sigma_sp(std::size_t n_w, std::size_t n_d,
                                     const DurationSampler& sampler, std::size_t trials);
MonteCarloEstimate expected_sigma_dsp(std::size_t n_w, std::size_t n_d,
                                      const DurationSampler& sampler, std::size_t trials);

/// Inverse standard-normal CDF (Acklam's rational approximation, |error| <
/// 1.15e-9). Used by the closed-form extreme-value approximations.
double inverse_normal_cdf(double p);

/// Closed-form approximation of E[max of n i.i.d. Lognormal(mu, sigma)]
/// using the expected-quantile heuristic E[max_n] ~ quantile(n/(n+1)).
double expected_max_lognormal(std::size_t n, double mu, double sigma);

/// Approximate E[Sigma_DP] when every T_ij ~ Lognormal(mu, sigma) i.i.d.:
/// nW * E[max over nD draws]. Exposes why DP's measured speed-up falls short
/// of the deterministic prediction S_DP = nD on a variable grid (§5.2).
double approx_sigma_dp_lognormal(std::size_t n_w, std::size_t n_d, double mu,
                                 double sigma);

}  // namespace moteur::model

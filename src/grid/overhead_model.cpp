#include "grid/overhead_model.hpp"

#include <algorithm>
#include <cmath>

namespace moteur::grid {

OverheadModel::OverheadModel(const GridConfig& config, const Rng& base)
    : config_(config),
      submission_rng_(base.fork("overhead.submission")),
      scheduling_rng_(base.fork("overhead.scheduling")),
      queueing_rng_(base.fork("overhead.queueing")),
      compute_rng_(base.fork("overhead.compute")),
      failure_rng_(base.fork("overhead.failure")),
      stuck_rng_(base.fork("overhead.stuck")) {}

double OverheadModel::sample(const LatencyModel& model, Rng& rng) {
  switch (model.kind) {
    case LatencyModel::Kind::kConstant:
      return model.constant;
    case LatencyModel::Kind::kUniform:
      return rng.uniform(model.lo, model.hi);
    case LatencyModel::Kind::kLognormal:
      return model.constant + rng.lognormal(std::log(model.median), model.sigma);
    case LatencyModel::Kind::kLognormalMixture: {
      double draw = model.constant + rng.lognormal(std::log(model.median), model.sigma);
      if (rng.bernoulli(model.straggler_probability)) draw *= model.straggler_factor;
      return draw;
    }
  }
  return 0.0;
}

double OverheadModel::sample_compute_factor() {
  if (config_.compute_noise_stddev <= 0.0) return 1.0;
  return std::max(0.05, 1.0 + compute_rng_.normal(0.0, config_.compute_noise_stddev));
}

}  // namespace moteur::grid

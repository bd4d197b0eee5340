#include "grid/config.hpp"

#include <cmath>

#include "util/error.hpp"

namespace moteur::grid {

LatencyModel LatencyModel::constant_of(double seconds) {
  LatencyModel m;
  m.kind = Kind::kConstant;
  m.constant = seconds;
  return m;
}

LatencyModel LatencyModel::uniform(double lo, double hi) {
  MOTEUR_REQUIRE(lo <= hi, InternalError, "LatencyModel::uniform: lo > hi");
  LatencyModel m;
  m.kind = Kind::kUniform;
  m.lo = lo;
  m.hi = hi;
  return m;
}

LatencyModel LatencyModel::lognormal(double median, double sigma) {
  LatencyModel m;
  m.kind = Kind::kLognormal;
  m.median = median;
  m.sigma = sigma;
  return m;
}

LatencyModel LatencyModel::lognormal_mixture(double median, double sigma,
                                             double straggler_probability,
                                             double straggler_factor) {
  LatencyModel m;
  m.kind = Kind::kLognormalMixture;
  m.median = median;
  m.sigma = sigma;
  m.straggler_probability = straggler_probability;
  m.straggler_factor = straggler_factor;
  return m;
}

double LatencyModel::mean() const {
  switch (kind) {
    case Kind::kConstant:
      return constant;
    case Kind::kUniform:
      return 0.5 * (lo + hi);
    case Kind::kLognormal:
      return median * std::exp(0.5 * sigma * sigma);
    case Kind::kLognormalMixture: {
      const double body = median * std::exp(0.5 * sigma * sigma);
      return (1.0 - straggler_probability) * body +
             straggler_probability * body * straggler_factor;
    }
  }
  return 0.0;
}

GridConfig GridConfig::egee2006(std::uint64_t seed) {
  GridConfig cfg;
  cfg.seed = seed;

  // ~20 sites of 16-128 nodes: thousands of slots, so data parallelism is
  // capacity-unconstrained for the paper's workloads (§3.5.2 hypothesis).
  const std::size_t site_slots[] = {128, 96, 96, 64, 64, 64, 48, 48, 48, 32,
                                    32,  32, 32, 24, 24, 16, 16, 16, 16, 16};
  int index = 0;
  for (std::size_t slots : site_slots) {
    ComputingElementConfig ce;
    ce.name = "ce" + std::to_string(index);
    ce.worker_slots = slots;
    // Heterogeneous hardware across sites.
    ce.speed_factor = 0.8 + 0.05 * static_cast<double>(index % 9);
    ce.local_latency = LatencyModel::lognormal(20.0, 0.5);
    cfg.computing_elements.push_back(ce);
    ++index;
  }

  // Paper §5.1: overhead "around 10 minutes" and "quite variable (±5 min)".
  // The submission command itself serializes on the UI host (~20 s/job);
  // the middleware stages are pipelined, with lognormal bodies and
  // straggler tails reproducing the reported spread.
  cfg.ui_submission_latency = LatencyModel::lognormal(18.0, 0.30);
  cfg.submission_latency = LatencyModel::lognormal_mixture(60.0, 0.40, 0.03, 4.0);
  cfg.scheduling_latency = LatencyModel::lognormal_mixture(120.0, 0.45, 0.04, 4.0);
  cfg.queueing_latency = LatencyModel::lognormal_mixture(240.0, 0.50, 0.06, 8.0);
  cfg.compute_noise_stddev = 0.10;

  cfg.broker_concurrency = 16;

  // 7.8 MB image (2.3 MB compressed) over a shared WAN: a few seconds.
  cfg.transfer_latency_seconds = 5.0;
  cfg.transfer_bandwidth_mb_per_s = 2.0;

  cfg.failure_probability = 0.04;
  cfg.max_attempts = 5;

  cfg.background_jobs_per_hour = 200.0;
  cfg.background_mean_duration = 1800.0;
  return cfg;
}

GridConfig GridConfig::dedicated_cluster(std::size_t nodes, std::uint64_t seed) {
  GridConfig cfg;
  cfg.seed = seed;
  ComputingElementConfig ce;
  ce.name = "cluster";
  ce.worker_slots = nodes;
  ce.speed_factor = 1.0;
  cfg.computing_elements.push_back(ce);
  cfg.submission_latency = LatencyModel::constant_of(0.5);
  cfg.scheduling_latency = LatencyModel::constant_of(0.5);
  cfg.queueing_latency = LatencyModel::constant_of(0.0);
  cfg.broker_concurrency = 64;
  cfg.transfer_latency_seconds = 0.01;
  cfg.transfer_bandwidth_mb_per_s = 100.0;
  return cfg;
}

GridConfig GridConfig::constant(double overhead_seconds, std::size_t slots,
                                std::uint64_t seed) {
  GridConfig cfg;
  cfg.seed = seed;
  ComputingElementConfig ce;
  ce.name = "ideal";
  ce.worker_slots = slots;
  ce.speed_factor = 1.0;
  cfg.computing_elements.push_back(ce);
  cfg.submission_latency = LatencyModel::constant_of(overhead_seconds);
  cfg.scheduling_latency = LatencyModel::constant_of(0.0);
  cfg.queueing_latency = LatencyModel::constant_of(0.0);
  // Submission must never serialize in the ideal grid.
  cfg.broker_concurrency = slots;
  return cfg;
}

}  // namespace moteur::grid

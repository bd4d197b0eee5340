#pragma once

#include "grid/config.hpp"
#include "util/rng.hpp"

namespace moteur::grid {

/// Samples latency components from their configured distributions. One
/// instance per grid; each component owns a named RNG substream so that
/// enabling/disabling one optimization never perturbs the draws of another
/// (paired-comparison friendly).
class OverheadModel {
 public:
  OverheadModel(const GridConfig& config, const Rng& base);

  double sample_submission() { return sample(config_.submission_latency, submission_rng_); }
  double sample_scheduling() { return sample(config_.scheduling_latency, scheduling_rng_); }
  double sample_queueing() { return sample(config_.queueing_latency, queueing_rng_); }

  /// Multiplicative payload-duration factor, >= 0.05.
  double sample_compute_factor();

  bool sample_failure() { return sample_failure(config_.failure_probability); }
  /// Per-site override: a negative probability inherits the grid-wide value.
  bool sample_failure(double probability) {
    if (probability < 0.0) probability = config_.failure_probability;
    return failure_rng_.bernoulli(probability);
  }

  /// Whether this attempt gets stuck (payload stretched by stuck_job_factor).
  bool sample_stuck() { return stuck_rng_.bernoulli(config_.stuck_job_probability); }

  /// Draw from an arbitrary latency model with a caller-provided stream
  /// (used by computing elements for their local latency).
  static double sample(const LatencyModel& model, Rng& rng);

 private:
  const GridConfig& config_;
  Rng submission_rng_;
  Rng scheduling_rng_;
  Rng queueing_rng_;
  Rng compute_rng_;
  Rng failure_rng_;
  Rng stuck_rng_;
};

}  // namespace moteur::grid

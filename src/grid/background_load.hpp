#pragma once

#include <cstddef>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace moteur::grid {

class ResourceBroker;

/// Other-user (multi-VO) load: Poisson job arrivals that occupy worker slots
/// at broker-chosen sites, so the foreground application contends for
/// capacity the way it would on the production infrastructure.
class BackgroundLoad {
 public:
  /// Arrivals run from simulation start until `horizon_seconds`.
  BackgroundLoad(sim::Simulator& simulator, ResourceBroker& broker,
                 double jobs_per_hour, double mean_duration_seconds,
                 double horizon_seconds, const Rng& base);

 private:
  void schedule_next();

  sim::Simulator& simulator_;
  ResourceBroker& broker_;
  double mean_interarrival_;
  double mean_duration_;
  double horizon_;
  Rng rng_;
};

}  // namespace moteur::grid

#include "grid/background_load.hpp"

#include "grid/resource_broker.hpp"
#include "util/error.hpp"

namespace moteur::grid {

BackgroundLoad::BackgroundLoad(sim::Simulator& simulator, ResourceBroker& broker,
                               double jobs_per_hour, double mean_duration_seconds,
                               double horizon_seconds, const Rng& base)
    : simulator_(simulator),
      broker_(broker),
      mean_interarrival_(3600.0 / jobs_per_hour),
      mean_duration_(mean_duration_seconds),
      horizon_(horizon_seconds),
      rng_(base.fork("background")) {
  MOTEUR_REQUIRE(jobs_per_hour > 0.0, InternalError, "BackgroundLoad: rate must be > 0");
  schedule_next();
}

void BackgroundLoad::schedule_next() {
  const double gap = rng_.exponential(mean_interarrival_);
  if (simulator_.now() + gap > horizon_) return;
  simulator_.schedule(gap, [this] {
    const double duration = rng_.exponential(mean_duration_);
    broker_.match().occupy_slot(duration);
    schedule_next();
  });
}

}  // namespace moteur::grid

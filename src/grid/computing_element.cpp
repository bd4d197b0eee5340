#include "grid/computing_element.hpp"

#include "grid/overhead_model.hpp"

namespace moteur::grid {

ComputingElement::ComputingElement(sim::Simulator& simulator,
                                   const ComputingElementConfig& config,
                                   const Rng& base)
    : simulator_(simulator),
      config_(config),
      workers_(simulator, config.worker_slots),
      latency_rng_(base.fork("ce." + config.name)),
      outage_rng_(base.fork("ce." + config.name + ".outage")) {
  if (config_.outage_mean_interval > 0.0) schedule_next_outage();
}

void ComputingElement::schedule_next_outage() {
  const double gap = outage_rng_.exponential(config_.outage_mean_interval);
  if (simulator_.now() + gap > config_.outage_horizon) return;
  simulator_.schedule(gap, [this] {
    // The whole site stops taking payloads: every slot is occupied for the
    // outage duration (running work drains first — a graceful downtime).
    const double duration = outage_rng_.exponential(config_.outage_mean_duration);
    for (std::size_t s = 0; s < config_.worker_slots; ++s) occupy_slot(duration);
    schedule_next_outage();
  });
}

void ComputingElement::acquire_slot(sim::Function<void()> on_granted) {
  const double local_latency = OverheadModel::sample(config_.local_latency, latency_rng_);
  const auto arrival = arriving_.insert(std::move(on_granted));
  simulator_.schedule(local_latency,
                      [this, arrival] { workers_.acquire(arriving_.take(arrival)); });
}

void ComputingElement::release_slot() { workers_.release(); }

void ComputingElement::occupy_slot(double seconds) {
  workers_.acquire([this, seconds] {
    simulator_.schedule(seconds, [this] { workers_.release(); });
  });
}

double ComputingElement::rank_estimate() const {
  const auto capacity = static_cast<double>(config_.worker_slots);
  const auto busy = static_cast<double>(workers_.in_use());
  const auto queued = static_cast<double>(workers_.queue_length());
  if (busy < capacity) return (busy / capacity - 1.0) / config_.speed_factor;
  return queued / capacity / config_.speed_factor;
}

}  // namespace moteur::grid

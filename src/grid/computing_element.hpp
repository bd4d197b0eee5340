#pragma once

#include <string>

#include "grid/config.hpp"
#include "sim/function.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "util/rng.hpp"

namespace moteur::grid {

/// One grid site: a batch system front-end plus a pool of worker-node slots.
/// Queue wait is emergent — jobs wait in FCFS order when all slots are busy —
/// on top of a stochastic local batch-system latency. The grid facade drives
/// the in-slot phases (staging, payload, staging out) and releases the slot.
class ComputingElement {
 public:
  ComputingElement(sim::Simulator& simulator, const ComputingElementConfig& config,
                   const Rng& base);

  const std::string& name() const { return config_.name; }
  double speed_factor() const { return config_.speed_factor; }
  /// Transient-failure probability for attempts running on this site
  /// (negative inherits the grid-wide configuration).
  double failure_probability() const { return config_.failure_probability; }

  /// Enter the batch system: local latency, then wait for a worker slot.
  /// `on_granted` fires when the job holds a slot.
  void acquire_slot(sim::Function<void()> on_granted);

  /// Return the slot to the pool.
  void release_slot();

  /// Occupy one slot for `seconds` (background / other-VO load). Skips the
  /// local batch latency.
  void occupy_slot(double seconds);

  std::size_t slots() const { return config_.worker_slots; }
  std::size_t busy_slots() const { return workers_.in_use(); }
  std::size_t queue_length() const { return workers_.queue_length(); }

  /// Broker ranking key: estimated wait. Negative while free slots remain
  /// (emptier and faster CEs rank lower/better); grows with queue depth once
  /// saturated (EGEE's EstimatedResponseTime rank, simplified).
  double rank_estimate() const;

 private:
  void schedule_next_outage();

  sim::Simulator& simulator_;
  ComputingElementConfig config_;
  sim::Resource workers_;
  /// Jobs inside the local batch latency, waiting to join the slot queue.
  sim::Slab<sim::Function<void()>> arriving_;
  Rng latency_rng_;
  Rng outage_rng_;
};

}  // namespace moteur::grid

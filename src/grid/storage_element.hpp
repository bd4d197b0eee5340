#pragma once

#include <string>
#include <vector>

#include "grid/config.hpp"
#include "obs/name.hpp"
#include "sim/function.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"

namespace moteur::grid {

/// A storage element plus the wide-area path to it. Transfers share a fixed
/// number of channels; beyond that they queue FCFS, so heavy staging load
/// degrades gracefully instead of being free.
class StorageElement {
 public:
  StorageElement(sim::Simulator& simulator, std::string name,
                 double latency_seconds, double bandwidth_mb_per_s,
                 std::size_t channels = 64);

  const std::string& name() const { return name_.str(); }
  /// The name, interned once per SE for the events that carry it.
  obs::Name interned_name() const { return name_; }

  /// Move `megabytes` through the link; `on_done(elapsed)` fires with the
  /// actual transfer duration (excluding channel queueing) on completion.
  /// Zero-size transfers complete via the simulator at the current time.
  void transfer(double megabytes, sim::Function<void(double)> on_done);

  /// Third-party SE→SE cost: both endpoints' latencies plus the bytes over
  /// the slower of the two links. Deterministic — no draws.
  double pairwise_seconds(const StorageElement& from, double megabytes) const;

  /// Move `megabytes` from `from` into this SE over the pairwise link,
  /// queueing on this (destination) SE's channels. `on_done(elapsed)` fires
  /// with the transfer duration excluding channel queueing.
  void transfer_from(const StorageElement& from, double megabytes,
                     sim::Function<void(double)> on_done);

  double nominal_seconds(double megabytes) const;

  double latency_seconds() const { return latency_seconds_; }
  double bandwidth_mb_per_s() const { return bandwidth_mb_per_s_; }

  /// Install the deterministic downtime schedule (sorted by start; windows
  /// are assumed non-overlapping). Exposed to the broker and the grid's
  /// stage-in path so a dead SE stops attracting jobs.
  void set_outages(std::vector<StorageOutageWindow> outages);
  const std::vector<StorageOutageWindow>& outages() const { return outages_; }

  /// Is the SE reachable at simulated time `t` (outside every window)?
  bool available_at(double t) const;

  /// Earliest time >= t at which the SE is reachable (t itself when up).
  double next_available(double t) const;

  /// Resolved per-replica fault probabilities (per-SE override or the
  /// grid-wide default), sampled by the grid at stage-in.
  void set_replica_fault_probabilities(double loss, double corruption) {
    replica_loss_probability_ = loss;
    replica_corruption_probability_ = corruption;
  }
  double replica_loss_probability() const { return replica_loss_probability_; }
  double replica_corruption_probability() const { return replica_corruption_probability_; }

 private:
  /// One transfer between its request and its completion.
  struct Transfer {
    double seconds = 0.0;
    sim::Function<void(double)> on_done;
  };
  /// Hold a channel for `seconds`, then release it and call `on_done`.
  void move_data(double seconds, sim::Function<void(double)> on_done);

  sim::Simulator& simulator_;
  obs::Name name_;
  double latency_seconds_;
  double bandwidth_mb_per_s_;
  sim::Resource channels_;
  sim::Slab<Transfer> transfers_;
  std::vector<StorageOutageWindow> outages_;
  double replica_loss_probability_ = 0.0;
  double replica_corruption_probability_ = 0.0;
};

}  // namespace moteur::grid

#pragma once

#include "data/replica_catalog.hpp"
#include "enactor/backend.hpp"
#include "grid/grid.hpp"

namespace moteur::enactor {

/// Runs invocations as jobs on the simulated EGEE infrastructure: each
/// execution submits the job described by the service's profile (batched
/// bindings sum their compute and transfer costs into one job, paying one
/// middleware overhead — the essence of grouping and batching), and the
/// service's synthesize_outputs() stands in for the payload results.
///
/// Grid failures surface as kTransient outcomes: an EGEE job lost to
/// middleware or site faults may well succeed when resubmitted elsewhere,
/// which is exactly what the enactor's RetryPolicy exploits.
class SimGridBackend : public ExecutionBackend {
 public:
  explicit SimGridBackend(grid::Grid& grid) : grid_(grid) {}

  void execute(std::shared_ptr<services::Service> service,
               std::vector<services::Inputs> bindings, Callback on_complete) override;

  /// Policy-hinted overload: the matchmaking policy and avoid set ride the
  /// JobRequest into the broker; the placement policy feeds the decision
  /// counters.
  void execute(std::shared_ptr<services::Service> service,
               std::vector<services::Inputs> bindings, ExecOptions options,
               Callback on_complete) override;

  double now() const override { return grid_.simulator().now(); }

  TimerId schedule(double delay_seconds, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  bool drive(const std::function<bool()>& done) override;

  /// Feeds per-CE grid-job tallies, queue-wait histograms, and (via the
  /// grid) per-policy decision counters into `metrics` (all recording
  /// happens inside drive(), on the simulation thread).
  void set_metrics(obs::MetricsRegistry* metrics) override {
    metrics_ = metrics;
    grid_.set_metrics(metrics);
  }

  /// Hands health ledgers to the grid's resource broker, which excludes
  /// open-breaker CEs during matchmaking.
  void add_health(grid::CeHealth* health) override { grid_.add_health(health); }
  void remove_health(grid::CeHealth* health) override { grid_.remove_health(health); }

  std::size_t jobs_submitted() const { return jobs_submitted_; }

  /// Translates the grid's SE→SE TransferEvents into service-scope
  /// kTransferStarted/kTransferDone RunEvents (empty run_id) for `sink`.
  void set_event_sink(std::function<void(const obs::RunEvent&)> sink) override;

  /// Attach (or detach, with nullptr) the replica catalog that turns the
  /// data plane on, forwarding it to the grid. With a catalog, jobs carry
  /// per-file input references (token DataRefs, or references fabricated
  /// from content digests and seeded at the default storage element),
  /// successful jobs register their produced outputs as replicas at the
  /// executing CE's close storage element, and output values carry DataRefs
  /// back to the enactor. Not owned; without a catalog the backend is
  /// bit-identical to the pre-data-plane code.
  void set_catalog(data::ReplicaCatalog* catalog) {
    catalog_ = catalog;
    grid_.set_catalog(catalog);
  }
  data::ReplicaCatalog* catalog() const override { return catalog_; }

 private:
  grid::Grid& grid_;
  data::ReplicaCatalog* catalog_ = nullptr;  // not owned
  obs::MetricsRegistry* metrics_ = nullptr;
  std::function<void(const obs::RunEvent&)> sink_;
  std::size_t jobs_submitted_ = 0;
  std::size_t in_flight_ = 0;
  /// Armed timers that have neither fired nor been cancelled. A timer's id
  /// is its simulator event id.
  std::size_t live_timers_ = 0;
};

}  // namespace moteur::enactor

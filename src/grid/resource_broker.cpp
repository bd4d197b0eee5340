#include "grid/resource_broker.hpp"

#include <algorithm>

#include "grid/ce_health.hpp"
#include "grid/overhead_model.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace moteur::grid {

ResourceBroker::ResourceBroker(sim::Simulator& simulator, OverheadModel& overhead,
                               std::size_t concurrency, double occupancy_fraction,
                               const Rng& base, policy::Matchmaking default_matchmaking)
    : simulator_(simulator),
      overhead_(overhead),
      occupancy_fraction_(occupancy_fraction),
      pipeline_(simulator, concurrency),
      tie_rng_(base.fork("broker.ties")),
      k_choices_rng_(base.fork("broker.policies").fork("k-choices")),
      default_matchmaking_(default_matchmaking) {}

void ResourceBroker::add_computing_element(std::unique_ptr<ComputingElement> ce) {
  ces_.push_back(std::move(ce));
}

void ResourceBroker::remove_health(CeHealth* health) {
  health_.erase(std::remove(health_.begin(), health_.end(), health), health_.end());
}

ComputingElement& ResourceBroker::match(const StageInEstimator& stage_in,
                                        const MatchContext& context) {
  MOTEUR_REQUIRE(!ces_.empty(), ExecutionError, "resource broker has no computing elements");
  const double now = simulator_.now();
  const auto admissible = [&](const std::string& name) {
    return std::all_of(health_.begin(), health_.end(),
                       [&](CeHealth* h) { return h->admissible(name, now); });
  };
  const auto avoided = [&](const std::string& name) {
    return std::find(context.avoid.begin(), context.avoid.end(), name) !=
           context.avoid.end();
  };
  // Candidate pool in registration order. Health vetoes drive the rerouting
  // accounting; placement avoidance just narrows the pool and never counts
  // as a reroute.
  bool excluded_any = false;
  pool_.clear();
  for (const auto& ce : ces_) {
    if (!admissible(ce->name())) {
      excluded_any = true;
      continue;
    }
    if (!context.avoid.empty() && avoided(ce->name())) continue;
    pool_.push_back(ce.get());
  }
  if (pool_.empty() && !context.avoid.empty()) {
    // Avoidance covered every healthy CE: drop the advisory constraint.
    for (const auto& ce : ces_) {
      if (admissible(ce->name())) pool_.push_back(ce.get());
    }
  }
  if (pool_.empty()) {
    // Every breaker is open (or half-open): degrade to ranking the full set
    // rather than stranding the submission.
    excluded_any = false;
    for (const auto& ce : ces_) pool_.push_back(ce.get());
  }
  // Assigned in place, so the candidates' name strings keep their buffers.
  candidates_.resize(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const ComputingElement& ce = *pool_[i];
    candidates_[i].name = ce.name();
    candidates_[i].queue_rank = ce.rank_estimate();
    candidates_[i].stage_in_seconds = stage_in ? stage_in(ce) : 0.0;
  }
  const policy::Matchmaking matchmaking = context.policy.value_or(default_matchmaking_);
  ComputingElement* chosen =
      pool_[policy::choose(matchmaking, candidates_, tie_rng_, k_choices_rng_)];
  if (metrics_ != nullptr) {
    metrics_
        ->counter("moteur_policy_decisions_total",
                  "Policy decisions by policy name and decision kind",
                  {{"policy", policy::to_string(matchmaking)}, {"kind", "matchmaking"}})
        .inc();
  }
  for (CeHealth* h : health_) {
    if (excluded_any) h->note_rerouted(now);
    h->on_routed(chosen->name(), now);
  }
  return *chosen;
}

void ResourceBroker::submit(sim::Function<void(ComputingElement&)> on_matched,
                            StageInEstimator stage_in, MatchContext context) {
  // The submission occupies a pipeline slot for a fraction of the UI->RB
  // latency (the broker's actual processing); the rest of the latency and
  // the matchmaking delay do not hold the slot. Submission bursts beyond
  // the pipeline concurrency therefore queue — the "increasing load of the
  // middleware services" the paper observes — without the full latency
  // serializing.
  const auto key = submissions_.insert(
      {std::move(on_matched), std::move(stage_in), std::move(context)});
  pipeline_.acquire([this, key] {
    Submission& admitted = submissions_[key];
    admitted.submission_seconds = overhead_.sample_submission();
    admitted.occupancy_seconds = occupancy_fraction_ * admitted.submission_seconds;
    simulator_.schedule(admitted.occupancy_seconds, [this, key] {
      pipeline_.release();
      const Submission& processed = submissions_[key];
      const double remaining = processed.submission_seconds - processed.occupancy_seconds +
                               overhead_.sample_scheduling();
      simulator_.schedule(remaining, [this, key] {
        const Submission matched = submissions_.take(key);
        matched.on_matched(match(matched.stage_in, matched.context));
      });
    });
  });
}

}  // namespace moteur::grid

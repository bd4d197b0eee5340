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
  std::vector<ComputingElement*> pool;
  for (const auto& ce : ces_) {
    if (!admissible(ce->name())) {
      excluded_any = true;
      continue;
    }
    if (!context.avoid.empty() && avoided(ce->name())) continue;
    pool.push_back(ce.get());
  }
  if (pool.empty() && !context.avoid.empty()) {
    // Avoidance covered every healthy CE: drop the advisory constraint.
    for (const auto& ce : ces_) {
      if (admissible(ce->name())) pool.push_back(ce.get());
    }
  }
  if (pool.empty()) {
    // Every breaker is open (or half-open): degrade to ranking the full set
    // rather than stranding the submission.
    excluded_any = false;
    for (const auto& ce : ces_) pool.push_back(ce.get());
  }
  std::vector<policy::CeCandidate> candidates;
  candidates.reserve(pool.size());
  for (ComputingElement* ce : pool) {
    candidates.push_back(
        {ce->name(), ce->rank_estimate(), stage_in ? stage_in(*ce) : 0.0});
  }
  const policy::Matchmaking matchmaking = context.policy.value_or(default_matchmaking_);
  ComputingElement* chosen =
      pool[policy::choose(matchmaking, candidates, tie_rng_, k_choices_rng_)];
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

void ResourceBroker::submit(std::function<void(ComputingElement&)> on_matched,
                            StageInEstimator stage_in, MatchContext context) {
  // The submission occupies a pipeline slot for a fraction of the UI->RB
  // latency (the broker's actual processing); the rest of the latency and
  // the matchmaking delay do not hold the slot. Submission bursts beyond
  // the pipeline concurrency therefore queue — the "increasing load of the
  // middleware services" the paper observes — without the full latency
  // serializing.
  pipeline_.acquire([this, on_matched = std::move(on_matched),
                     stage_in = std::move(stage_in),
                     context = std::move(context)]() mutable {
    const double submission = overhead_.sample_submission();
    const double occupancy = occupancy_fraction_ * submission;
    simulator_.schedule(occupancy, [this, submission, occupancy,
                                    on_matched = std::move(on_matched),
                                    stage_in = std::move(stage_in),
                                    context = std::move(context)]() mutable {
      pipeline_.release();
      const double remaining = submission - occupancy + overhead_.sample_scheduling();
      simulator_.schedule(remaining, [this, on_matched = std::move(on_matched),
                                      stage_in = std::move(stage_in),
                                      context = std::move(context)] {
        on_matched(match(stage_in, context));
      });
    });
  });
}

}  // namespace moteur::grid

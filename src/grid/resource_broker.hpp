#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grid/computing_element.hpp"
#include "policy/policy.hpp"
#include "sim/function.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "util/rng.hpp"

namespace moteur::obs {
class MetricsRegistry;
}

namespace moteur::grid {

class CeHealth;
class OverheadModel;

/// The LCG2-style central Resource Broker: all submissions funnel through it.
/// It serializes matchmaking through a bounded pipeline (so middleware load
/// grows overhead, as observed in the paper) and ranks CEs under a
/// matchmaking policy (default `queue-rank`: estimated response time at
/// match instant, bit-identical to the pre-policy-engine broker).
class ResourceBroker {
 public:
  ResourceBroker(sim::Simulator& simulator, OverheadModel& overhead,
                 std::size_t concurrency, double occupancy_fraction, const Rng& base,
                 policy::Matchmaking default_matchmaking);

  /// Extra per-CE cost (seconds) added to the queue-based rank during
  /// matchmaking — the data-aware hook: the grid estimates stage-in time
  /// from the ReplicaCatalog. Null = blind matchmaking (identical ranking
  /// and identical tie-break RNG draws to the pre-data-plane broker).
  using StageInEstimator = sim::Function<double(const ComputingElement&)>;

  /// Per-submission matchmaking knobs. `policy` unset = broker default;
  /// `avoid` lists CE names a placement policy wants this attempt steered
  /// away from (advisory — ignored when it would strand the submission).
  struct MatchContext {
    std::optional<policy::Matchmaking> policy;
    std::vector<std::string> avoid;
  };

  void add_computing_element(std::unique_ptr<ComputingElement> ce);

  /// Accept a submission; `on_matched(ce)` fires once matchmaking finishes
  /// and a destination CE is chosen.
  void submit(sim::Function<void(ComputingElement&)> on_matched,
              StageInEstimator stage_in = nullptr, MatchContext context = {});

  const std::vector<std::unique_ptr<ComputingElement>>& computing_elements() const {
    return ces_;
  }

  /// Pick the winning CE right now via the selected matchmaking policy.
  /// With health ledgers attached, CEs vetoed by ANY ledger are excluded
  /// (half-open probes admitted per CeHealth); if every CE is excluded the
  /// full set is used, so submissions never starve. With a stage-in
  /// estimator, candidates carry queue estimate + stage-in seconds.
  ComputingElement& match(const StageInEstimator& stage_in = nullptr,
                          const MatchContext& context = {});

  /// Grid-level default matchmaking policy.
  policy::Matchmaking default_matchmaking() const { return default_matchmaking_; }

  /// Per-policy decision counters land here when attached. Not owned.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Attach (or detach, with nullptr) the per-CE circuit-breaker ledger
  /// consulted during matchmaking, displacing any ledgers already attached.
  /// Not owned; single-threaded access.
  void set_health(CeHealth* health) {
    health_.clear();
    if (health != nullptr) health_.push_back(health);
  }

  /// Shared-broker arbitration: attach one more ledger without displacing
  /// the others. Matchmaking excludes a CE when any attached ledger vetoes
  /// it, and routing decisions are committed to every ledger — so a
  /// service-owned ledger and run-owned ones can observe the same broker.
  void add_health(CeHealth* health) {
    if (health != nullptr) health_.push_back(health);
  }

  /// Detach exactly `health`, leaving the other ledgers attached.
  void remove_health(CeHealth* health);

 private:
  /// One submission between submit() and its match.
  struct Submission {
    sim::Function<void(ComputingElement&)> on_matched;
    StageInEstimator stage_in;
    MatchContext context;
    double submission_seconds = 0.0;  // drawn when the pipeline admits it
    double occupancy_seconds = 0.0;   // the part that holds the pipeline slot
  };

  sim::Simulator& simulator_;
  OverheadModel& overhead_;
  double occupancy_fraction_;
  sim::Resource pipeline_;
  sim::Slab<Submission> submissions_;
  Rng tie_rng_;
  /// k-choices' private substream, so it never draws from `tie_rng_`.
  Rng k_choices_rng_;
  policy::Matchmaking default_matchmaking_;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned
  std::vector<std::unique_ptr<ComputingElement>> ces_;
  std::vector<CeHealth*> health_;  // not owned
  /// match()'s scratch: reused, so a match allocates nothing once they grew.
  std::vector<ComputingElement*> pool_;
  std::vector<policy::CeCandidate> candidates_;
};

}  // namespace moteur::grid

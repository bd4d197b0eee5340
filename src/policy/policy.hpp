#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace moteur::policy {

/// Flat snapshot of one computing element at match instant. Policies see
/// plain names and numbers — never grid types — so this layer stays below
/// grid/enactor/service in the dependency order and all three can link it.
struct CeCandidate {
  std::string name;
  double queue_rank = 0.0;        ///< broker queue-based response estimate
  double stage_in_seconds = 0.0;  ///< estimated input staging cost (0 when blind)
};

/// Ranks admissible computing elements during brokering.
class MatchmakingPolicy {
 public:
  virtual ~MatchmakingPolicy() = default;
  virtual const std::string& name() const = 0;

  /// True when the policy ranks on stage-in estimates, so the grid builds an
  /// estimator for it (only then do candidates carry stage-in seconds).
  virtual bool wants_stage_in() const { return false; }

  /// Pick the index of the winning candidate (candidates is never empty).
  /// `tie_rng` is the broker's historical tie-break stream: draw from it
  /// ONLY to break exact rank ties, so the default policy replays the
  /// pre-policy-engine draw sequence bit for bit. Policies needing their
  /// own randomness must carry a private substream instead.
  virtual std::size_t choose(const std::vector<CeCandidate>& candidates,
                             Rng& tie_rng) = 0;
};

/// Inputs to a retry/speculative-clone placement decision.
struct PlacementContext {
  std::size_t attempt = 1;  ///< 1-based attempt number about to start
  bool speculative = false;
  /// CE names earlier attempts of this submission landed on, oldest first.
  const std::vector<std::string>* tried_ces = nullptr;
};

/// Chooses where retries and speculative clones should (not) land.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual const std::string& name() const = 0;

  /// CE names the broker should steer this attempt away from. Advisory:
  /// when the avoid set covers every admissible CE the broker falls back
  /// to the full set rather than stranding the submission.
  virtual std::vector<std::string> avoid(const PlacementContext& ctx) = 0;
};

/// Governs replica placement on registration and probe preference on read.
class ReplicaPolicy {
 public:
  virtual ~ReplicaPolicy() = default;
  virtual const std::string& name() const = 0;

  /// SEs a fresh replica should be registered on. `close_se` is the
  /// producing CE's close SE; `all_ses` lists every SE in deterministic
  /// (registration) order.
  virtual std::vector<std::string> placement_targets(
      const std::string& close_se, const std::vector<std::string>& all_ses) = 0;

  /// Reorder replica-holding SEs in place into stage-in probe preference
  /// order (first entry probed first, later entries are failover targets).
  virtual void probe_order(std::vector<std::string>& candidates,
                           const std::string& close_se) = 0;
};

/// Governs third-party SE→SE replication: whether remote reads are routed
/// peer-to-peer instead of through the orchestrator, and which transfers
/// the grid should start proactively.
class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;
  virtual const std::string& name() const = 0;

  /// True when remote stage-ins flow SE→SE instead of round-tripping
  /// through the orchestrator/UI link. `none` keeps the centralized
  /// baseline (bit-identical to the pre-refactor data path).
  virtual bool decentralized_reads() const { return false; }

  /// True when the broker should push missing inputs toward the matched
  /// CE's close SE at match time, overlapping replication with queueing.
  virtual bool push_on_match() const { return false; }

  /// SEs a freshly registered replica should be pushed to in the
  /// background. `source_se` holds the new replica; `all_ses` lists every
  /// SE in deterministic (registration) order.
  virtual std::vector<std::string> fanout_targets(
      const std::string& source_se, const std::vector<std::string>& all_ses) {
    (void)source_se;
    (void)all_ses;
    return {};
  }
};

/// One replica resident on a capacity-bounded SE, as seen by an eviction
/// decision. `last_use` is the catalog's logical touch counter (higher =
/// more recently used); `pinned` marks workflow source files.
struct ReplicaResidency {
  std::string lfn;
  double size_mb = 0.0;
  bool pinned = false;
  std::uint64_t last_use = 0;
};

/// Picks which resident replicas a capacity-bounded SE should drop to make
/// room for a new registration.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual const std::string& name() const = 0;

  /// LFNs to evict, in eviction order, to free at least `need_mb`. May
  /// return fewer (the catalog then over-commits rather than rejecting
  /// the incoming replica). `resident` is in deterministic catalog order.
  virtual std::vector<std::string> victims(
      const std::vector<ReplicaResidency>& resident, double need_mb) = 0;
};

/// Maps a run's requested weight onto the effective weighted-round-robin
/// share the admission gate grants per visit.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual const std::string& name() const = 0;

  /// Effective WRR weight for `run_id` given the weight it asked for.
  /// The gate clamps a returned 0 to 1.
  virtual std::size_t weight(const std::string& run_id, std::size_t requested) = 0;
};

}  // namespace moteur::policy

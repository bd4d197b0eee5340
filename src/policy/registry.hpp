#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "policy/policy.hpp"

namespace moteur::policy {

/// Process-wide catalogue of named policy factories, one namespace per
/// decision kind. Built-ins self-register on first access; callers resolve
/// names coming from flags, manifests, or configs through the `check_*`
/// validators (which throw ParseError listing the known names) and
/// construct instances through the `make_*` factories. Construction is
/// cheap — decision sites cache instances per name.
class PolicyRegistry {
 public:
  /// Matchmaking factories receive an RNG base so randomized policies
  /// (e.g. k-choices) can fork a private deterministic substream.
  using MatchmakingFactory =
      std::function<std::unique_ptr<MatchmakingPolicy>(const Rng& base)>;
  using PlacementFactory = std::function<std::unique_ptr<PlacementPolicy>()>;
  using ReplicaFactory = std::function<std::unique_ptr<ReplicaPolicy>()>;
  using AdmissionFactory = std::function<std::unique_ptr<AdmissionPolicy>()>;
  using ReplicationFactory = std::function<std::unique_ptr<ReplicationPolicy>()>;
  using EvictionFactory = std::function<std::unique_ptr<EvictionPolicy>()>;

  static PolicyRegistry& instance();

  void register_matchmaking(const std::string& name, MatchmakingFactory factory);
  void register_placement(const std::string& name, PlacementFactory factory);
  void register_replica(const std::string& name, ReplicaFactory factory);
  void register_admission(const std::string& name, AdmissionFactory factory);
  void register_replication(const std::string& name, ReplicationFactory factory);
  void register_eviction(const std::string& name, EvictionFactory factory);

  std::unique_ptr<MatchmakingPolicy> make_matchmaking(const std::string& name,
                                                      const Rng& base) const;
  std::unique_ptr<PlacementPolicy> make_placement(const std::string& name) const;
  std::unique_ptr<ReplicaPolicy> make_replica(const std::string& name) const;
  std::unique_ptr<AdmissionPolicy> make_admission(const std::string& name) const;
  std::unique_ptr<ReplicationPolicy> make_replication(const std::string& name) const;
  std::unique_ptr<EvictionPolicy> make_eviction(const std::string& name) const;

  /// Validate a policy name from a flag or manifest attribute; returns the
  /// name unchanged or throws ParseError naming the known policies. `flag`
  /// labels the error ("--matchmaking", "policy matchmaking attribute", ...).
  const std::string& check_matchmaking(const std::string& name,
                                       const std::string& flag) const;
  const std::string& check_eviction(const std::string& name,
                                    const std::string& flag) const;

  /// Whether the named matchmaking policy ranks on stage-in estimates (so
  /// callers know to bring up the data plane before enactment).
  bool matchmaking_wants_stage_in(const std::string& name) const;

  std::vector<std::string> matchmaking_names() const;
  std::vector<std::string> placement_names() const;
  std::vector<std::string> replica_names() const;
  std::vector<std::string> admission_names() const;
  std::vector<std::string> replication_names() const;
  std::vector<std::string> eviction_names() const;

 private:
  PolicyRegistry();

  std::map<std::string, MatchmakingFactory> matchmaking_;
  std::map<std::string, PlacementFactory> placement_;
  std::map<std::string, ReplicaFactory> replica_;
  std::map<std::string, AdmissionFactory> admission_;
  std::map<std::string, ReplicationFactory> replication_;
  std::map<std::string, EvictionFactory> eviction_;
};

/// Built-in policy names (defaults preserve pre-policy-engine behavior).
inline constexpr const char* kDefaultMatchmaking = "queue-rank";
inline constexpr const char* kDefaultPlacement = "rematch";
inline constexpr const char* kDefaultReplica = "close-se";
inline constexpr const char* kDefaultAdmission = "weighted";
inline constexpr const char* kDefaultReplication = "none";
inline constexpr const char* kDefaultEviction = "lru";

}  // namespace moteur::policy

#include "policy/registry.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace moteur::policy {

namespace {

// ---------------------------------------------------------------------------
// Matchmaking built-ins

/// The historical broker ranking: queue estimate plus whatever stage-in
/// estimate the caller supplied (zero when matchmaking blind), exact-tie
/// break drawn from the broker's tie stream only when more than one CE
/// shares the best rank. This must replay the pre-policy-engine decision
/// sequence bit for bit.
class QueueRankPolicy : public MatchmakingPolicy {
 public:
  explicit QueueRankPolicy(std::string name = kDefaultMatchmaking)
      : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

  std::size_t choose(const std::vector<CeCandidate>& candidates,
                     Rng& tie_rng) override {
    double best_rank = 0.0;
    std::vector<std::size_t> best;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double rank = candidates[i].queue_rank + candidates[i].stage_in_seconds;
      if (best.empty() || rank < best_rank) {
        best_rank = rank;
        best = {i};
      } else if (rank == best_rank) {
        best.push_back(i);
      }
    }
    if (best.size() > 1) {
      const auto pick = static_cast<std::size_t>(
          tie_rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1));
      return best[pick];
    }
    return best.front();
  }

 private:
  std::string name_;
};

/// Same combined ranking as queue-rank, but self-activates the stage-in
/// estimator: data-aware matchmaking as a selectable policy.
class DataGravityPolicy : public QueueRankPolicy {
 public:
  DataGravityPolicy() : QueueRankPolicy("data-gravity") {}
  bool wants_stage_in() const override { return true; }
};

/// Lexicographic (stage-in seconds, queue rank): data locality dominates,
/// queue pressure only separates equally-close CEs.
class LocalityFirstPolicy : public MatchmakingPolicy {
 public:
  const std::string& name() const override { return name_; }
  bool wants_stage_in() const override { return true; }

  std::size_t choose(const std::vector<CeCandidate>& candidates,
                     Rng& tie_rng) override {
    std::vector<std::size_t> best;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (best.empty()) {
        best = {i};
        continue;
      }
      const CeCandidate& lead = candidates[best.front()];
      const CeCandidate& c = candidates[i];
      if (c.stage_in_seconds < lead.stage_in_seconds ||
          (c.stage_in_seconds == lead.stage_in_seconds &&
           c.queue_rank < lead.queue_rank)) {
        best = {i};
      } else if (c.stage_in_seconds == lead.stage_in_seconds &&
                 c.queue_rank == lead.queue_rank) {
        best.push_back(i);
      }
    }
    if (best.size() > 1) {
      const auto pick = static_cast<std::size_t>(
          tie_rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1));
      return best[pick];
    }
    return best.front();
  }

 private:
  std::string name_ = "locality-first";
};

/// Power-of-two-choices: sample two distinct candidates from a private
/// deterministic substream and keep the better-ranked one. Never touches
/// the broker tie stream, so enabling it for one run cannot perturb the
/// draw sequence of concurrent default-policy runs.
class KChoicesPolicy : public MatchmakingPolicy {
 public:
  explicit KChoicesPolicy(const Rng& base) : rng_(base.fork("k-choices")) {}

  const std::string& name() const override { return name_; }

  std::size_t choose(const std::vector<CeCandidate>& candidates,
                     Rng& /*tie_rng*/) override {
    const std::size_t n = candidates.size();
    if (n == 1) return 0;
    const auto first = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto second = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (second >= first) ++second;
    const auto rank = [&](std::size_t i) {
      return candidates[i].queue_rank + candidates[i].stage_in_seconds;
    };
    return rank(second) < rank(first) ? second : first;
  }

 private:
  std::string name_ = "k-choices";
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Placement built-ins

/// The historical behavior: every attempt re-enters ordinary matchmaking
/// with no avoidance constraint.
class RematchPolicy : public PlacementPolicy {
 public:
  const std::string& name() const override { return name_; }
  std::vector<std::string> avoid(const PlacementContext&) override { return {}; }

 private:
  std::string name_ = kDefaultPlacement;
};

/// Steer retries away from the CE the immediately previous attempt ran on.
class AvoidPreviousPolicy : public PlacementPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> avoid(const PlacementContext& ctx) override {
    if (ctx.tried_ces == nullptr || ctx.tried_ces->empty()) return {};
    return {ctx.tried_ces->back()};
  }

 private:
  std::string name_ = "avoid-previous";
};

/// Steer retries away from every CE earlier attempts already touched.
class SpreadPolicy : public PlacementPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> avoid(const PlacementContext& ctx) override {
    if (ctx.tried_ces == nullptr) return {};
    return *ctx.tried_ces;
  }

 private:
  std::string name_ = "spread";
};

// ---------------------------------------------------------------------------
// Replica built-ins

/// The historical behavior: register fresh replicas on the producer's close
/// SE only, and probe the close SE first on stage-in (rotating it to the
/// front of the registration-ordered candidate list).
class CloseSePolicy : public ReplicaPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> placement_targets(
      const std::string& close_se, const std::vector<std::string>&) override {
    return {close_se};
  }

  void probe_order(std::vector<std::string>& candidates,
                   const std::string& close_se) override {
    const auto close_pos = std::find(candidates.begin(), candidates.end(), close_se);
    if (close_pos != candidates.end() && close_pos != candidates.begin()) {
      std::rotate(candidates.begin(), close_pos, close_pos + 1);
    }
  }

 private:
  std::string name_ = kDefaultReplica;
};

/// Register fresh replicas on every SE (close SE included), trading
/// transfer volume at write time for locality on every later read.
class BroadcastPolicy : public ReplicaPolicy {
 public:
  const std::string& name() const override { return name_; }

  std::vector<std::string> placement_targets(
      const std::string& close_se,
      const std::vector<std::string>& all_ses) override {
    if (all_ses.empty()) return {close_se};
    return all_ses;
  }

  void probe_order(std::vector<std::string>& candidates,
                   const std::string& close_se) override {
    const auto close_pos = std::find(candidates.begin(), candidates.end(), close_se);
    if (close_pos != candidates.end() && close_pos != candidates.begin()) {
      std::rotate(candidates.begin(), close_pos, close_pos + 1);
    }
  }

 private:
  std::string name_ = "broadcast";
};

// ---------------------------------------------------------------------------
// Admission built-ins

/// The historical behavior: grant each run the WRR share it asked for.
class WeightedAdmission : public AdmissionPolicy {
 public:
  const std::string& name() const override { return name_; }
  std::size_t weight(const std::string&, std::size_t requested) override {
    return requested;
  }

 private:
  std::string name_ = kDefaultAdmission;
};

/// Ignore requested weights: every run gets one grant per gate visit.
class RoundRobinAdmission : public AdmissionPolicy {
 public:
  const std::string& name() const override { return name_; }
  std::size_t weight(const std::string&, std::size_t) override { return 1; }

 private:
  std::string name_ = "round-robin";
};

// ---------------------------------------------------------------------------
// Replication built-ins

/// The centralized baseline: no SE→SE transfers, every remote byte
/// round-trips through the orchestrator. Bit-identical to the
/// pre-decentralization data path.
class NoReplicationPolicy : public ReplicationPolicy {
 public:
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = kDefaultReplication;
};

/// Route remote reads SE→SE and push missing inputs toward the matched
/// CE's close SE as soon as the broker picks it, overlapping the transfer
/// with the job's queueing delay.
class PushToConsumerPolicy : public ReplicationPolicy {
 public:
  const std::string& name() const override { return name_; }
  bool decentralized_reads() const override { return true; }
  bool push_on_match() const override { return true; }

 private:
  std::string name_ = "push-to-consumer";
};

/// Route remote reads SE→SE and, whenever a fresh replica registers,
/// push copies to the first k other SEs in deterministic order — blind
/// pre-staging that trades transfer volume for read locality.
class FanoutKPolicy : public ReplicationPolicy {
 public:
  const std::string& name() const override { return name_; }
  bool decentralized_reads() const override { return true; }

  std::vector<std::string> fanout_targets(
      const std::string& source_se,
      const std::vector<std::string>& all_ses) override {
    std::vector<std::string> targets;
    for (const std::string& se : all_ses) {
      if (se == source_se) continue;
      targets.push_back(se);
      if (targets.size() == kFanout) break;
    }
    return targets;
  }

 private:
  static constexpr std::size_t kFanout = 2;
  std::string name_ = "fanout-k";
};

// ---------------------------------------------------------------------------
// Eviction built-ins

/// Drop least-recently-used replicas first (pinned or not) until the
/// requested head-room is freed; exact last-use ties break on LFN so the
/// victim order never depends on map iteration quirks.
class LruEviction : public EvictionPolicy {
 public:
  explicit LruEviction(std::string name = kDefaultEviction, bool honor_pins = false)
      : name_(std::move(name)), honor_pins_(honor_pins) {}

  const std::string& name() const override { return name_; }

  std::vector<std::string> victims(const std::vector<ReplicaResidency>& resident,
                                   double need_mb) override {
    std::vector<const ReplicaResidency*> order;
    order.reserve(resident.size());
    for (const ReplicaResidency& r : resident) {
      if (honor_pins_ && r.pinned) continue;
      order.push_back(&r);
    }
    std::sort(order.begin(), order.end(),
              [](const ReplicaResidency* a, const ReplicaResidency* b) {
                if (a->last_use != b->last_use) return a->last_use < b->last_use;
                return a->lfn < b->lfn;
              });
    std::vector<std::string> victims;
    double freed = 0.0;
    for (const ReplicaResidency* r : order) {
      if (freed >= need_mb) break;
      victims.push_back(r->lfn);
      freed += r->size_mb;
    }
    return victims;
  }

 private:
  std::string name_;
  bool honor_pins_;
};

// ---------------------------------------------------------------------------

template <typename Factories>
std::vector<std::string> names_of(const Factories& factories) {
  std::vector<std::string> names;
  names.reserve(factories.size());
  for (const auto& [name, factory] : factories) names.push_back(name);
  return names;
}

/// The factory registered under `name`, or a ParseError that starts with
/// `label`, names the policy kind and lists the known names.
template <typename Factories>
const typename Factories::mapped_type& factory_of(const Factories& factories,
                                                  const std::string& name,
                                                  const std::string& label, const char* kind) {
  const auto it = factories.find(name);
  if (it == factories.end()) {
    std::string known;
    for (const auto& [known_name, factory] : factories) {
      known += (known.empty() ? "" : ", ") + known_name;
    }
    throw ParseError(label + "unknown " + kind + " policy '" + name + "' (known: " + known +
                     ")");
  }
  return it->second;
}

}  // namespace

PolicyRegistry::PolicyRegistry() {
  register_matchmaking(kDefaultMatchmaking, [](const Rng&) {
    return std::make_unique<QueueRankPolicy>();
  });
  register_matchmaking("data-gravity", [](const Rng&) {
    return std::make_unique<DataGravityPolicy>();
  });
  register_matchmaking("locality-first", [](const Rng&) {
    return std::make_unique<LocalityFirstPolicy>();
  });
  register_matchmaking("k-choices", [](const Rng& base) {
    return std::make_unique<KChoicesPolicy>(base);
  });

  register_placement(kDefaultPlacement,
                     [] { return std::make_unique<RematchPolicy>(); });
  register_placement("avoid-previous",
                     [] { return std::make_unique<AvoidPreviousPolicy>(); });
  register_placement("spread", [] { return std::make_unique<SpreadPolicy>(); });

  register_replica(kDefaultReplica, [] { return std::make_unique<CloseSePolicy>(); });
  register_replica("broadcast", [] { return std::make_unique<BroadcastPolicy>(); });

  register_admission(kDefaultAdmission,
                     [] { return std::make_unique<WeightedAdmission>(); });
  register_admission("round-robin",
                     [] { return std::make_unique<RoundRobinAdmission>(); });

  register_replication(kDefaultReplication,
                       [] { return std::make_unique<NoReplicationPolicy>(); });
  register_replication("push-to-consumer",
                       [] { return std::make_unique<PushToConsumerPolicy>(); });
  register_replication("fanout-k",
                       [] { return std::make_unique<FanoutKPolicy>(); });

  register_eviction(kDefaultEviction, [] { return std::make_unique<LruEviction>(); });
  register_eviction("pin-sources", [] {
    return std::make_unique<LruEviction>("pin-sources", /*honor_pins=*/true);
  });
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::register_matchmaking(const std::string& name,
                                          MatchmakingFactory factory) {
  matchmaking_[name] = std::move(factory);
}

void PolicyRegistry::register_placement(const std::string& name,
                                        PlacementFactory factory) {
  placement_[name] = std::move(factory);
}

void PolicyRegistry::register_replica(const std::string& name,
                                      ReplicaFactory factory) {
  replica_[name] = std::move(factory);
}

void PolicyRegistry::register_admission(const std::string& name,
                                        AdmissionFactory factory) {
  admission_[name] = std::move(factory);
}

void PolicyRegistry::register_replication(const std::string& name,
                                          ReplicationFactory factory) {
  replication_[name] = std::move(factory);
}

void PolicyRegistry::register_eviction(const std::string& name,
                                       EvictionFactory factory) {
  eviction_[name] = std::move(factory);
}

std::unique_ptr<MatchmakingPolicy> PolicyRegistry::make_matchmaking(const std::string& name,
                                                                   const Rng& base) const {
  return factory_of(matchmaking_, name, "", "matchmaking")(base);
}

std::unique_ptr<PlacementPolicy> PolicyRegistry::make_placement(
    const std::string& name) const {
  return factory_of(placement_, name, "", "placement")();
}

std::unique_ptr<ReplicaPolicy> PolicyRegistry::make_replica(const std::string& name) const {
  return factory_of(replica_, name, "", "replica")();
}

std::unique_ptr<AdmissionPolicy> PolicyRegistry::make_admission(
    const std::string& name) const {
  return factory_of(admission_, name, "", "admission")();
}

std::unique_ptr<ReplicationPolicy> PolicyRegistry::make_replication(
    const std::string& name) const {
  return factory_of(replication_, name, "", "replication")();
}

std::unique_ptr<EvictionPolicy> PolicyRegistry::make_eviction(const std::string& name) const {
  return factory_of(eviction_, name, "", "eviction")();
}

const std::string& PolicyRegistry::check_matchmaking(const std::string& name,
                                                     const std::string& flag) const {
  factory_of(matchmaking_, name, flag + " names ", "matchmaking");
  return name;
}

const std::string& PolicyRegistry::check_eviction(const std::string& name,
                                                  const std::string& flag) const {
  factory_of(eviction_, name, flag + " names ", "eviction");
  return name;
}

bool PolicyRegistry::matchmaking_wants_stage_in(const std::string& name) const {
  const Rng probe(0);
  return make_matchmaking(name, probe)->wants_stage_in();
}

std::vector<std::string> PolicyRegistry::matchmaking_names() const {
  return names_of(matchmaking_);
}

std::vector<std::string> PolicyRegistry::placement_names() const {
  return names_of(placement_);
}

std::vector<std::string> PolicyRegistry::replica_names() const {
  return names_of(replica_);
}

std::vector<std::string> PolicyRegistry::admission_names() const {
  return names_of(admission_);
}

std::vector<std::string> PolicyRegistry::replication_names() const {
  return names_of(replication_);
}

std::vector<std::string> PolicyRegistry::eviction_names() const {
  return names_of(eviction_);
}

}  // namespace moteur::policy

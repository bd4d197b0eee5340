// Decentralized data flow: SE→SE transfer determinism, replication policy
// behavior (push-to-consumer byte routing, fanout-k background copies),
// capacity-bounded replica eviction (lru / pin-sources), the rejection of
// unknown policy names, and every built-in policy pinned end to end on the
// three-SE grid by a committed digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "policy/policy.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace moteur {
namespace {

constexpr std::uint64_t kSeed = 20060619;

// Three regional SEs on an EGEE-like grid; workflow sources stay on the
// default SE, so every first read is remote and the replication policy has
// real traffic to route.
grid::GridConfig multi_se_config(const std::string& replication,
                                 double outage_start = 0.0,
                                 double outage_duration = 0.0) {
  grid::GridConfig cfg = grid::GridConfig::egee2006(kSeed);
  const char* names[] = {"se-north", "se-south", "se-east"};
  for (const char* name : names) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 10.0;
    if (outage_duration > 0.0 && std::string(name) == "se-north") {
      se.outages.push_back(grid::StorageOutageWindow{outage_start, outage_duration});
    }
    cfg.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < cfg.computing_elements.size(); ++i) {
    cfg.computing_elements[i].close_storage_element = names[i % 3];
  }
  cfg.remote_transfer_penalty = 3.0;
  cfg.replication_policy = replication;
  return cfg;
}

struct RunOutput {
  std::string timeline_csv;
  std::string provenance;
  enactor::Timeline timeline;
  double makespan = 0.0;
  std::size_t failures = 0;
  grid::Grid::Stats grid_stats;
  std::size_t evictions = 0;
  double bytes_via_ui = 0.0;
  double bytes_peer = 0.0;
};

enactor::EnactmentPolicy sp_dp_continue() {
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  return policy;
}

RunOutput run_bronze(const grid::GridConfig& config,
                     const enactor::EnactmentPolicy& policy = sp_dp_continue()) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, config);
  enactor::SimGridBackend backend(grid);
  data::ReplicaCatalog catalog;
  backend.set_catalog(&catalog);

  services::ServiceRegistry registry;
  app::register_simulated_services(registry);

  enactor::Enactor moteur(backend, registry, policy);

  const enactor::EnactmentResult result =
      moteur.run({.workflow = app::bronze_standard_workflow(),
                  .inputs = app::bronze_standard_dataset(6)});

  RunOutput out;
  out.timeline_csv = enactor::timeline_to_csv(result.timeline, /*data_plane=*/true);
  out.provenance = data::export_provenance(result.sink_outputs);
  out.timeline = result.timeline;
  out.makespan = result.makespan();
  out.failures = result.failures();
  out.grid_stats = grid.stats();
  out.evictions = catalog.eviction_count();
  for (const auto& record : grid.completed_jobs()) {
    out.bytes_via_ui += record.bytes_via_ui;
    out.bytes_peer += record.bytes_peer;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(TransferDeterminism, SameSeedSamePolicyIsByteIdentical) {
  // Two fresh stacks, same seed and policy: the timeline CSV and the
  // provenance export must match byte for byte — SE→SE transfers draw no
  // randomness and schedule in deterministic order.
  const grid::GridConfig config = multi_se_config("push-to-consumer");
  const RunOutput a = run_bronze(config);
  const RunOutput b = run_bronze(config);
  EXPECT_GT(a.grid_stats.transfers_started, 0u);
  EXPECT_EQ(a.timeline_csv, b.timeline_csv);
  EXPECT_EQ(a.provenance, b.provenance);
  EXPECT_EQ(a.grid_stats.transfers_started, b.grid_stats.transfers_started);
  EXPECT_EQ(a.grid_stats.transfer_megabytes, b.grid_stats.transfer_megabytes);
}

TEST(TransferDeterminism, OutageMidTransferStaysDeterministic) {
  // se-north dies mid-run, inside the window where match-time pushes are in
  // flight: deferred transfers and source re-picks must replay identically.
  const grid::GridConfig config =
      multi_se_config("push-to-consumer", /*outage_start=*/300.0,
                      /*outage_duration=*/2000.0);
  const RunOutput a = run_bronze(config);
  const RunOutput b = run_bronze(config);
  EXPECT_EQ(a.timeline_csv, b.timeline_csv);
  EXPECT_EQ(a.provenance, b.provenance);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.grid_stats.transfers_started, b.grid_stats.transfers_started);
  EXPECT_EQ(a.grid_stats.transfers_completed, b.grid_stats.transfers_completed);
}

// ---------------------------------------------------------------------------
// Byte routing
// ---------------------------------------------------------------------------

TEST(TransferRouting, PushToConsumerRoutesReadsOffTheUiLink) {
  const RunOutput centralized = run_bronze(multi_se_config("none"));
  const RunOutput decentralized = run_bronze(multi_se_config("push-to-consumer"));

  // Centralized staging round-trips every byte through the orchestrator.
  EXPECT_GT(centralized.bytes_via_ui, 0.0);
  EXPECT_EQ(centralized.bytes_peer, 0.0);
  EXPECT_EQ(centralized.grid_stats.transfers_started, 0u);

  // Peer routing empties the UI link and moves remote bytes SE→SE: either
  // as match-time pushes (transfer_megabytes) or, when a push has not landed
  // by stage-in, as per-job peer pulls (bytes_peer).
  EXPECT_EQ(decentralized.bytes_via_ui, 0.0);
  EXPECT_GT(decentralized.bytes_peer + decentralized.grid_stats.transfer_megabytes,
            0.0);
  EXPECT_GT(decentralized.grid_stats.transfers_started, 0u);
  EXPECT_EQ(decentralized.grid_stats.ui_megabytes, 0.0);
}

TEST(TransferRouting, FanoutReplicatesFreshOutputsInBackground) {
  // fanout-k copies every fresh output to k further SEs; with four SEs in
  // play the copy count has to exceed what match-time pulls alone produce.
  const RunOutput push = run_bronze(multi_se_config("push-to-consumer"));
  const RunOutput fanout = run_bronze(multi_se_config("fanout-k"));
  EXPECT_GT(fanout.grid_stats.transfers_started, 0u);
  EXPECT_GE(fanout.grid_stats.transfers_completed,
            push.grid_stats.transfers_completed);
  EXPECT_EQ(fanout.failures, 0u);
}

// ---------------------------------------------------------------------------
// Capacity-bounded eviction
// ---------------------------------------------------------------------------

TEST(ReplicaEviction, LruEvictsTheLeastRecentlyUsedReplica) {
  data::ReplicaCatalog catalog;
  catalog.set_eviction_policy(policy::Eviction::kLru);
  catalog.set_se_capacity("se-a", 30.0);
  catalog.register_replica("f1", "se-a", 10.0);
  catalog.register_replica("f2", "se-a", 10.0);
  catalog.register_replica("f3", "se-a", 10.0);
  catalog.touch("f1");  // f2 is now the coldest
  catalog.register_replica("f4", "se-a", 10.0);
  EXPECT_EQ(catalog.eviction_count(), 1u);
  EXPECT_FALSE(catalog.has("f2", "se-a"));
  EXPECT_TRUE(catalog.has("f1", "se-a"));
  EXPECT_TRUE(catalog.has("f3", "se-a"));
  EXPECT_TRUE(catalog.has("f4", "se-a"));
  EXPECT_LE(catalog.used_mb("se-a"), 30.0);
}

TEST(ReplicaEviction, PinSourcesNeverDropsPinnedReplicas) {
  data::ReplicaCatalog catalog;
  catalog.set_eviction_policy(policy::Eviction::kPinSources);
  catalog.set_se_capacity("se-a", 25.0);
  catalog.register_replica("src1", "se-a", 10.0, /*pinned=*/true);
  catalog.register_replica("src2", "se-a", 10.0, /*pinned=*/true);
  catalog.register_replica("derived", "se-a", 5.0);
  // Needs 10 MB: the only unpinned victim frees 5 — the cap is soft, the SE
  // over-commits rather than dropping a lineage root.
  catalog.register_replica("big", "se-a", 10.0);
  EXPECT_TRUE(catalog.has("src1", "se-a"));
  EXPECT_TRUE(catalog.has("src2", "se-a"));
  EXPECT_FALSE(catalog.has("derived", "se-a"));
  EXPECT_TRUE(catalog.has("big", "se-a"));
  EXPECT_EQ(catalog.eviction_count(), 1u);
}

TEST(ReplicaEviction, UnboundedSeNeverEvicts) {
  data::ReplicaCatalog catalog;
  catalog.set_eviction_policy(policy::Eviction::kLru);
  for (int i = 0; i < 100; ++i) {
    catalog.register_replica("f" + std::to_string(i), "se-a", 10.0);
  }
  EXPECT_EQ(catalog.eviction_count(), 0u);
  EXPECT_EQ(catalog.replica_count(), 100u);
}

// ---------------------------------------------------------------------------
// Name rejection
// ---------------------------------------------------------------------------

std::string parse_error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a ParseError";
  return {};
}

TEST(PolicyRegistryTransfer, UnknownNamesAreRejectedWithTheKnownList) {
  EXPECT_THROW(policy::parse<policy::Replication>("gossip", "x"), ParseError);
  const std::string what = parse_error_of(
      [] { policy::parse<policy::Eviction>("random", "--eviction-policy"); });
  EXPECT_NE(what.find("--eviction-policy"), std::string::npos) << what;
  EXPECT_NE(what.find("'random'"), std::string::npos) << what;
  EXPECT_NE(what.find("lru, pin-sources"), std::string::npos) << what;
  EXPECT_EQ(policy::parse<policy::Replication>("push-to-consumer", "x"),
            policy::Replication::kPushToConsumer);
  EXPECT_EQ(policy::parse<policy::Eviction>("pin-sources", "x"), policy::Eviction::kPinSources);
  EXPECT_EQ(policy::parse<policy::Replication>("fanout-k", "x"), policy::Replication::kFanoutK);
  EXPECT_EQ(policy::parse<policy::Eviction>("lru", "x"), policy::Eviction::kLru);
}

TEST(PolicyNames, TheGridRejectsUnknownNamesWhenBuilt) {
  // The names are parsed before the SE outage windows are scheduled, so a
  // rejected grid leaves no event behind that points into it. The eviction
  // name is refused even though no SE is bounded to consult it.
  grid::GridConfig eviction = multi_se_config("none", 300.0, 2000.0);
  eviction.replica_eviction_policy = "random";
  grid::GridConfig matchmaking = multi_se_config("none", 300.0, 2000.0);
  matchmaking.matchmaking_policy = "bogus";
  for (const auto& [config, field, value] :
       {std::tuple{multi_se_config("gossip", 300.0, 2000.0), "grid replication policy",
                   "gossip"},
        std::tuple{eviction, "grid eviction policy", "random"},
        std::tuple{matchmaking, "grid matchmaking policy", "bogus"}}) {
    sim::Simulator simulator;
    const std::string what =
        parse_error_of([&, &config = config] { grid::Grid grid(simulator, config); });
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos) << what;
    EXPECT_EQ(simulator.pending_events(), 0u) << what;
  }
}

// ---------------------------------------------------------------------------
// Every built-in policy, pinned end to end
// ---------------------------------------------------------------------------

/// One decision kind: its names, and how a run selects one of them with the
/// path that policy decides switched on.
struct PolicyKind {
  const char* kind;
  const std::vector<std::string>& names;
  void (*select)(const std::string& name, grid::GridConfig& grid,
                 enactor::EnactmentPolicy& policy);
};

const std::vector<PolicyKind>& policy_kinds() {
  static const std::vector<PolicyKind> kinds = {
      {"matchmaking", policy::names<policy::Matchmaking>(),
       [](const std::string& name, grid::GridConfig&, enactor::EnactmentPolicy& policy) {
         policy.matchmaking = name;
       }},
      // Placement decides only retries: fail CE attempts, resubmit from the
      // enactor (not the grid).
      {"placement", policy::names<policy::Placement>(),
       [](const std::string& name, grid::GridConfig& grid, enactor::EnactmentPolicy& policy) {
         policy.placement = name;
         policy.retry = enactor::RetryPolicy::resubmit(3);
         grid.max_attempts = 1;
         grid.failure_probability = 0.3;
       }},
      {"replica", policy::names<policy::Replica>(),
       [](const std::string& name, grid::GridConfig& grid, enactor::EnactmentPolicy&) {
         grid.replica_policy = name;
       }},
      {"replication", policy::names<policy::Replication>(),
       [](const std::string& name, grid::GridConfig& grid, enactor::EnactmentPolicy&) {
         grid.replication_policy = name;
       }},
      // Eviction decides only on a bounded SE.
      {"eviction", policy::names<policy::Eviction>(),
       [](const std::string& name, grid::GridConfig& grid, enactor::EnactmentPolicy&) {
         grid.replica_eviction_policy = name;
         grid.storage_elements[0].capacity_mb = 10.0;
       }},
  };
  return kinds;
}

RunOutput run_with(const PolicyKind& kind, const std::string& name) {
  grid::GridConfig config = multi_se_config("none");
  enactor::EnactmentPolicy policy = sp_dp_continue();
  kind.select(name, config, policy);
  return run_bronze(config, policy);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PolicyDeterminism, SameSeedAndPolicyGiveIdenticalTimelines) {
  // One line per built-in policy: FNV-1a of its timeline CSV plus sink
  // provenance.
  std::string digests;
  for (const PolicyKind& kind : policy_kinds()) {
    for (const std::string& name : kind.names) {
      const RunOutput first = run_with(kind, name);
      const RunOutput second = run_with(kind, name);
      EXPECT_EQ(first.timeline_csv, second.timeline_csv) << kind.kind << " " << name;
      EXPECT_EQ(first.provenance, second.provenance) << kind.kind << " " << name;
      if (std::string(kind.kind) == "eviction") {
        EXPECT_GT(first.evictions, 0u) << name;
      }
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(
                        stable_hash64(first.timeline_csv + first.provenance)));
      digests += std::string(kind.kind) + " " + name + " " + hex + "\n";
    }
  }
  EXPECT_EQ(digests, read_file(std::string(MOTEUR_GOLDEN_DIR) + "/policy_digests.txt"))
      << "tests/golden/policy_digests.txt differs; this run's digests:\n"
      << digests;
}

TEST(PolicyDeterminism, PlacementAvoidSetsHoldEndToEnd) {
  const PolicyKind& placement = policy_kinds()[1];
  ASSERT_STREQ(placement.kind, "placement");
  // The CEs each submission's attempts landed on, in attempt order.
  const auto attempts_by_submission = [&](const std::string& name) {
    std::map<std::string, std::map<std::size_t, std::string>> ces;
    const RunOutput run = run_with(placement, name);
    for (const enactor::InvocationTrace& trace : run.timeline.traces()) {
      if (!trace.job) continue;
      ces[trace.processor + "/" + trace.data_label()][trace.attempt] =
          trace.job->computing_element;
    }
    return ces;
  };
  std::size_t retried = 0;
  for (const auto& [submission, ces] : attempts_by_submission("spread")) {
    std::set<std::string> distinct;
    for (const auto& [attempt, ce] : ces) distinct.insert(ce);
    EXPECT_EQ(distinct.size(), ces.size()) << "spread reused a CE for " << submission;
    if (ces.size() > 2) ++retried;
  }
  EXPECT_GT(retried, 0u) << "no submission of the spread run reached a third attempt";
  for (const auto& [submission, ces] : attempts_by_submission("avoid-previous")) {
    const std::string* previous = nullptr;
    for (const auto& [attempt, ce] : ces) {
      if (previous != nullptr) {
        EXPECT_NE(*previous, ce) << "avoid-previous repeated a CE for " << submission;
      }
      previous = &ce;
    }
  }
  // The checks can fail: under rematch, attempts do land on the same CE.
  std::size_t repeats = 0;
  for (const auto& [submission, ces] : attempts_by_submission("rematch")) {
    std::set<std::string> distinct;
    for (const auto& [attempt, ce] : ces) distinct.insert(ce);
    repeats += ces.size() - distinct.size();
  }
  EXPECT_GT(repeats, 0u);
}

}  // namespace
}  // namespace moteur

// Decentralized data flow: SE→SE transfer determinism, replication policy
// behavior (push-to-consumer byte routing, fanout-k background copies),
// capacity-bounded replica eviction (lru / pin-sources), and the registry's
// rejection of unknown policy names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "policy/registry.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

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
  double makespan = 0.0;
  std::size_t failures = 0;
  grid::Grid::Stats grid_stats;
  double bytes_via_ui = 0.0;
  double bytes_peer = 0.0;
};

RunOutput run_bronze(const grid::GridConfig& config) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, config);
  enactor::SimGridBackend backend(grid);
  data::ReplicaCatalog catalog;
  backend.set_catalog(&catalog);

  services::ServiceRegistry registry;
  app::register_simulated_services(registry);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  enactor::Enactor moteur(backend, registry, policy);

  const enactor::EnactmentResult result =
      moteur.run({.workflow = app::bronze_standard_workflow(),
                  .inputs = app::bronze_standard_dataset(6)});

  RunOutput out;
  out.timeline_csv = enactor::timeline_to_csv(result.timeline, /*data_plane=*/true);
  out.provenance = data::export_provenance(result.sink_outputs);
  out.makespan = result.makespan();
  out.failures = result.failures();
  out.grid_stats = grid.stats();
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
  catalog.set_eviction_policy(policy::PolicyRegistry::instance().make_eviction("lru"));
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
  catalog.set_eviction_policy(
      policy::PolicyRegistry::instance().make_eviction("pin-sources"));
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
  catalog.set_eviction_policy(policy::PolicyRegistry::instance().make_eviction("lru"));
  for (int i = 0; i < 100; ++i) {
    catalog.register_replica("f" + std::to_string(i), "se-a", 10.0);
  }
  EXPECT_EQ(catalog.eviction_count(), 0u);
  EXPECT_EQ(catalog.replica_count(), 100u);
}

// ---------------------------------------------------------------------------
// Registry rejection
// ---------------------------------------------------------------------------

TEST(PolicyRegistryTransfer, UnknownNamesAreRejectedWithTheKnownList) {
  const policy::PolicyRegistry& registry = policy::PolicyRegistry::instance();
  EXPECT_THROW(registry.make_replication("gossip"), ParseError);
  EXPECT_THROW(registry.check_eviction("random", "--eviction-policy"), ParseError);
  EXPECT_NE(registry.make_replication("push-to-consumer"), nullptr);
  EXPECT_EQ(registry.check_eviction("pin-sources", "x"), "pin-sources");
  EXPECT_NE(registry.make_replication("fanout-k"), nullptr);
  EXPECT_NE(registry.make_eviction("lru"), nullptr);
}

}  // namespace
}  // namespace moteur

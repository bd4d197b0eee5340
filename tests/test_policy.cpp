// Policy engine: registry validation, built-in decision behavior, manifest
// round-trip, and the two system-level guarantees — default-policy runs are
// bit-identical to the pre-policy-engine goldens, and every policy is
// deterministic under a fixed seed.
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "policy/registry.hpp"
#include "services/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace moteur {
namespace {

using policy::PolicyRegistry;

// ---------------------------------------------------------------------------
// Registry: names, validation, construction
// ---------------------------------------------------------------------------

TEST(PolicyRegistry, KnowsTheBuiltins) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  const auto has = [](const std::vector<std::string>& names, const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has(reg.matchmaking_names(), "queue-rank"));
  EXPECT_TRUE(has(reg.matchmaking_names(), "data-gravity"));
  EXPECT_TRUE(has(reg.matchmaking_names(), "locality-first"));
  EXPECT_TRUE(has(reg.matchmaking_names(), "k-choices"));
  EXPECT_TRUE(has(reg.placement_names(), "rematch"));
  EXPECT_TRUE(has(reg.placement_names(), "avoid-previous"));
  EXPECT_TRUE(has(reg.placement_names(), "spread"));
  EXPECT_TRUE(has(reg.replica_names(), "close-se"));
  EXPECT_TRUE(has(reg.replica_names(), "broadcast"));
  EXPECT_TRUE(has(reg.admission_names(), "weighted"));
  EXPECT_TRUE(has(reg.admission_names(), "round-robin"));
}

TEST(PolicyRegistry, CheckRejectsUnknownNamesWithTheFlagLabel) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.check_matchmaking("queue-rank", "--matchmaking"), "queue-rank");
  try {
    reg.check_matchmaking("bogus", "--matchmaking");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--matchmaking"), std::string::npos) << what;
    EXPECT_NE(what.find("queue-rank"), std::string::npos) << what;
  }
  EXPECT_THROW(reg.make_placement("bogus"), ParseError);
  EXPECT_THROW(reg.make_replica("bogus"), ParseError);
  EXPECT_THROW(reg.make_admission("bogus"), ParseError);
  EXPECT_THROW(reg.make_matchmaking("bogus", Rng(1)), ParseError);
}

TEST(PolicyRegistry, StageInAwarenessPerPolicy) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_FALSE(reg.matchmaking_wants_stage_in("queue-rank"));
  EXPECT_TRUE(reg.matchmaking_wants_stage_in("data-gravity"));
  EXPECT_TRUE(reg.matchmaking_wants_stage_in("locality-first"));
  // k-choices compares whatever ranks it is handed; it does not demand the
  // data plane on its own.
  EXPECT_FALSE(reg.matchmaking_wants_stage_in("k-choices"));
}

// ---------------------------------------------------------------------------
// Decision behavior of the built-ins, on plain candidate lists
// ---------------------------------------------------------------------------

std::vector<policy::CeCandidate> candidates() {
  return {{"ce-a", 30.0, 5.0}, {"ce-b", 10.0, 50.0}, {"ce-c", 20.0, 1.0}};
}

TEST(MatchmakingPolicies, QueueRankPicksTheLowestRank) {
  const Rng base(7);
  const auto policy = PolicyRegistry::instance().make_matchmaking("queue-rank", base);
  Rng tie = base.fork("ties");
  // Without a stage-in estimator (stage_in_seconds == 0, the default-run
  // case) queue-rank ranks purely on queue depth.
  const std::vector<policy::CeCandidate> pool = {
      {"ce-a", 30.0, 0.0}, {"ce-b", 10.0, 0.0}, {"ce-c", 20.0, 0.0}};
  EXPECT_EQ(policy->choose(pool, tie), 1u);
  // With estimates present it sums them — the ranking data-gravity reuses.
  Rng tie2 = base.fork("ties");
  EXPECT_EQ(policy->choose(candidates(), tie2), 2u);  // ce-c: 20 + 1
}

TEST(MatchmakingPolicies, QueueRankBreaksTiesThroughTheSharedStream) {
  const Rng base(7);
  const auto policy = PolicyRegistry::instance().make_matchmaking("queue-rank", base);
  const std::vector<policy::CeCandidate> tied = {
      {"ce-a", 10.0, 0.0}, {"ce-b", 10.0, 0.0}, {"ce-c", 10.0, 0.0}};
  // Tie draws must follow the same substream a direct uniform_int would.
  Rng tie_a = base.fork("ties");
  Rng tie_b = base.fork("ties");
  const std::size_t picked = policy->choose(tied, tie_a);
  EXPECT_EQ(picked, static_cast<std::size_t>(tie_b.uniform_int(0, 2)));
}

TEST(MatchmakingPolicies, DataGravityRanksOnQueuePlusStageIn) {
  const Rng base(7);
  const auto policy = PolicyRegistry::instance().make_matchmaking("data-gravity", base);
  EXPECT_TRUE(policy->wants_stage_in());
  Rng tie = base.fork("ties");
  // Combined cost: a=35, b=60, c=21 -> ce-c.
  EXPECT_EQ(policy->choose(candidates(), tie), 2u);
}

TEST(MatchmakingPolicies, LocalityFirstPrefersCheapStageIn) {
  const Rng base(7);
  const auto policy =
      PolicyRegistry::instance().make_matchmaking("locality-first", base);
  Rng tie = base.fork("ties");
  // Lexicographic (stage-in, queue rank): ce-c has the cheapest stage-in.
  EXPECT_EQ(policy->choose(candidates(), tie), 2u);
}

TEST(MatchmakingPolicies, KChoicesIsDeterministicPerSeedAndIgnoresTieStream) {
  const Rng base(42);
  const auto reg = &PolicyRegistry::instance();
  const auto a = reg->make_matchmaking("k-choices", base);
  const auto b = reg->make_matchmaking("k-choices", base);
  Rng tie_a = base.fork("ties");
  Rng tie_b = base.fork("ties");
  for (int i = 0; i < 32; ++i) {
    const std::size_t pick = a->choose(candidates(), tie_a);
    EXPECT_EQ(pick, b->choose(candidates(), tie_b));
    EXPECT_LT(pick, 3u);
  }
  // The private substream never touched the shared tie stream.
  Rng fresh = base.fork("ties");
  EXPECT_EQ(tie_a.uniform_int(0, 1000), fresh.uniform_int(0, 1000));
}

TEST(PlacementPolicies, AvoidSetsPerPolicy) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  const std::vector<std::string> tried = {"ce-a", "ce-b"};
  policy::PlacementContext ctx;
  ctx.attempt = 3;
  ctx.tried_ces = &tried;
  EXPECT_TRUE(reg.make_placement("rematch")->avoid(ctx).empty());
  EXPECT_EQ(reg.make_placement("avoid-previous")->avoid(ctx),
            std::vector<std::string>{"ce-b"});
  EXPECT_EQ(reg.make_placement("spread")->avoid(ctx), tried);
}

TEST(ReplicaPolicies, TargetsAndProbeOrder) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  const std::vector<std::string> all = {"se-1", "se-2", "se-3"};
  const auto close = reg.make_replica("close-se");
  EXPECT_EQ(close->placement_targets("se-2", all), std::vector<std::string>{"se-2"});
  std::vector<std::string> probe = all;
  close->probe_order(probe, "se-2");
  // The rotation shifts the prefix right: close SE first, others preserved
  // behind it in their original relative positions after the cycle.
  EXPECT_EQ(probe, (std::vector<std::string>{"se-2", "se-1", "se-3"}));

  const auto broadcast = reg.make_replica("broadcast");
  EXPECT_EQ(broadcast->placement_targets("se-2", all), all);
  EXPECT_EQ(broadcast->placement_targets("se-2", {}),
            std::vector<std::string>{"se-2"});
}

TEST(AdmissionPolicies, WeightMapping) {
  const PolicyRegistry& reg = PolicyRegistry::instance();
  EXPECT_EQ(reg.make_admission("weighted")->weight("run-1", 3), 3u);
  EXPECT_EQ(reg.make_admission("round-robin")->weight("run-1", 3), 1u);
}

// ---------------------------------------------------------------------------
// Manifest round-trip
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* kDataDir = MOTEUR_EXAMPLES_DATA_DIR;
const char* kGoldenDir = MOTEUR_GOLDEN_DIR;

enactor::RunManifest bronze_manifest() {
  return enactor::RunManifest::from_xml(
      read_file(std::string(kDataDir) + "/bronze_run.xml"));
}

TEST(PolicyManifest, RoundTripsTheFourPolicyNames) {
  enactor::RunManifest manifest = bronze_manifest();
  manifest.policy.matchmaking = "data-gravity";
  manifest.policy.placement = "spread";
  manifest.replica_policy = "broadcast";
  manifest.policy.admission = "round-robin";
  const auto parsed = enactor::RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(parsed.policy.matchmaking, "data-gravity");
  EXPECT_EQ(parsed.policy.placement, "spread");
  EXPECT_EQ(parsed.replica_policy, "broadcast");
  EXPECT_EQ(parsed.policy.admission, "round-robin");
  // The grid-wide names reach the grid configuration with the matchmaking.
  const grid::GridConfig config = parsed.make_grid_config();
  EXPECT_EQ(config.matchmaking_policy, "data-gravity");
  EXPECT_EQ(config.replica_policy, "broadcast");
}

TEST(PolicyManifest, OmitsAttributesWhenUnsetAndRejectsUnknownNames) {
  const enactor::RunManifest manifest = bronze_manifest();
  const std::string xml = manifest.to_xml();
  EXPECT_EQ(xml.find("matchmaking="), std::string::npos);
  EXPECT_EQ(xml.find("replicaPolicy="), std::string::npos);
  enactor::RunManifest tagged = manifest;
  tagged.policy.matchmaking = "queue-rank";
  std::string bad = tagged.to_xml();
  const auto pos = bad.find("queue-rank");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, std::string("queue-rank").size(), "bogus-rank");
  EXPECT_THROW(enactor::RunManifest::from_xml(bad), ParseError);
}

// ---------------------------------------------------------------------------
// System-level: golden bit-identity and per-policy determinism
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string csv;
  std::string provenance;
};

/// Enact the bronze manifest in-process, mirroring the CLI's run path.
RunArtifacts enact(const enactor::RunManifest& manifest) {
  services::ServiceRegistry registry;
  services::load_catalog(read_file(std::string(kDataDir) + "/bronze_services.xml"),
                         registry);
  sim::Simulator simulator;
  const grid::GridConfig grid_config = manifest.make_grid_config();
  grid::Grid grid(simulator, grid_config);
  enactor::SimGridBackend backend(grid);
  data::ReplicaCatalog catalog;
  if (enactor::needs_replica_catalog(grid_config, manifest.policy)) {
    backend.set_catalog(&catalog);
  }
  enactor::Enactor moteur(backend, registry, manifest.policy);
  enactor::RunRequest request;
  request.workflow = manifest.workflow;
  request.inputs = manifest.inputs;
  const enactor::EnactmentResult result = moteur.run(std::move(request));
  EXPECT_EQ(result.failures(), 0u);
  // The golden CSV was captured without the data-plane columns; keep the
  // column set fixed so per-policy artifacts stay comparable.
  return {enactor::timeline_to_csv(result.timeline, /*data_plane=*/false),
          data::export_provenance(result.sink_outputs)};
}

TEST(PolicyGolden, DefaultRunIsBitIdenticalToThePrePolicyEngineGolden) {
  const RunArtifacts artifacts = enact(bronze_manifest());
  EXPECT_EQ(artifacts.csv, read_file(std::string(kGoldenDir) + "/bronze_timeline.csv"));
  EXPECT_EQ(artifacts.provenance,
            read_file(std::string(kGoldenDir) + "/bronze_provenance.xml"));
}

TEST(PolicyGolden, ExplicitQueueRankMatchesTheDefault) {
  enactor::RunManifest manifest = bronze_manifest();
  manifest.policy.matchmaking = "queue-rank";
  const RunArtifacts artifacts = enact(manifest);
  EXPECT_EQ(artifacts.csv, read_file(std::string(kGoldenDir) + "/bronze_timeline.csv"));
}

TEST(PolicyDeterminism, SameSeedAndPolicyGiveIdenticalTimelines) {
  for (const char* name : {"queue-rank", "data-gravity", "locality-first",
                           "k-choices"}) {
    enactor::RunManifest manifest = bronze_manifest();
    manifest.policy.matchmaking = name;
    const RunArtifacts first = enact(manifest);
    const RunArtifacts second = enact(manifest);
    EXPECT_EQ(first.csv, second.csv) << name;
    EXPECT_EQ(first.provenance, second.provenance) << name;
  }
}

}  // namespace
}  // namespace moteur

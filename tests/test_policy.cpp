// Policy engine: the closed name sets, built-in decision behavior, manifest
// round-trip, and the system-level guarantee that default-policy runs are
// bit-identical to the pre-policy-engine goldens (per-policy determinism on
// the three-SE grid lives in test_transfer.cpp).
#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "policy/policy.hpp"
#include "scripted_backend.hpp"
#include "service/admission.hpp"
#include "services/catalog.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace moteur {
namespace {

using policy::Admission;
using policy::Eviction;
using policy::Matchmaking;
using policy::Placement;
using policy::Replica;
using policy::Replication;

// ---------------------------------------------------------------------------
// Names: the closed sets, parsing, stage-in awareness
// ---------------------------------------------------------------------------

template <typename Kind>
void expect_names_round_trip() {
  const std::vector<std::string>& names = policy::names<Kind>();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    EXPECT_EQ(policy::to_string(policy::parse<Kind>(name, "x")), name);
  }
}

TEST(PolicyRegistry, KnowsTheBuiltins) {
  const auto has = [](const std::vector<std::string>& names, const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has(policy::names<Matchmaking>(), "queue-rank"));
  EXPECT_TRUE(has(policy::names<Matchmaking>(), "data-gravity"));
  EXPECT_TRUE(has(policy::names<Matchmaking>(), "locality-first"));
  EXPECT_TRUE(has(policy::names<Matchmaking>(), "k-choices"));
  EXPECT_TRUE(has(policy::names<Placement>(), "rematch"));
  EXPECT_TRUE(has(policy::names<Placement>(), "avoid-previous"));
  EXPECT_TRUE(has(policy::names<Placement>(), "spread"));
  EXPECT_TRUE(has(policy::names<Replica>(), "close-se"));
  EXPECT_TRUE(has(policy::names<Replica>(), "broadcast"));
  EXPECT_TRUE(has(policy::names<Admission>(), "weighted"));
  EXPECT_TRUE(has(policy::names<Admission>(), "round-robin"));
  // Each name parses to the value that prints it, in alphabetical order.
  expect_names_round_trip<Matchmaking>();
  expect_names_round_trip<Placement>();
  expect_names_round_trip<Replica>();
  expect_names_round_trip<Admission>();
  expect_names_round_trip<Replication>();
  expect_names_round_trip<Eviction>();
}

TEST(PolicyRegistry, CheckRejectsUnknownNamesWithTheFlagLabel) {
  EXPECT_EQ(policy::parse<Matchmaking>("queue-rank", "--matchmaking"), Matchmaking::kQueueRank);
  try {
    policy::parse<Matchmaking>("bogus", "--matchmaking");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--matchmaking"), std::string::npos) << what;
    EXPECT_NE(what.find("queue-rank"), std::string::npos) << what;
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
  }
  EXPECT_THROW(policy::parse<Placement>("bogus", "x"), ParseError);
  EXPECT_THROW(policy::parse<Replica>("bogus", "x"), ParseError);
  EXPECT_THROW(policy::parse<Admission>("bogus", "x"), ParseError);
  EXPECT_THROW(policy::parse<Matchmaking>("bogus", "x"), ParseError);
}

TEST(PolicyRegistry, StageInAwarenessPerPolicy) {
  EXPECT_FALSE(policy::wants_stage_in(Matchmaking::kQueueRank));
  EXPECT_TRUE(policy::wants_stage_in(Matchmaking::kDataGravity));
  EXPECT_TRUE(policy::wants_stage_in(Matchmaking::kLocalityFirst));
  // k-choices compares whatever ranks it is handed; it does not demand the
  // data plane on its own.
  EXPECT_FALSE(policy::wants_stage_in(Matchmaking::kKChoices));
}

// ---------------------------------------------------------------------------
// Decision behavior of the built-ins
// ---------------------------------------------------------------------------

std::vector<policy::CeCandidate> candidates() {
  return {{"ce-a", 30.0, 5.0}, {"ce-b", 10.0, 50.0}, {"ce-c", 20.0, 1.0}};
}

TEST(MatchmakingPolicies, QueueRankPicksTheLowestRank) {
  const Rng base(7);
  Rng tie = base.fork("ties");
  Rng k = base.fork("k-choices");
  // Without a stage-in estimator (stage_in_seconds == 0, the default-run
  // case) queue-rank ranks purely on queue depth.
  const std::vector<policy::CeCandidate> pool = {
      {"ce-a", 30.0, 0.0}, {"ce-b", 10.0, 0.0}, {"ce-c", 20.0, 0.0}};
  EXPECT_EQ(policy::choose(Matchmaking::kQueueRank, pool, tie, k), 1u);
  // With estimates present it sums them — the ranking data-gravity reuses.
  Rng tie2 = base.fork("ties");
  EXPECT_EQ(policy::choose(Matchmaking::kQueueRank, candidates(), tie2, k), 2u);  // 20 + 1
}

TEST(MatchmakingPolicies, QueueRankBreaksTiesThroughTheSharedStream) {
  const Rng base(7);
  Rng k = base.fork("k-choices");
  const std::vector<policy::CeCandidate> tied = {
      {"ce-a", 10.0, 0.0}, {"ce-b", 10.0, 0.0}, {"ce-c", 10.0, 0.0}};
  // Tie draws must follow the same substream a direct uniform_int would.
  Rng tie_a = base.fork("ties");
  Rng tie_b = base.fork("ties");
  const std::size_t picked = policy::choose(Matchmaking::kQueueRank, tied, tie_a, k);
  EXPECT_EQ(picked, static_cast<std::size_t>(tie_b.uniform_int(0, 2)));
}

TEST(MatchmakingPolicies, DataGravityRanksOnQueuePlusStageIn) {
  const Rng base(7);
  EXPECT_TRUE(policy::wants_stage_in(Matchmaking::kDataGravity));
  Rng tie = base.fork("ties");
  Rng k = base.fork("k-choices");
  // Combined cost: a=35, b=60, c=21 -> ce-c.
  EXPECT_EQ(policy::choose(Matchmaking::kDataGravity, candidates(), tie, k), 2u);
}

TEST(MatchmakingPolicies, LocalityFirstPrefersCheapStageIn) {
  const Rng base(7);
  Rng tie = base.fork("ties");
  Rng k = base.fork("k-choices");
  // Lexicographic (stage-in, queue rank): ce-c has the cheapest stage-in.
  EXPECT_EQ(policy::choose(Matchmaking::kLocalityFirst, candidates(), tie, k), 2u);
}

TEST(MatchmakingPolicies, KChoicesIsDeterministicPerSeedAndIgnoresTieStream) {
  const Rng base(42);
  Rng a = base.fork("k-choices");
  Rng b = base.fork("k-choices");
  Rng tie_a = base.fork("ties");
  Rng tie_b = base.fork("ties");
  for (int i = 0; i < 32; ++i) {
    const std::size_t pick = policy::choose(Matchmaking::kKChoices, candidates(), tie_a, a);
    EXPECT_EQ(pick, policy::choose(Matchmaking::kKChoices, candidates(), tie_b, b));
    EXPECT_LT(pick, 3u);
  }
  // The private substream never touched the shared tie stream.
  Rng fresh = base.fork("ties");
  EXPECT_EQ(tie_a.uniform_int(0, 1000), fresh.uniform_int(0, 1000));
}

// The vector-based tie-break `choose` used before it learned to count ties
// and scan again; kept as the reference the allocation-free one must match
// pick for pick and draw for draw.
std::size_t reference_break_tie(const std::vector<std::size_t>& best, Rng& tie_rng) {
  if (best.size() == 1) return best.front();
  return best[static_cast<std::size_t>(
      tie_rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1))];
}

std::size_t reference_queue_rank(const std::vector<policy::CeCandidate>& candidates,
                                 Rng& tie_rng) {
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
  return reference_break_tie(best, tie_rng);
}

std::size_t reference_locality_first(const std::vector<policy::CeCandidate>& candidates,
                                      Rng& tie_rng) {
  std::vector<std::size_t> best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (best.empty()) {
      best = {i};
      continue;
    }
    const policy::CeCandidate& lead = candidates[best.front()];
    const policy::CeCandidate& c = candidates[i];
    if (c.stage_in_seconds < lead.stage_in_seconds ||
        (c.stage_in_seconds == lead.stage_in_seconds && c.queue_rank < lead.queue_rank)) {
      best = {i};
    } else if (c.stage_in_seconds == lead.stage_in_seconds &&
               c.queue_rank == lead.queue_rank) {
      best.push_back(i);
    }
  }
  return reference_break_tie(best, tie_rng);
}

TEST(MatchmakingPolicies, TieBreakMatchesTheVectorReference) {
  // Ranks drawn from a few values force exact ties, often several at once.
  const double queue_ranks[] = {-1.0, -0.5, 0.0, 0.5, 1.0};
  const double stage_ins[] = {0.0, 2.0, 5.0};
  Rng gen(2024);
  std::size_t tied_draws = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<policy::CeCandidate> pool(static_cast<std::size_t>(gen.uniform_int(1, 12)));
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i] = {"ce" + std::to_string(i), queue_ranks[gen.uniform_int(0, 4)],
                 stage_ins[gen.uniform_int(0, 2)]};
    }
    const Rng base(static_cast<std::uint64_t>(trial));
    for (const Matchmaking matchmaking :
         {Matchmaking::kQueueRank, Matchmaking::kLocalityFirst}) {
      Rng tie = base.fork("ties");
      Rng reference_tie = base.fork("ties");
      Rng k = base.fork("k-choices");
      const std::size_t expected = matchmaking == Matchmaking::kQueueRank
                                       ? reference_queue_rank(pool, reference_tie)
                                       : reference_locality_first(pool, reference_tie);
      EXPECT_EQ(policy::choose(matchmaking, pool, tie, k), expected)
          << policy::to_string(matchmaking) << ", trial " << trial;
      // Same number of draws: the two streams continue in step.
      const std::int64_t next = tie.uniform_int(0, 1'000'000);
      EXPECT_EQ(next, reference_tie.uniform_int(0, 1'000'000))
          << policy::to_string(matchmaking) << ", trial " << trial;
      Rng untouched = base.fork("ties");
      if (next != untouched.uniform_int(0, 1'000'000)) ++tied_draws;
    }
  }
  EXPECT_GT(tied_draws, 500u);  // of 4000 choices: the ties were really there
}

TEST(PlacementPolicies, AvoidSetsPerPolicy) {
  const std::vector<std::string> tried = {"ce-a", "ce-b"};
  EXPECT_TRUE(policy::avoid(Placement::kRematch, tried).empty());
  EXPECT_EQ(policy::avoid(Placement::kAvoidPrevious, tried), std::vector<std::string>{"ce-b"});
  EXPECT_EQ(policy::avoid(Placement::kSpread, tried), tried);
  EXPECT_TRUE(policy::avoid(Placement::kAvoidPrevious, {}).empty());
}

/// One CE staging through se-2, with named SEs declared se-1, se-3, se-2.
grid::GridConfig probe_grid(const std::string& replica_policy) {
  grid::GridConfig cfg = grid::GridConfig::constant(60.0, 4, 7);
  for (const char* name : {"se-1", "se-3", "se-2"}) {
    grid::StorageElementConfig se;
    se.name = name;
    cfg.storage_elements.push_back(se);
  }
  cfg.computing_elements.front().close_storage_element = "se-2";
  cfg.replica_policy = replica_policy;
  return cfg;
}

TEST(ReplicaPolicies, TargetsAndProbeOrder) {
  sim::Simulator simulator;
  grid::Grid close(simulator, probe_grid("close-se"));
  const std::string ce = close.config().computing_elements.front().name;
  EXPECT_EQ(close.replica_targets(ce), std::vector<std::string>{"se-2"});
  grid::Grid broadcast(simulator, probe_grid("broadcast"));
  EXPECT_EQ(broadcast.replica_targets(ce),
            (std::vector<std::string>{"se-1", "se-2", "se-3", "se0"}));

  // Both policies probe the close SE's copy first, then the others in
  // registration order: with se-2's and se-3's copies lost on every probe,
  // staging loses se-2's copy, fails over to se-1, and never reaches se-3.
  for (const char* replica_policy : {"close-se", "broadcast"}) {
    grid::GridConfig cfg = probe_grid(replica_policy);
    cfg.storage_elements[0].replica_loss_probability = 0.0;  // se-1
    cfg.storage_elements[1].replica_loss_probability = 1.0;  // se-3
    cfg.storage_elements[2].replica_loss_probability = 1.0;  // se-2
    sim::Simulator sim;
    grid::Grid grid(sim, cfg);
    data::ReplicaCatalog catalog;
    grid.set_catalog(&catalog);
    for (const char* se : {"se-1", "se-3", "se-2"}) catalog.register_replica("f", se, 10.0);
    grid::JobRequest job;
    job.name = "j";
    job.compute_seconds = 10.0;
    job.input_refs = {{"f", 10.0}};
    std::optional<grid::JobRecord> record;
    grid.submit(job, [&](const grid::JobRecord& r) { record = r; });
    sim.run();
    ASSERT_TRUE(record) << replica_policy;
    EXPECT_EQ(record->state, grid::JobState::kDone) << replica_policy;
    EXPECT_EQ(record->replica_faults, 1) << replica_policy;
    EXPECT_EQ(record->replica_failovers, 1) << replica_policy;
    EXPECT_TRUE(catalog.has("f", "se-3")) << replica_policy;
  }
}

/// Launch order of four submissions each from runs H and L, both asking for
/// weight 3, through a gate admitting one execution at a time.
std::string grant_order(const std::string& gate_policy) {
  testkit::ScriptedBackend backend;
  const auto gate = std::make_shared<service::AdmissionGate>(
      backend, service::AdmissionGate::Config{1, gate_policy});
  const auto heavy = gate->open(3);
  const auto light = gate->open(3);
  const auto service_named = [](const char* id) {
    return std::make_shared<services::FunctionalService>(
        id, std::vector<std::string>{}, std::vector<std::string>{},
        [](const services::Inputs&) { return services::Result{}; });
  };
  for (const auto& [run, service] : {std::pair{heavy.get(), service_named("H")},
                                     std::pair{light.get(), service_named("L")}}) {
    for (int i = 0; i < 4; ++i) {
      run->execute(service, {services::Inputs{}}, [](enactor::Outcome) {});
    }
  }
  // One execution is pending at a time: each completion lets the gate grant
  // the next.
  std::string launched;
  while (!backend.executions().empty()) {
    launched += backend.executions().front().service->id();
    backend.succeed(0);
  }
  return launched;
}

TEST(AdmissionPolicies, WeightMapping) {
  // weighted grants the 3 asked for per visit, round-robin grants 1.
  EXPECT_EQ(grant_order("weighted"), "HHHLLLHL");
  EXPECT_EQ(grant_order("round-robin"), "HLHLHLHL");
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
  manifest.admission_policy = "round-robin";
  const auto parsed = enactor::RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(parsed.policy.matchmaking, "data-gravity");
  EXPECT_EQ(parsed.policy.placement, "spread");
  EXPECT_EQ(parsed.replica_policy, "broadcast");
  EXPECT_EQ(parsed.admission_policy, "round-robin");
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
// System-level: golden bit-identity
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string csv;
  std::string provenance;
};

/// Enact the bronze manifest in-process through an Enactor (the CLI enacts it
/// through a RunService; cli_run_matches_golden checks that path).
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
  // The golden CSV was captured without the data-plane columns.
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

}  // namespace
}  // namespace moteur

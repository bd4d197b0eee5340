// Data plane: content digests, the replica catalog, the invocation
// memoization cache (alone and composed with fault containment through the
// engine and the RunService), and data-aware broker matchmaking.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataref.hpp"
#include "data/dataset.hpp"
#include "data/invocation_cache.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "failing_site_grid.hpp"
#include "grid/grid.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "workflow/patterns.hpp"

namespace moteur {
namespace {

using services::FunctionalService;
using services::Inputs;
using services::JobProfile;
using services::Result;

// ---------------------------------------------------------------------------
// Content digests
// ---------------------------------------------------------------------------

TEST(Digest, Fnv1aIsDeterministicAndContentSensitive) {
  EXPECT_EQ(data::fnv1a(""), data::kFnvOffset);
  EXPECT_EQ(data::fnv1a("image7.png"), data::fnv1a("image7.png"));
  EXPECT_NE(data::fnv1a("image7.png"), data::fnv1a("image8.png"));
  // Chaining through `seed` differs from concatenation-free restarts.
  EXPECT_NE(data::fnv1a("b", data::fnv1a("a")), data::fnv1a("b"));
}

TEST(Digest, DerivedDigestIsOrderIndependentButPortSensitive) {
  // The cache-key property: equal bindings through the same service and
  // port collide regardless of iteration order, but swapping which port
  // carries which value must not (non-commutative services).
  EXPECT_EQ(data::derived_digest(7, "out", {{"a", 1}, {"b", 2}, {"c", 3}}),
            data::derived_digest(7, "out", {{"c", 3}, {"a", 1}, {"b", 2}}));
  EXPECT_NE(data::derived_digest(7, "out", {{"a", 1}, {"b", 2}}),
            data::derived_digest(7, "out", {{"a", 2}, {"b", 1}}));  // swapped ports
  EXPECT_NE(data::derived_digest(7, "out", {{"a", 1}, {"b", 2}, {"c", 3}}),
            data::derived_digest(7, "out", {{"a", 1}, {"b", 2}, {"c", 4}}));
  EXPECT_NE(data::derived_digest(7, "out", {{"a", 1}, {"b", 2}}),
            data::derived_digest(8, "out", {{"a", 1}, {"b", 2}}));
  EXPECT_NE(data::derived_digest(7, "c1", {{"a", 1}, {"b", 2}}),
            data::derived_digest(7, "c2", {{"a", 1}, {"b", 2}}));
}

TEST(Digest, HexSpellingIsFixedWidth) {
  EXPECT_EQ(data::digest_hex(0x1), "0000000000000001");
  EXPECT_EQ(data::digest_hex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(data::digest_hex(~0ull), "ffffffffffffffff");
}

TEST(Digest, SourceTokensWithEqualValuesShareADigest) {
  const auto a = data::Token::from_source("src", 0, std::string("x"), "x");
  const auto b = data::Token::from_source("other", 5, std::string("x"), "x");
  const auto c = data::Token::from_source("src", 1, std::string("y"), "y");
  EXPECT_NE(a.digest(), 0u);
  EXPECT_EQ(a.digest(), b.digest());  // content, not provenance
  EXPECT_NE(a.digest(), c.digest());
}

// ---------------------------------------------------------------------------
// Replica catalog
// ---------------------------------------------------------------------------

TEST(ReplicaCatalog, RegisterLocateAndSize) {
  data::ReplicaCatalog catalog;
  EXPECT_TRUE(catalog.locate("lfn://x").empty());
  catalog.register_replica("lfn://x", "se-a", 7.8);
  catalog.register_replica("lfn://x", "se-b", 7.8);
  catalog.register_replica("lfn://y", "se-a", 1.0);
  EXPECT_EQ(catalog.locate("lfn://x"), (std::vector<std::string>{"se-a", "se-b"}));
  EXPECT_TRUE(catalog.has("lfn://x", "se-b"));
  EXPECT_FALSE(catalog.has("lfn://y", "se-b"));
  EXPECT_DOUBLE_EQ(catalog.size_mb("lfn://x"), 7.8);
  EXPECT_DOUBLE_EQ(catalog.size_mb("lfn://unknown"), 0.0);
  EXPECT_EQ(catalog.file_count(), 2u);
  EXPECT_EQ(catalog.replica_count(), 3u);
}

TEST(ReplicaCatalog, RegistrationIsIdempotentPerStorageElement) {
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://x", "se-a", 2.0);
  catalog.register_replica("lfn://x", "se-a", 2.0);
  EXPECT_EQ(catalog.locate("lfn://x").size(), 1u);
  EXPECT_EQ(catalog.replica_count(), 1u);
}

// ---------------------------------------------------------------------------
// Invocation cache
// ---------------------------------------------------------------------------

TEST(InvocationCache, KeyIsOrderIndependentButPortSensitive) {
  EXPECT_EQ(data::InvocationCache::cache_key(9, {{"a", 1}, {"b", 2}, {"c", 3}}),
            data::InvocationCache::cache_key(9, {{"c", 3}, {"b", 2}, {"a", 1}}));
  // Swapping which port carries which value is a different invocation: the
  // cache must never serve a=X,b=Y's result to a=Y,b=X.
  EXPECT_NE(data::InvocationCache::cache_key(9, {{"a", 1}, {"b", 2}}),
            data::InvocationCache::cache_key(9, {{"a", 2}, {"b", 1}}));
  EXPECT_NE(data::InvocationCache::cache_key(9, {{"a", 1}, {"b", 2}, {"c", 3}}),
            data::InvocationCache::cache_key(9, {{"a", 1}, {"b", 2}}));
  EXPECT_NE(data::InvocationCache::cache_key(9, {{"a", 1}}),
            data::InvocationCache::cache_key(10, {{"a", 1}}));
}

TEST(InvocationCache, CountsHitsAndMissesPerRun) {
  data::InvocationCache cache;
  const std::string key = data::InvocationCache::cache_key(1, {{"in", 2}});
  EXPECT_FALSE(cache.lookup(key, "run-a").has_value());  // probes count nothing
  cache.note_miss("run-a");  // the caller reports the miss when it executes
  data::CachedInvocation memo;
  memo.outputs.push_back(data::CachedOutput{"out", 42, "42", 5, nullptr});
  cache.insert(key, std::move(memo), "run-a");
  ASSERT_TRUE(cache.lookup(key, "run-b").has_value());
  EXPECT_EQ(cache.lookup(key, "run-b")->outputs.at(0).repr, "42");

  EXPECT_EQ(cache.stats("run-a").misses, 1u);
  EXPECT_EQ(cache.stats("run-a").insertions, 1u);
  EXPECT_EQ(cache.stats("run-b").hits, 2u);
  EXPECT_EQ(cache.totals().hits, 2u);
  EXPECT_EQ(cache.totals().misses, 1u);
  EXPECT_EQ(cache.entry_count(), 1u);
  const auto runs = cache.run_ids();
  EXPECT_EQ(runs.size(), 2u);
}

TEST(InvocationCache, FirstWriterWins) {
  data::InvocationCache cache;
  const std::string key = data::InvocationCache::cache_key(1, {{"in", 2}});
  data::CachedInvocation first;
  first.outputs.push_back(data::CachedOutput{"out", 1, "first", 0, nullptr});
  data::CachedInvocation second;
  second.outputs.push_back(data::CachedOutput{"out", 2, "second", 0, nullptr});
  cache.insert(key, std::move(first), "r");
  cache.insert(key, std::move(second), "r");
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats("r").insertions, 1u);  // the duplicate is not counted
  EXPECT_EQ(cache.lookup(key, "r")->outputs.at(0).repr, "first");
}

// ---------------------------------------------------------------------------
// Engine memoization (simulated backend)
// ---------------------------------------------------------------------------

data::InputDataSet items(const std::string& source, std::size_t count) {
  data::InputDataSet ds;
  ds.declare_input(source);
  for (std::size_t j = 0; j < count; ++j) {
    ds.add_item(source, "item" + std::to_string(j));
  }
  return ds;
}

struct SimRig {
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  services::ServiceRegistry registry;

  SimRig() : grid(simulator, grid::GridConfig::constant(10.0)), backend(grid) {}

  void add_chain_services(std::size_t n, double compute) {
    for (std::size_t i = 0; i < n; ++i) {
      registry.add(services::make_simulated_service("P" + std::to_string(i), {"in"},
                                                    {"out"},
                                                    JobProfile{compute, 1.0, 1.0}));
    }
  }
};

TEST(EngineCache, SecondRunThroughOneEnactorIsAllHits) {
  SimRig rig;
  rig.add_chain_services(2, 30.0);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = true;
  enactor::Enactor moteur(rig.backend, rig.registry, policy);

  const auto wf = workflow::make_chain(2);
  const auto first = moteur.run({.workflow = wf, .inputs = items("src", 4)});
  EXPECT_EQ(first.cache_hits(), 0u);
  EXPECT_EQ(first.invocations(), 8u);
  EXPECT_EQ(first.submissions(), 8u);
  const std::size_t jobs_after_first = rig.backend.jobs_submitted();

  const auto second = moteur.run({.workflow = wf, .inputs = items("src", 4)});
  EXPECT_EQ(second.cache_hits(), 8u);
  EXPECT_EQ(second.invocations(), 8u);
  EXPECT_EQ(second.submissions(), 0u);  // no grid job at all
  EXPECT_EQ(rig.backend.jobs_submitted(), jobs_after_first);
  EXPECT_DOUBLE_EQ(second.makespan(), 0.0);  // served at t=0, no grid latency

  // The replayed outputs are indistinguishable from the computed ones.
  const auto& a = first.sink_outputs.at("sink");
  const auto& b = second.sink_outputs.at("sink");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].id(), b[j].id());
    EXPECT_EQ(a[j].repr(), b[j].repr());
    EXPECT_EQ(a[j].digest(), b[j].digest());
    EXPECT_NE(b[j].digest(), 0u);
  }

  const auto* cache = moteur.invocation_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->entry_count(), 8u);
  EXPECT_EQ(cache->totals().hits, 8u);
}

TEST(EngineCache, RepeatedValuesWithinOneRunHit) {
  // Three items carry the same value: under sequential enactment the first
  // invocation computes, the other two are served from the cache mid-run.
  SimRig rig;
  rig.add_chain_services(1, 30.0);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::nop();
  policy.cache = true;
  enactor::Enactor moteur(rig.backend, rig.registry, policy);

  data::InputDataSet ds;
  ds.declare_input("src");
  ds.add_item("src", "same");
  ds.add_item("src", "same");
  ds.add_item("src", "same");
  ds.add_item("src", "unique");

  const auto result = moteur.run({.workflow = workflow::make_chain(1), .inputs = ds});
  EXPECT_EQ(result.invocations(), 4u);
  EXPECT_EQ(result.cache_hits(), 2u);
  EXPECT_EQ(result.submissions(), 2u);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 4u);
}

TEST(EngineCache, SwappedPortBindingsAreDistinctInvocations) {
  // The memoization key is port-sensitive: invoking concat with a="x",b="y"
  // and then a="y",b="x" are different invocations — the second must not be
  // served the first's memoized result (concat is not commutative).
  services::ServiceRegistry registry;
  registry.add(std::make_shared<FunctionalService>(
      "concat", std::vector<std::string>{"a", "b"}, std::vector<std::string>{"out"},
      [](const Inputs& in) {
        const std::string v =
            in.at("a").as<std::string>() + in.at("b").as<std::string>();
        Result r;
        r.outputs["out"] = services::OutputValue{v, v};
        return r;
      }));

  enactor::ThreadedBackend backend(2);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = true;
  enactor::Enactor moteur(backend, registry, policy);

  workflow::Workflow wf("swap");
  wf.add_source("A");
  wf.add_source("B");
  wf.add_processor("concat", {"a", "b"}, {"out"});
  wf.add_sink("sink");
  wf.link("A", "out", "concat", "a");
  wf.link("B", "out", "concat", "b");
  wf.link("concat", "out", "sink", "in");

  data::InputDataSet first;
  first.add_item("A", std::string("x"));
  first.add_item("B", std::string("y"));
  const auto r1 = moteur.run({.workflow = wf, .inputs = first});
  ASSERT_EQ(r1.sink_outputs.at("sink").size(), 1u);
  EXPECT_EQ(r1.sink_outputs.at("sink")[0].as<std::string>(), "xy");

  data::InputDataSet second;
  second.add_item("A", std::string("y"));
  second.add_item("B", std::string("x"));
  const auto r2 = moteur.run({.workflow = wf, .inputs = second});
  EXPECT_EQ(r2.cache_hits(), 0u);  // same value multiset, different binding
  ASSERT_EQ(r2.sink_outputs.at("sink").size(), 1u);
  EXPECT_EQ(r2.sink_outputs.at("sink")[0].as<std::string>(), "yx");

  // And the distinct bindings coexist in the cache as distinct entries.
  EXPECT_EQ(moteur.invocation_cache()->entry_count(), 2u);
}

TEST(EngineCache, NonDeterministicServiceIsNeverMemoized) {
  SimRig rig;
  auto service = services::make_simulated_service("P0", {"in"}, {"out"},
                                                  JobProfile{30.0, 0.0, 0.0});
  service->set_deterministic(false);
  rig.registry.add(service);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = true;
  enactor::Enactor moteur(rig.backend, rig.registry, policy);
  const auto wf = workflow::make_chain(1);
  moteur.run({.workflow = wf, .inputs = items("src", 3)});
  const auto second = moteur.run({.workflow = wf, .inputs = items("src", 3)});
  EXPECT_EQ(second.cache_hits(), 0u);
  EXPECT_EQ(second.submissions(), 3u);
  EXPECT_EQ(moteur.invocation_cache()->entry_count(), 0u);
}

TEST(EngineCache, PolicyOffMeansNoCacheAtAll) {
  SimRig rig;
  rig.add_chain_services(1, 30.0);
  enactor::Enactor moteur(rig.backend, rig.registry, enactor::EnactmentPolicy::sp_dp());
  const auto wf = workflow::make_chain(1);
  moteur.run({.workflow = wf, .inputs = items("src", 3)});
  const auto second = moteur.run({.workflow = wf, .inputs = items("src", 3)});
  EXPECT_EQ(second.cache_hits(), 0u);
  EXPECT_EQ(second.submissions(), 3u);
  EXPECT_EQ(moteur.invocation_cache(), nullptr);
}

// ---------------------------------------------------------------------------
// Cache x fault containment
// ---------------------------------------------------------------------------

Result increment(const Inputs& in) {
  const int v = std::stoi(in.at("in").as<std::string>());
  Result r;
  r.outputs["out"] = services::OutputValue{v + 1, std::to_string(v + 1)};
  return r;
}

/// The increment as a job on the simulated grid, whose results are the
/// service's synthesize_outputs().
class GridIncrement final : public FunctionalService {
 public:
  explicit GridIncrement(const std::string& name)
      : FunctionalService(name, {"in"}, {"out"}, increment) {}
  Result synthesize_outputs(const Inputs& in) const override { return increment(in); }
};

std::shared_ptr<FunctionalService> failing_service(const std::string& name) {
  return std::make_shared<FunctionalService>(
      name, std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const Inputs&) -> Result { throw std::runtime_error("service down"); });
}

TEST(CacheFaults, PoisonedResultsAreNeverCached) {
  // Every call of every service throws: under kContinue the run drains
  // with poisoned sinks, and not a single entry may reach the cache — a
  // poisoned token has no content to memoize.
  services::ServiceRegistry registry;
  registry.add(failing_service("P0"));
  registry.add(failing_service("P1"));
  data::InputDataSet ds;
  for (int j = 0; j < 10; ++j) ds.add_item("src", std::to_string(j));

  enactor::ThreadedBackend backend(4);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(2);
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  policy.cache = true;

  enactor::Enactor moteur(backend, registry, policy);
  const auto result = moteur.run({.workflow = workflow::make_chain(2), .inputs = ds});

  EXPECT_EQ(result.failures(), 10u);
  EXPECT_EQ(result.cache_hits(), 0u);
  const auto* cache = moteur.invocation_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->entry_count(), 0u);
  EXPECT_EQ(cache->totals().insertions, 0u);
  EXPECT_EQ(cache->totals().hits, 0u);
}

TEST(CacheFaults, BreakerReroutedSuccessIsCachedAndReplayed) {
  // Site h0 fails every attempt and trips its breaker; every invocation
  // eventually succeeds on h1. Those rerouted successes are ordinary
  // complete results: a second pass must be served entirely from the cache.
  services::ServiceRegistry registry;
  registry.add(std::make_shared<GridIncrement>("P0"));
  data::InputDataSet ds;
  constexpr int kItems = 20;
  for (int j = 0; j < kItems; ++j) ds.add_item("src", std::to_string(j));

  testkit::FailingSiteGrid sites;

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(8);
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  policy.breaker.enabled = true;
  policy.breaker.window = 4;
  policy.breaker.threshold = 2;
  policy.breaker.cooldown_seconds = 1e9;
  policy.cache = true;

  enactor::Enactor moteur(sites.backend, registry, policy);
  const auto wf = workflow::make_chain(1);
  const auto first = moteur.run({.workflow = wf, .inputs = ds});
  EXPECT_EQ(first.failures(), 0u);
  EXPECT_EQ(first.sink_outputs.at("sink").size(), static_cast<std::size_t>(kItems));

  const auto second = moteur.run({.workflow = wf, .inputs = ds});
  EXPECT_EQ(second.cache_hits(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(second.submissions(), 0u);
  const auto& tokens = second.sink_outputs.at("sink");
  ASSERT_EQ(tokens.size(), static_cast<std::size_t>(kItems));
  for (int j = 0; j < kItems; ++j) {
    EXPECT_EQ(tokens[static_cast<std::size_t>(j)].as<int>(), j + 1);
  }
}

TEST(CacheFaults, CancelledRunLeavesNoHalfWrittenEntries) {
  // A run cancelled mid-flight inserts exactly its completed invocations and
  // nothing else; replaying the same inputs hits precisely those entries and
  // computes the rest, converging on one entry per item.
  services::ServiceRegistry registry;
  registry.add(std::make_shared<FunctionalService>(
      "P0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const Inputs& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const std::string v = in.at("in").as<std::string>() + "*";
        Result r;
        r.outputs["out"] = services::OutputValue{v, v};
        return r;
      }));

  enactor::ThreadedBackend backend(2);
  service::RunServiceConfig config;
  config.admission.max_active = 1;
  config.admission.max_inflight = 2;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  config.defaults.policy.cache = true;
  service::RunService runs(backend, registry, config);

  constexpr std::size_t kItems = 40;
  enactor::RunRequest victim;
  victim.name = "victim";
  victim.workflow = workflow::make_chain(1);
  victim.inputs = items("src", kItems);
  auto handle = runs.submit(std::move(victim));
  while (handle.poll() == service::RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  handle.cancel();
  handle.wait();
  runs.wait_idle();

  auto* cache = runs.invocation_cache();
  ASSERT_NE(cache, nullptr);
  const std::size_t completed = cache->stats("victim").insertions;
  EXPECT_EQ(cache->entry_count(), completed);  // no partial entries
  EXPECT_LE(completed, kItems);

  enactor::RunRequest replay;
  replay.name = "replay";
  replay.workflow = workflow::make_chain(1);
  replay.inputs = items("src", kItems);
  auto again = runs.submit(std::move(replay));
  EXPECT_EQ(again.wait(), service::RunState::kFinished);
  runs.wait_idle();

  EXPECT_EQ(again.result().failures(), 0u);
  EXPECT_EQ(again.result().sink_outputs.at("sink").size(), kItems);
  EXPECT_EQ(cache->stats("replay").hits, completed);
  EXPECT_EQ(cache->entry_count(), kItems);
}

// ---------------------------------------------------------------------------
// Data-aware matchmaking
// ---------------------------------------------------------------------------

grid::GridConfig two_site_grid() {
  grid::GridConfig config;
  grid::ComputingElementConfig ce_a;
  ce_a.name = "ce-a";
  ce_a.worker_slots = 4;
  ce_a.close_storage_element = "se-a";
  grid::ComputingElementConfig ce_b = ce_a;
  ce_b.name = "ce-b";
  ce_b.close_storage_element = "se-b";
  config.computing_elements = {ce_a, ce_b};
  grid::StorageElementConfig se_a;
  se_a.name = "se-a";
  se_a.transfer_bandwidth_mb_per_s = 1.0;  // staging visibly costs time
  grid::StorageElementConfig se_b = se_a;
  se_b.name = "se-b";
  config.storage_elements = {se_a, se_b};
  config.remote_transfer_penalty = 3.0;
  return config;
}

TEST(DataAwareGrid, RoutesJobNextToItsReplica) {
  auto config = two_site_grid();
  config.matchmaking_policy = "data-gravity";
  sim::Simulator sim;
  grid::Grid grid(sim, config);
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://big", "se-b", 100.0);
  grid.set_catalog(&catalog);

  grid::JobRequest request;
  request.name = "j";
  request.compute_seconds = 10.0;
  request.input_megabytes = 100.0;
  request.input_refs.push_back(grid::DataStageRef{"lfn://big", 100.0});

  // Pricing: local replica at se-b = 100 MB, remote through se-a = 300 MB.
  EXPECT_GT(grid.stage_in_estimate_seconds(request, "ce-a"),
            grid.stage_in_estimate_seconds(request, "ce-b"));

  grid::JobRecord record;
  grid.submit(request, [&](const grid::JobRecord& r) { record = r; });
  sim.run();
  EXPECT_EQ(record.state, grid::JobState::kDone);
  EXPECT_EQ(record.computing_element, "ce-b");
  EXPECT_EQ(record.staging_element, "se-b");
  EXPECT_DOUBLE_EQ(record.staged_in_megabytes, 100.0);
  EXPECT_DOUBLE_EQ(record.remote_input_megabytes, 0.0);
}

TEST(DataAwareGrid, SuccessfulStageInRegistersAReplicaAtTheCloseSe) {
  auto config = two_site_grid();
  config.matchmaking_policy = "data-gravity";
  sim::Simulator sim;
  grid::Grid grid(sim, config);
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://big", "se-b", 100.0);
  grid.set_catalog(&catalog);

  grid::JobRequest request;
  request.name = "j";
  request.compute_seconds = 10.0;
  request.input_megabytes = 100.0;
  request.input_refs.push_back(grid::DataStageRef{"lfn://big", 100.0});
  grid.submit(request, [](const grid::JobRecord&) {});
  sim.run();

  // The close SE of the executing CE now holds a copy too, so a later blind
  // placement on ce-b is equally cheap.
  EXPECT_TRUE(catalog.has("lfn://big", "se-b"));
  EXPECT_EQ(catalog.replica_count(), 1u);  // already local: nothing new
}

TEST(DataAwareGrid, RemoteStagingPaysThePenalty) {
  // With no data-aware ranking the broker may land on the replica-less site;
  // force it by making only ce-a admissible and check the charged megabytes.
  auto config = two_site_grid();
  config.computing_elements.resize(1);  // only ce-a
  sim::Simulator sim;
  grid::Grid grid(sim, config);
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://big", "se-b", 100.0);
  grid.set_catalog(&catalog);

  grid::JobRequest request;
  request.name = "j";
  request.compute_seconds = 10.0;
  request.input_megabytes = 100.0;
  request.input_refs.push_back(grid::DataStageRef{"lfn://big", 100.0});
  grid::JobRecord record;
  grid.submit(request, [&](const grid::JobRecord& r) { record = r; });
  sim.run();

  EXPECT_EQ(record.computing_element, "ce-a");
  EXPECT_DOUBLE_EQ(record.staged_in_megabytes, 300.0);  // 100 MB x penalty 3
  EXPECT_DOUBLE_EQ(record.remote_input_megabytes, 100.0);
  // The wide-area copy left a replica at se-a for the next job.
  EXPECT_TRUE(catalog.has("lfn://big", "se-a"));
}

// ---------------------------------------------------------------------------
// Storage faults: catalog invalidation, SE outages, stage-in failover
// ---------------------------------------------------------------------------

TEST(ReplicaCatalog, InvalidateKeepsEntryForReRegistration) {
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://x", "se-a", 5.0);
  catalog.register_replica("lfn://x", "se-b", 5.0);

  EXPECT_TRUE(catalog.invalidate_replica("lfn://x", "se-a"));
  EXPECT_FALSE(catalog.invalidate_replica("lfn://x", "se-a"));  // already gone
  EXPECT_EQ(catalog.locate("lfn://x"), (std::vector<std::string>{"se-b"}));

  // Losing the last copy keeps the entry (and its size) so a re-derivation
  // can re-register under the same logical name.
  EXPECT_TRUE(catalog.invalidate_replica("lfn://x", "se-b"));
  EXPECT_TRUE(catalog.locate("lfn://x").empty());
  EXPECT_DOUBLE_EQ(catalog.size_mb("lfn://x"), 5.0);
  EXPECT_EQ(catalog.invalidation_count(), 2u);

  catalog.register_replica("lfn://x", "se-c", 5.0);
  EXPECT_EQ(catalog.locate("lfn://x"), (std::vector<std::string>{"se-c"}));

  catalog.unregister("lfn://x");
  EXPECT_TRUE(catalog.locate("lfn://x").empty());
  EXPECT_DOUBLE_EQ(catalog.size_mb("lfn://x"), 0.0);
  EXPECT_EQ(catalog.file_count(), 0u);
}

TEST(ReplicaCatalog, SeAvailabilityView) {
  data::ReplicaCatalog catalog;
  EXPECT_TRUE(catalog.se_available("se-a"));  // unknown SEs are up
  catalog.set_se_available("se-a", false);
  EXPECT_FALSE(catalog.se_available("se-a"));
  EXPECT_TRUE(catalog.se_available("se-b"));
  catalog.set_se_available("se-a", true);
  EXPECT_TRUE(catalog.se_available("se-a"));
}

TEST(StorageOutage, AvailabilityFollowsTheSchedule) {
  sim::Simulator sim;
  grid::StorageElement se(sim, "se", 1.0, 10.0);
  EXPECT_TRUE(se.available_at(0.0));
  EXPECT_DOUBLE_EQ(se.next_available(42.0), 42.0);

  se.set_outages({{100.0, 50.0}, {300.0, 25.0}});
  EXPECT_TRUE(se.available_at(99.0));
  EXPECT_FALSE(se.available_at(100.0));
  EXPECT_FALSE(se.available_at(149.0));
  EXPECT_TRUE(se.available_at(150.0));  // window end is exclusive
  EXPECT_FALSE(se.available_at(310.0));
  EXPECT_DOUBLE_EQ(se.next_available(120.0), 150.0);
  EXPECT_DOUBLE_EQ(se.next_available(310.0), 325.0);
  EXPECT_DOUBLE_EQ(se.next_available(500.0), 500.0);
}

TEST(StorageFaultGrid, StageInFailsOverToTheNextReplica) {
  // The close SE's copy is lost (per-SE loss probability 1), the remote copy
  // on se-a survives: one fault, one failover, and the job still completes.
  auto config = two_site_grid();
  config.computing_elements = {config.computing_elements[1]};  // only ce-b
  config.storage_elements[1].replica_loss_probability = 1.0;   // se-b
  sim::Simulator sim;
  grid::Grid grid(sim, config);
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://big", "se-a", 10.0);
  catalog.register_replica("lfn://big", "se-b", 10.0);
  grid.set_catalog(&catalog);

  grid::JobRequest request;
  request.name = "j";
  request.compute_seconds = 10.0;
  request.input_megabytes = 10.0;
  request.input_refs.push_back(grid::DataStageRef{"lfn://big", 10.0});
  grid::JobRecord record;
  grid.submit(request, [&](const grid::JobRecord& r) { record = r; });
  sim.run();

  EXPECT_EQ(record.state, grid::JobState::kDone);
  EXPECT_TRUE(record.lost_files.empty());
  EXPECT_EQ(record.replica_faults, 1);
  EXPECT_EQ(record.replica_failovers, 1);
  EXPECT_EQ(grid.stats().replica_faults, 1u);
  EXPECT_EQ(grid.stats().replica_failovers, 1u);
  EXPECT_EQ(grid.stats().data_lost_jobs, 0u);
  EXPECT_EQ(catalog.invalidation_count(), 1u);  // the bad copy was dropped
}

TEST(StorageFaultGrid, JobWithNoSurvivingReplicaFailsAsDataLost) {
  // Every copy of the input is gone: resubmission cannot help, so the job
  // fails immediately with the loss spelled out instead of burning retries.
  auto config = two_site_grid();
  config.computing_elements.resize(1);                        // only ce-a
  config.storage_elements[1].replica_loss_probability = 1.0;  // se-b
  config.max_attempts = 5;
  sim::Simulator sim;
  grid::Grid grid(sim, config);
  data::ReplicaCatalog catalog;
  catalog.register_replica("lfn://only", "se-b", 10.0);
  grid.set_catalog(&catalog);

  grid::JobRequest request;
  request.name = "j";
  request.compute_seconds = 10.0;
  request.input_megabytes = 10.0;
  request.input_refs.push_back(grid::DataStageRef{"lfn://only", 10.0});
  grid::JobRecord record;
  grid.submit(request, [&](const grid::JobRecord& r) { record = r; });
  sim.run();

  EXPECT_EQ(record.state, grid::JobState::kFailed);
  EXPECT_EQ(record.lost_files, (std::vector<std::string>{"lfn://only"}));
  EXPECT_EQ(record.attempts, 1);  // not retried: the data is gone, not flaky
  EXPECT_EQ(grid.stats().data_lost_jobs, 1u);
}

// ---------------------------------------------------------------------------
// Cache staleness: a hit must still resolve on the data plane
// ---------------------------------------------------------------------------

TEST(EngineCache, StaleEntryWhoseReplicasVanishedIsInvalidatedNotReplayed) {
  // Warm the cache with replicas registered in catalog A, then point the
  // backend at an empty catalog: the memoized refs no longer resolve, so the
  // second run must invalidate those entries and recompute instead of
  // replaying tokens whose files do not exist anywhere.
  SimRig rig;
  rig.add_chain_services(1, 30.0);
  data::ReplicaCatalog warm;
  rig.backend.set_catalog(&warm);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = true;
  enactor::Enactor moteur(rig.backend, rig.registry, policy);

  const auto wf = workflow::make_chain(1);
  const auto first = moteur.run({.workflow = wf, .inputs = items("src", 4)});
  EXPECT_EQ(first.failures(), 0u);
  EXPECT_EQ(moteur.invocation_cache()->entry_count(), 4u);

  data::ReplicaCatalog empty;  // every replica of every output "vanished"
  rig.backend.set_catalog(&empty);
  const auto second = moteur.run({.workflow = wf, .inputs = items("src", 4)});
  EXPECT_EQ(second.cache_hits(), 0u);
  EXPECT_EQ(second.submissions(), 4u);  // recomputed, not replayed
  EXPECT_EQ(second.failures(), 0u);
  EXPECT_EQ(moteur.invocation_cache()->totals().invalidations, 4u);
  EXPECT_EQ(moteur.invocation_cache()->totals().hits, 0u);

  // The recomputation repopulated the cache; with the replicas back in the
  // live catalog a third run is served entirely from memory again.
  const auto third = moteur.run({.workflow = wf, .inputs = items("src", 4)});
  EXPECT_EQ(third.cache_hits(), 4u);
  EXPECT_EQ(third.submissions(), 0u);
}

// ---------------------------------------------------------------------------
// Lineage-driven recovery of lost intermediates
// ---------------------------------------------------------------------------

struct FaultyRig {
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  data::ReplicaCatalog catalog;
  services::ServiceRegistry registry;

  static grid::GridConfig config(double loss) {
    grid::GridConfig cfg = grid::GridConfig::constant(10.0);
    cfg.replica_loss_probability = loss;
    return cfg;
  }

  explicit FaultyRig(double loss) : grid(simulator, config(loss)), backend(grid) {
    backend.set_catalog(&catalog);
    for (int i = 0; i < 2; ++i) {
      registry.add(services::make_simulated_service("P" + std::to_string(i), {"in"},
                                                    {"out"},
                                                    JobProfile{30.0, 1.0, 1.0}));
    }
  }
};

TEST(LineageRecovery, ReDerivesLostIntermediatesAndCompletesTheRun) {
  // A lossy storage layer eats replicas of both source items and P0's
  // intermediate outputs. Sources come back by resubmission (the backend
  // re-seeds them), intermediates only through lineage recovery re-firing
  // P0 — with recovery on the run must still drain every tuple cleanly.
  FaultyRig rig(0.35);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  ASSERT_TRUE(policy.lineage_recovery);  // the default: on
  enactor::Enactor moteur(rig.backend, rig.registry, policy);

  const auto result =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = items("src", 8)});
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 8u);
  EXPECT_TRUE(result.failure_report.empty());
  // The loss rate is high enough that at least one intermediate needed its
  // producer re-fired (seeded grid RNG: deterministic across runs).
  EXPECT_GT(result.stats.rederived, 0u);
  EXPECT_GT(rig.grid.stats().data_lost_jobs, 0u);
}

TEST(LineageRecovery, DisabledRecoveryLosesTuplesAndListsTheFiles) {
  FaultyRig rig(0.35);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  policy.lineage_recovery = false;
  enactor::Enactor moteur(rig.backend, rig.registry, policy);

  const auto result =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = items("src", 8)});
  EXPECT_GT(result.failures(), 0u);
  EXPECT_EQ(result.stats.rederived, 0u);
  EXPECT_LT(result.sink_outputs.at("sink").size(), 8u);

  // Every definitive loss is a DataLost with its unrecoverable files named,
  // and each lost file is reported exactly once.
  std::size_t files_reported = 0;
  for (const auto& lost : result.failure_report.lost) {
    EXPECT_EQ(lost.status, "DataLost");
    files_reported += lost.files.size();
  }
  EXPECT_GT(files_reported, 0u);
  const std::string json = result.failure_report.to_json();
  EXPECT_NE(json.find("\"files\":[\"lfn://"), std::string::npos);
  const std::string text = result.failure_report.to_text();
  EXPECT_NE(text.find("unrecoverable file lfn://"), std::string::npos);
}

TEST(LineageRecovery, ZeroFaultRunsAreIdenticalWithRecoveryOnAndOff) {
  // Recovery defaults to on; without SE faults it must be unobservable.
  auto run_with = [](bool recovery) {
    SimRig rig;
    rig.add_chain_services(2, 30.0);
    data::ReplicaCatalog catalog;
    rig.backend.set_catalog(&catalog);
    enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
    policy.lineage_recovery = recovery;
    enactor::Enactor moteur(rig.backend, rig.registry, policy);
    return moteur.run({.workflow = workflow::make_chain(2), .inputs = items("src", 6)});
  };
  const auto on = run_with(true);
  const auto off = run_with(false);
  EXPECT_DOUBLE_EQ(on.makespan(), off.makespan());
  EXPECT_EQ(on.submissions(), off.submissions());
  EXPECT_EQ(on.stats.rederived, 0u);
  const auto& a = on.sink_outputs.at("sink");
  const auto& b = off.sink_outputs.at("sink");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].id(), b[j].id());
    EXPECT_EQ(a[j].digest(), b[j].digest());
  }
}

}  // namespace
}  // namespace moteur

// Robustness: XML mutation fuzzing (never crashes, always parses or throws
// ParseError), threaded-backend stress (no lost or duplicated results under
// heavy concurrency), and single-host service concurrency limits.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "failing_site_grid.hpp"
#include "grid/ce_health.hpp"
#include "grid/grid.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/scufl.hpp"
#include "xml/xml.hpp"

namespace moteur {
namespace {

// ---------------------------------------------------------------------------
// XML fuzzing
// ---------------------------------------------------------------------------

const char* kSeedDocument = R"(<workflow name="bronzeStandard">
  <source name="referenceImage"/>
  <processor name="crestLines" service="crestLines" iteration="dot">
    <input name="im1"/><input name="im2"/><output name="c1"/>
  </processor>
  <sink name="out"/>
  <link from="referenceImage" fromPort="out" to="crestLines" toPort="im1"/>
</workflow>)";

std::string mutate(const std::string& input, Rng& rng) {
  std::string out = input;
  const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 4));
  for (int m = 0; m < mutations; ++m) {
    if (out.empty()) break;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip a character
        out[pos] = static_cast<char>(rng.uniform_int(32, 126));
        break;
      case 1:  // delete a span
        out.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        break;
      case 2: {  // duplicate a span
        const auto len = std::min<std::size_t>(
            static_cast<std::size_t>(rng.uniform_int(1, 12)), out.size() - pos);
        out.insert(pos, out.substr(pos, len));
        break;
      }
      default:  // inject a hostile token
        out.insert(pos, rng.bernoulli(0.5) ? "<" : "&#x41;&bogus;");
        break;
    }
  }
  return out;
}

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, MutatedDocumentsParseOrThrowCleanly) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string mutated = mutate(kSeedDocument, rng);
    try {
      const xml::Document doc = xml::parse(mutated);
      // If it parsed, serialization must re-parse (idempotent surface).
      EXPECT_NO_THROW(xml::parse(doc.to_string()));
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(XmlFuzz, MutatedWorkflowsNeverCrashTheScuflReader) {
  Rng rng(GetParam() * 977 + 5);
  for (int i = 0; i < 200; ++i) {
    const std::string mutated = mutate(kSeedDocument, rng);
    try {
      workflow::from_scufl(mutated);
    } catch (const Error&) {
      // ParseError or GraphError: both acceptable, crashes are not.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Threaded backend stress
// ---------------------------------------------------------------------------

TEST(ThreadedStress, HundredsOfTuplesThroughPipelines) {
  // 3-service chain, 300 items, 8 worker threads: every result must arrive
  // exactly once with the right value.
  services::ServiceRegistry registry;
  for (int s = 0; s < 3; ++s) {
    registry.add(std::make_shared<services::FunctionalService>(
        "P" + std::to_string(s), std::vector<std::string>{"in"},
        std::vector<std::string>{"out"},
        [](const services::Inputs& in) {
          const int v = in.at("in").holds<int>()
                            ? in.at("in").as<int>()
                            : std::stoi(in.at("in").as<std::string>());
          services::Result r;
          r.outputs["out"] = services::OutputValue{v + 1, std::to_string(v + 1)};
          return r;
        }));
  }
  data::InputDataSet ds;
  constexpr int kItems = 300;
  for (int j = 0; j < kItems; ++j) ds.add_item("src", std::to_string(j));

  enactor::ThreadedBackend backend(8);
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result =
      moteur.run({.workflow = workflow::make_chain(3), .inputs = ds});

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.invocations(), 3u * kItems);
  const auto& tokens = result.sink_outputs.at("sink");
  ASSERT_EQ(tokens.size(), static_cast<std::size_t>(kItems));
  for (int j = 0; j < kItems; ++j) {
    EXPECT_EQ(tokens[static_cast<std::size_t>(j)].as<int>(), j + 3);
  }
}

TEST(ThreadedStress, ConcurrentInvocationsOfOneServiceAreThreadSafe) {
  // A service mutating shared state under its own lock: invocation count
  // must be exact under DP.
  auto counter = std::make_shared<std::atomic<int>>(0);
  services::ServiceRegistry registry;
  registry.add(std::make_shared<services::FunctionalService>(
      "P0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [counter](const services::Inputs&) {
        counter->fetch_add(1);
        services::Result r;
        r.outputs["out"] = services::OutputValue{1, "1"};
        return r;
      }));
  data::InputDataSet ds;
  for (int j = 0; j < 200; ++j) ds.add_item("src", std::to_string(j));
  enactor::ThreadedBackend backend(8);
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = ds});
  EXPECT_EQ(counter->load(), 200);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 200u);
}

// ---------------------------------------------------------------------------
// Fault containment: a failing site, and services that always throw
// ---------------------------------------------------------------------------

TEST(ThreadedStress, BreakerRoutesAroundAFailingHost) {
  // Two sites, h0 failing every attempt: the per-CE breaker must trip on
  // the bad site and converge the run to zero lost tuples.
  services::ServiceRegistry registry;
  registry.add(std::make_shared<services::FunctionalService>(
      "P0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const services::Inputs& in) {
        const int v = std::stoi(in.at("in").as<std::string>());
        services::Result r;
        r.outputs["out"] = services::OutputValue{v + 1, std::to_string(v + 1)};
        return r;
      }));
  data::InputDataSet ds;
  constexpr int kItems = 40;
  for (int j = 0; j < kItems; ++j) ds.add_item("src", std::to_string(j));

  testkit::FailingSiteGrid sites;

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(8);
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  policy.breaker.enabled = true;
  policy.breaker.window = 4;
  policy.breaker.threshold = 2;
  policy.breaker.cooldown_seconds = 1e9;  // stays open for the whole run

  enactor::Enactor moteur(sites.backend, registry, policy);
  const auto result =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = ds});

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.skipped(), 0u);
  EXPECT_TRUE(result.failure_report.empty());
  EXPECT_EQ(result.sink_outputs.at("sink").size(),
            static_cast<std::size_t>(kItems));

  bool h0_opened = false;
  for (const auto& t : result.timeline.breaker_transitions()) {
    if (t.computing_element == "h0" && t.to == grid::BreakerState::kOpen) {
      h0_opened = true;
    }
  }
  EXPECT_TRUE(h0_opened);
}

TEST(ThreadedStress, ContinuePolicySurvivesATotalHostFailure) {
  // Every call of every service throws: under kContinue the run terminates
  // with an empty sink and a complete loss accounting instead of hanging.
  services::ServiceRegistry registry;
  for (const char* name : {"P0", "P1"}) {
    registry.add(std::make_shared<services::FunctionalService>(
        name, std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
        [](const services::Inputs&) -> services::Result {
          throw std::runtime_error("service down");
        }));
  }
  data::InputDataSet ds;
  for (int j = 0; j < 10; ++j) ds.add_item("src", std::to_string(j));

  enactor::ThreadedBackend backend(4);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(2);
  policy.failure_policy = enactor::FailurePolicy::kContinue;

  enactor::Enactor moteur(backend, registry, policy);
  const auto result =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = ds});

  EXPECT_EQ(result.failures(), 10u);  // P0 loses everything
  EXPECT_EQ(result.skipped(), 10u);   // P1 never executes
  EXPECT_TRUE(result.sink_outputs.at("sink").empty());
  EXPECT_EQ(result.failure_report.lost.size(), 10u);
  EXPECT_EQ(result.failure_report.skipped.size(), 10u);
  EXPECT_EQ(result.failure_report.poisoned_at_sink.at("sink"), 10u);
}

// ---------------------------------------------------------------------------
// SE outages x CE breakers
// ---------------------------------------------------------------------------

TEST(StorageOutageBreaker, BreakerRoutesAroundTheCeWithTheDeadSe) {
  // Blind (non-data-aware) brokering keeps landing jobs on ce-a, whose close
  // SE is down for the whole run: every such attempt dies at stage-in. The
  // enactor's per-CE breaker is the layer that learns ce-a is useless and
  // steers the rest of the run to ce-b — zero tuples may be lost.
  grid::GridConfig config;
  grid::ComputingElementConfig ce_a;
  ce_a.name = "ce-a";
  ce_a.worker_slots = 8;
  ce_a.close_storage_element = "se-a";
  grid::ComputingElementConfig ce_b = ce_a;
  ce_b.name = "ce-b";
  ce_b.worker_slots = 2;  // ce-a looks more attractive to the blind broker
  ce_b.close_storage_element = "se-b";
  config.computing_elements = {ce_a, ce_b};
  grid::StorageElementConfig se_a;
  se_a.name = "se-a";
  se_a.outages.push_back(grid::StorageOutageWindow{0.0, 1e9});  // dead all run
  grid::StorageElementConfig se_b;
  se_b.name = "se-b";
  config.storage_elements = {se_a, se_b};
  config.max_attempts = 1;  // surface every stage-in fault to the enactor

  sim::Simulator simulator;
  grid::Grid grid(simulator, config);
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                services::JobProfile{30.0, 1.0, 1.0}));

  data::InputDataSet ds;
  constexpr int kItems = 24;
  for (int j = 0; j < kItems; ++j) ds.add_item("src", "d" + std::to_string(j));

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(8);
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  policy.breaker.enabled = true;
  policy.breaker.window = 4;
  policy.breaker.threshold = 2;
  policy.breaker.cooldown_seconds = 1e9;

  enactor::Enactor moteur(backend, registry, policy);
  const auto result =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = ds});

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), static_cast<std::size_t>(kItems));
  EXPECT_GT(grid.stats().replica_faults, 0u);  // the dead SE was actually hit

  bool ce_a_opened = false;
  for (const auto& t : result.timeline.breaker_transitions()) {
    if (t.computing_element == "ce-a" && t.to == grid::BreakerState::kOpen) {
      ce_a_opened = true;
    }
  }
  EXPECT_TRUE(ce_a_opened);
}

// ---------------------------------------------------------------------------
// Single-host service concurrency limits (§3.3)
// ---------------------------------------------------------------------------

TEST(ServiceCapacity, LimitsDataParallelismPerService) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(0.0));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  auto service = services::make_simulated_service("P0", {"in"}, {"out"},
                                                  services::JobProfile{100.0});
  service->set_max_concurrent_invocations(2);  // a 2-connection legacy host
  registry.add(service);

  data::InputDataSet ds;
  for (int j = 0; j < 6; ++j) ds.add_item("src", "d" + std::to_string(j));
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = ds});
  // 6 jobs of 100 s with per-service concurrency 2: three waves.
  EXPECT_DOUBLE_EQ(result.makespan(), 300.0);
}

TEST(ServiceCapacity, UnlimitedByDefault) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(0.0));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                services::JobProfile{100.0}));
  data::InputDataSet ds;
  for (int j = 0; j < 6; ++j) ds.add_item("src", "d" + std::to_string(j));
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  EXPECT_DOUBLE_EQ(
      moteur.run({.workflow = workflow::make_chain(1), .inputs = ds}).makespan(),
      100.0);
}

}  // namespace
}  // namespace moteur

// The fault-tolerance subsystem: transient failures injected into the
// simulated grid must converge to zero lost tuples under the enactor's
// RetryPolicy, with dot-product provenance staying correct however
// out-of-order the (re)completions arrive under DP+SP.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/policy.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/ce_health.hpp"
#include "grid/grid.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace moteur::enactor {
namespace {

using services::JobProfile;
using workflow::Workflow;

// ---------------------------------------------------------------------------
// RetryPolicy / Outcome units
// ---------------------------------------------------------------------------

TEST(RetryPolicy, DefaultsKeepRetriesOff) {
  const RetryPolicy none = RetryPolicy::none();
  EXPECT_FALSE(none.retries_enabled());
  EXPECT_FALSE(none.timeout_enabled());
  EXPECT_EQ(none.backoff_seconds(2), 0.0);
}

TEST(RetryPolicy, ResubmitEnablesPlainRetries) {
  const RetryPolicy policy = RetryPolicy::resubmit(4);
  EXPECT_TRUE(policy.retries_enabled());
  EXPECT_FALSE(policy.timeout_enabled());  // needs timeout_multiplier too
  EXPECT_EQ(policy.max_attempts, 4u);
}

TEST(RetryPolicy, BackoffIsGeometricFromTheFirstRetry) {
  RetryPolicy policy = RetryPolicy::resubmit(5);
  policy.backoff_initial_seconds = 10.0;
  policy.backoff_factor = 3.0;
  EXPECT_EQ(policy.backoff_seconds(1), 0.0);   // the first attempt never waits
  EXPECT_EQ(policy.backoff_seconds(2), 10.0);  // first retry
  EXPECT_EQ(policy.backoff_seconds(3), 30.0);
  EXPECT_EQ(policy.backoff_seconds(4), 90.0);
}

TEST(Outcome, FactoriesAndClassification) {
  const Outcome ok = Outcome::success({});
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(ok.retryable());

  const Outcome transient = Outcome::failure(OutcomeStatus::kTransient, "boom");
  EXPECT_FALSE(transient.ok());
  EXPECT_TRUE(transient.retryable());
  EXPECT_EQ(transient.error, "boom");

  EXPECT_TRUE(Outcome::failure(OutcomeStatus::kTimedOut, "").retryable());
  EXPECT_FALSE(Outcome::failure(OutcomeStatus::kDefinitive, "").retryable());

  EXPECT_STREQ(to_string(OutcomeStatus::kOk), "Ok");
  EXPECT_STREQ(to_string(OutcomeStatus::kTransient), "Transient");
  EXPECT_STREQ(to_string(OutcomeStatus::kDefinitive), "Definitive");
  EXPECT_STREQ(to_string(OutcomeStatus::kTimedOut), "TimedOut");
  EXPECT_STREQ(to_string(OutcomeStatus::kSkipped), "Skipped");
}

TEST(FailurePolicyNames, RoundTripAndRejects) {
  EXPECT_STREQ(to_string(FailurePolicy::kFailFast), "failfast");
  EXPECT_STREQ(to_string(FailurePolicy::kContinue), "continue");
  EXPECT_EQ(parse_failure_policy("failfast"), FailurePolicy::kFailFast);
  EXPECT_EQ(parse_failure_policy("continue"), FailurePolicy::kContinue);
  EXPECT_THROW(parse_failure_policy("carry-on"), ParseError);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

data::InputDataSet items(const std::string& source, std::size_t count) {
  data::InputDataSet ds;
  ds.declare_input(source);
  for (std::size_t j = 0; j < count; ++j) {
    ds.add_item(source, "item" + std::to_string(j));
  }
  return ds;
}

/// src -> P0 -> P1 -> sink.
Workflow chain2() {
  Workflow wf("chain2");
  wf.add_source("src");
  wf.add_processor("P0", {"in"}, {"out"});
  wf.add_processor("P1", {"in"}, {"out"});
  wf.add_sink("sink");
  wf.link("src", "out", "P0", "in");
  wf.link("P0", "out", "P1", "in");
  wf.link("P1", "out", "sink", "in");
  return wf;
}

/// A faulty simulated grid whose failures surface to the enactor: the grid's
/// own internal resubmission is disabled (max_attempts = 1), so the enactor
/// retry policy alone decides whether a tuple survives.
struct FaultyRig {
  sim::Simulator simulator;
  grid::Grid grid;
  SimGridBackend backend;
  services::ServiceRegistry registry;

  static grid::GridConfig config(double failure_probability, double stuck_probability,
                                 std::uint64_t seed) {
    grid::GridConfig cfg = grid::GridConfig::constant(30.0, 4096, seed);
    cfg.failure_probability = failure_probability;
    cfg.max_attempts = 1;
    cfg.stuck_job_probability = stuck_probability;
    cfg.stuck_job_factor = 50.0;
    return cfg;
  }

  explicit FaultyRig(double failure_probability, double stuck_probability = 0.0,
                     std::uint64_t seed = 42)
      : grid(simulator, config(failure_probability, stuck_probability, seed)),
        backend(grid) {}

  EnactmentResult run(const Workflow& wf, const data::InputDataSet& ds,
                      EnactmentPolicy policy) {
    Enactor enactor(backend, registry, policy);
    return enactor.run({.workflow = wf, .inputs = ds});
  }
};

void register_chain_services(services::ServiceRegistry& registry,
                             double compute_seconds = 60.0) {
  for (const char* name : {"P0", "P1"}) {
    registry.add(services::make_simulated_service(name, {"in"}, {"out"},
                                                  JobProfile{compute_seconds, 0.0, 0.0}));
  }
}

std::set<data::IndexVector> sink_indices(const EnactmentResult& result,
                                         const std::string& sink = "sink") {
  std::set<data::IndexVector> out;
  for (const auto& token : result.sink_outputs.at(sink)) out.insert(token.indices());
  return out;
}

// ---------------------------------------------------------------------------
// The acceptance scenario: 10% injected transient failure, DP+SP
// ---------------------------------------------------------------------------

TEST(Retry, TransientFaultsConvergeToZeroLostTuples) {
  const std::size_t kItems = 30;
  FaultyRig rig(/*failure_probability=*/0.1);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::resubmit(5);
  const auto result = rig.run(chain2(), items("src", kItems), policy);

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.invocations(), 2 * kItems);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), kItems);
  EXPECT_EQ(sink_indices(result).size(), kItems);  // every index exactly once
  // ~10% of 60 submissions fail at least once: resubmissions must show up
  // in the stats, and every retry is one extra backend submission.
  EXPECT_GT(result.retries(), 0u);
  EXPECT_EQ(result.submissions(), 2 * kItems + result.retries());
  EXPECT_EQ(result.timeouts(), 0u);
}

TEST(Retry, DisabledRetriesReproduceTheLossyBehaviour) {
  const std::size_t kItems = 30;
  FaultyRig rig(/*failure_probability=*/0.1);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::none();  // the seed behaviour: one shot per tuple
  const auto result = rig.run(chain2(), items("src", kItems), policy);

  EXPECT_GT(result.failures(), 0u);
  EXPECT_LT(result.sink_outputs.at("sink").size(), kItems);
  EXPECT_EQ(result.retries(), 0u);
  EXPECT_EQ(result.submissions(), result.timeline.invocation_count());
}

TEST(Retry, ExhaustedAttemptsAreCountedAsFailures) {
  const std::size_t kItems = 5;
  FaultyRig rig(/*failure_probability=*/1.0);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::resubmit(3);
  const auto result = rig.run(chain2(), items("src", kItems), policy);

  // P0 loses every tuple after 3 attempts each; P1 never receives anything.
  EXPECT_EQ(result.failures(), kItems);
  EXPECT_EQ(result.retries(), 2 * kItems);
  EXPECT_EQ(result.submissions(), 3 * kItems);
  EXPECT_EQ(result.invocations(), 0u);
  EXPECT_TRUE(result.sink_outputs.at("sink").empty());
}

// ---------------------------------------------------------------------------
// Provenance under out-of-order recompletion
// ---------------------------------------------------------------------------

TEST(Retry, DotProductProvenanceSurvivesRetries) {
  // combine(a[j], b[j]) must pair matching indices even when retries shuffle
  // the completion order arbitrarily.
  const std::size_t kItems = 24;
  Workflow wf("dot");
  wf.add_source("a");
  wf.add_source("b");
  wf.add_processor("combine", {"in1", "in2"}, {"out"});
  wf.processor("combine").iteration = workflow::IterationStrategy::kDot;
  wf.add_sink("sink");
  wf.link("a", "out", "combine", "in1");
  wf.link("b", "out", "combine", "in2");
  wf.link("combine", "out", "sink", "in");

  FaultyRig rig(/*failure_probability=*/0.15, /*stuck_probability=*/0.0, /*seed=*/7);
  rig.registry.add(services::make_simulated_service("combine", {"in1", "in2"}, {"out"},
                                                    JobProfile{45.0, 0.0, 0.0}));

  data::InputDataSet ds = items("a", kItems);
  ds.declare_input("b");
  for (std::size_t j = 0; j < kItems; ++j) ds.add_item("b", "right" + std::to_string(j));

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::resubmit(6);
  const auto result = rig.run(wf, ds, policy);

  EXPECT_EQ(result.failures(), 0u);
  ASSERT_EQ(result.sink_outputs.at("sink").size(), kItems);
  for (const auto& token : result.sink_outputs.at("sink")) {
    ASSERT_EQ(token.indices().size(), 1u);
    const std::size_t j = token.indices()[0];
    // The history tree must reference exactly a[j] and b[j] — any other
    // combination means a retry crossed lineages.
    const auto sources = token.provenance()->source_indices();
    EXPECT_EQ(sources.at("a"), std::set<std::size_t>{j});
    EXPECT_EQ(sources.at("b"), std::set<std::size_t>{j});
  }
}

// ---------------------------------------------------------------------------
// Timeout watchdog and backoff
// ---------------------------------------------------------------------------

TEST(Retry, TimeoutWatchdogRescuesStuckJobs) {
  const std::size_t kItems = 20;
  // 20% of attempts get stuck for 50x their payload; without the watchdog the
  // run would wait ~3000 s for each straggler.
  FaultyRig rig(/*failure_probability=*/0.0, /*stuck_probability=*/0.2, /*seed=*/11);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry.max_attempts = 4;
  policy.retry.timeout_multiplier = 3.0;
  policy.retry.timeout_min_samples = 3;
  const auto result = rig.run(chain2(), items("src", kItems), policy);

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), kItems);
  EXPECT_GT(result.timeouts(), 0u);
  // A stuck payload runs 60 * 50 = 3000 s; rescued runs finish far earlier.
  EXPECT_LT(result.makespan(), 3000.0);

  // The same run without a watchdog crawls through every straggler.
  FaultyRig slow_rig(0.0, 0.2, 11);
  register_chain_services(slow_rig.registry);
  const auto slow = slow_rig.run(chain2(), items("src", kItems),
                                 EnactmentPolicy::sp_dp());
  EXPECT_GT(slow.makespan(), result.makespan());
  EXPECT_EQ(slow.timeouts(), 0u);
}

TEST(Retry, BackoffDelaysResubmission) {
  FaultyRig rig(/*failure_probability=*/1.0);
  register_chain_services(rig.registry, /*compute_seconds=*/1.0);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry.max_attempts = 2;
  policy.retry.backoff_initial_seconds = 500.0;
  const auto result = rig.run(chain2(), items("src", 1), policy);

  // The single tuple fails, waits 500 s in backoff, fails again: the second
  // attempt's trace must start after the backoff gap.
  EXPECT_EQ(result.failures(), 1u);
  EXPECT_EQ(result.retries(), 1u);
  double last_submit = 0.0;
  for (const auto& trace : result.timeline.traces()) {
    last_submit = std::max(last_submit, trace.submit_time);
  }
  EXPECT_GE(last_submit, 500.0);
}

// ---------------------------------------------------------------------------
// Progress events and manifest round-trip
// ---------------------------------------------------------------------------

TEST(Retry, ProgressEventsCarryAttemptNumbers) {
  const std::size_t kItems = 12;
  FaultyRig rig(/*failure_probability=*/0.3);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::resubmit(5);

  Enactor enactor(rig.backend, rig.registry, policy);
  std::map<obs::RunEvent::Kind, std::size_t> counts;
  std::size_t max_attempt = 0;
  enactor.add_event_subscriber([&](const obs::RunEvent& event) {
    ++counts[event.kind];
    max_attempt = std::max(max_attempt, event.attempt);
  });
  const auto result = enactor.run({.workflow = chain2(), .inputs = items("src", kItems)});

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(counts[obs::RunEvent::Kind::kAttemptStarted], result.submissions());
  EXPECT_EQ(counts[obs::RunEvent::Kind::kRetryScheduled], result.retries());
  EXPECT_EQ(counts[obs::RunEvent::Kind::kWatchdogFired], result.timeouts());
  EXPECT_GT(result.retries(), 0u);
  EXPECT_GT(max_attempt, 1u);  // some event observed a resubmission
}

TEST(Retry, ManifestRoundTripsRetryPolicy) {
  RunManifest manifest;
  manifest.workflow = chain2();
  manifest.inputs = items("src", 2);
  manifest.policy = EnactmentPolicy::sp_dp();
  manifest.policy.retry.max_attempts = 4;
  manifest.policy.retry.timeout_multiplier = 2.5;
  manifest.policy.retry.timeout_min_samples = 7;
  manifest.policy.retry.backoff_initial_seconds = 30.0;
  manifest.policy.retry.backoff_factor = 1.5;

  const RunManifest back = RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(back.policy.retry.max_attempts, 4u);
  EXPECT_DOUBLE_EQ(back.policy.retry.timeout_multiplier, 2.5);
  EXPECT_EQ(back.policy.retry.timeout_min_samples, 7u);
  EXPECT_DOUBLE_EQ(back.policy.retry.backoff_initial_seconds, 30.0);
  EXPECT_DOUBLE_EQ(back.policy.retry.backoff_factor, 1.5);

  // Retries off => no retry attributes are written at all.
  RunManifest plain;
  plain.workflow = chain2();
  plain.inputs = items("src", 1);
  EXPECT_EQ(plain.to_xml().find("retry"), std::string::npos);
}

TEST(Retry, ManifestRoundTripsFailurePolicyAndBreaker) {
  RunManifest manifest;
  manifest.workflow = chain2();
  manifest.inputs = items("src", 1);
  manifest.policy = EnactmentPolicy::sp_dp();
  manifest.policy.failure_policy = FailurePolicy::kContinue;
  manifest.policy.breaker.enabled = true;
  manifest.policy.breaker.window = 12;
  manifest.policy.breaker.threshold = 5;
  manifest.policy.breaker.cooldown_seconds = 600.0;

  const RunManifest back = RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(back.policy.failure_policy, FailurePolicy::kContinue);
  EXPECT_TRUE(back.policy.breaker.enabled);
  EXPECT_EQ(back.policy.breaker.window, 12u);
  EXPECT_EQ(back.policy.breaker.threshold, 5u);
  EXPECT_DOUBLE_EQ(back.policy.breaker.cooldown_seconds, 600.0);

  // Defaults write no fault-containment attributes at all.
  RunManifest plain;
  plain.workflow = chain2();
  plain.inputs = items("src", 1);
  const std::string xml = plain.to_xml();
  EXPECT_EQ(xml.find("failurePolicy"), std::string::npos);
  EXPECT_EQ(xml.find("breaker"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-CE circuit breakers
// ---------------------------------------------------------------------------

grid::BreakerPolicy breaker_of(std::size_t window, std::size_t threshold,
                               double cooldown_seconds) {
  grid::BreakerPolicy breaker;
  breaker.enabled = true;
  breaker.window = window;
  breaker.threshold = threshold;
  breaker.cooldown_seconds = cooldown_seconds;
  return breaker;
}

TEST(Breaker, OpensAtThresholdAndIgnoresStaleOutcomes) {
  grid::CeHealth health(breaker_of(4, 2, 100.0));
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kClosed);
  health.record("ce0", /*success=*/false, 1.0);
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kClosed);
  health.record("ce0", /*success=*/false, 2.0);
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kOpen);
  EXPECT_EQ(health.opens(), 1u);
  EXPECT_EQ(health.open_breakers(), 1u);

  // A straggler completing after the trip cannot flap the open breaker.
  health.record("ce0", /*success=*/true, 3.0);
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kOpen);

  EXPECT_FALSE(health.admissible("ce0", 50.0));  // still cooling down
  EXPECT_TRUE(health.admissible("ce0", 150.0));  // the would-be probe
  EXPECT_TRUE(health.admissible("elsewhere", 0.0));  // unknown CEs are healthy
}

TEST(Breaker, SuccessesAgeFailuresOutOfTheWindow) {
  grid::CeHealth health(breaker_of(3, 2, 100.0));
  health.record("ce0", false, 1.0);
  health.record("ce0", true, 2.0);
  health.record("ce0", true, 3.0);
  health.record("ce0", true, 4.0);  // the failure has left the window
  health.record("ce0", false, 5.0);
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kClosed);
  EXPECT_EQ(health.opens(), 0u);
}

TEST(Breaker, HalfOpenProbeClosesOnSuccessReopensOnFailure) {
  grid::CeHealth health(breaker_of(4, 2, 100.0));
  std::vector<grid::CeHealth::Transition> transitions;
  health.set_transition_listener(
      [&](const grid::CeHealth::Transition& t) { transitions.push_back(t); });
  health.record("ce0", false, 0.0);
  health.record("ce0", false, 0.0);
  ASSERT_EQ(health.state("ce0"), grid::BreakerState::kOpen);

  health.on_routed("ce0", 150.0);  // cooldown over: the probe goes out
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kHalfOpen);
  EXPECT_EQ(health.probes(), 1u);
  EXPECT_FALSE(health.admissible("ce0", 200.0));  // one probe at a time

  health.record("ce0", false, 200.0);  // probe failed: reopen
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kOpen);
  EXPECT_FALSE(health.admissible("ce0", 250.0));  // cooldown restarted

  health.on_routed("ce0", 400.0);
  health.record("ce0", true, 420.0);  // second probe succeeds
  EXPECT_EQ(health.state("ce0"), grid::BreakerState::kClosed);
  EXPECT_EQ(health.opens(), 2u);
  EXPECT_EQ(health.closes(), 1u);

  ASSERT_EQ(transitions.size(), 5u);  // open, half-open, open, half-open, closed
  EXPECT_EQ(transitions.front().computing_element, "ce0");
  EXPECT_EQ(transitions.front().to, grid::BreakerState::kOpen);
  EXPECT_EQ(transitions.back().to, grid::BreakerState::kClosed);
}

TEST(Breaker, RoutesAwayFromAFlakySite) {
  // Two equivalent sites, one of which fails every attempt: with the breaker
  // the run converges to zero lost tuples and the timeline records the trip.
  const std::size_t kItems = 16;
  auto make_config = [](std::uint64_t seed) {
    grid::GridConfig cfg = grid::GridConfig::constant(30.0, 4096, seed);
    cfg.computing_elements.clear();
    grid::ComputingElementConfig good;
    good.name = "good";
    good.worker_slots = 64;
    grid::ComputingElementConfig flaky;
    flaky.name = "flaky";
    flaky.worker_slots = 64;
    flaky.failure_probability = 1.0;
    cfg.computing_elements = {good, flaky};
    cfg.max_attempts = 1;  // failures surface to the enactor
    return cfg;
  };

  auto run_with = [&](bool breaker_enabled) {
    sim::Simulator simulator;
    grid::Grid grid(simulator, make_config(42));
    SimGridBackend backend(grid);
    services::ServiceRegistry registry;
    register_chain_services(registry);
    EnactmentPolicy policy = EnactmentPolicy::sp_dp();
    policy.retry = RetryPolicy::resubmit(6);
    if (breaker_enabled) {
      policy.breaker = breaker_of(4, 2, /*cooldown=*/1e9);  // stays open
    }
    Enactor enactor(backend, registry, policy);
    return enactor.run({.workflow = chain2(), .inputs = items("src", kItems)});
  };

  const auto with_breaker = run_with(true);
  EXPECT_EQ(with_breaker.failures(), 0u);
  EXPECT_EQ(with_breaker.sink_outputs.at("sink").size(), kItems);
  bool flaky_opened = false;
  for (const auto& t : with_breaker.timeline.breaker_transitions()) {
    if (t.computing_element == "flaky" && t.to == grid::BreakerState::kOpen) {
      flaky_opened = true;
    }
    EXPECT_NE(t.to, grid::BreakerState::kClosed);  // never recovers in-run
  }
  EXPECT_TRUE(flaky_opened);

  // Without the breaker the flaky site keeps receiving (and failing)
  // submissions for the whole run.
  const auto without = run_with(false);
  EXPECT_TRUE(without.timeline.breaker_transitions().empty());
  EXPECT_GT(without.retries(), with_breaker.retries());
}

// ---------------------------------------------------------------------------
// FailurePolicy::kContinue — poisoned tokens and partial results
// ---------------------------------------------------------------------------

TEST(FailurePolicy, ContinueDeliversPartialResultsWithAFullAccounting) {
  const std::size_t kItems = 20;
  FaultyRig rig(/*failure_probability=*/0.5, /*stuck_probability=*/0.0, /*seed=*/9);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::resubmit(2);
  policy.failure_policy = FailurePolicy::kContinue;
  const auto result = rig.run(chain2(), items("src", kItems), policy);

  // p=0.5 with two attempts loses ~a quarter of the tuples at each stage;
  // the run must still terminate with the surviving tuples delivered.
  const std::size_t delivered = result.sink_outputs.at("sink").size();
  EXPECT_GT(result.failures(), 0u);
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, kItems);
  for (const auto& token : result.sink_outputs.at("sink")) {
    EXPECT_FALSE(token.poisoned());  // sinks only carry real data
  }

  const auto& report = result.failure_report;
  ASSERT_FALSE(report.empty());
  // Every missing sink output is exactly one lost tuple (at P0 or P1).
  EXPECT_EQ(delivered + report.lost.size(), kItems);
  EXPECT_EQ(report.lost.size(), result.failures());
  for (const auto& lost : report.lost) {
    EXPECT_TRUE(lost.processor == "P0" || lost.processor == "P1");
    EXPECT_EQ(lost.status, "Transient");
    EXPECT_FALSE(lost.cause.empty());
    EXPECT_EQ(lost.indices.size(), 1u);
  }
  // Each tuple lost at P0 skips exactly one P1 invocation downstream.
  const auto p0_losses = static_cast<std::size_t>(
      std::count_if(report.lost.begin(), report.lost.end(),
                    [](const FailureReport::LostTuple& lost) {
                      return lost.processor == "P0";
                    }));
  EXPECT_EQ(result.skipped(), p0_losses);
  EXPECT_EQ(report.skipped.size(), p0_losses);
  for (const auto& skipped : report.skipped) {
    EXPECT_EQ(skipped.processor, "P1");
    EXPECT_EQ(skipped.origin_processor, "P0");
  }
  // Every lost tuple surfaces as a poisoned token at the sink.
  EXPECT_EQ(report.poisoned_at_sink.at("sink"), kItems - delivered);

  // The report serializes to JSON and to a human-readable summary.
  EXPECT_NE(report.to_json().find("\"lost\""), std::string::npos);
  EXPECT_NE(report.to_json().find("\"poisonedAtSink\""), std::string::npos);
  EXPECT_NE(report.to_text().find("P0"), std::string::npos);
}

TEST(FailurePolicy, FailFastKeepsTheSeedAccounting) {
  // The default policy must reproduce the pre-containment numbers exactly:
  // no skips, no report, lossy sinks.
  const std::size_t kItems = 30;
  FaultyRig rig(/*failure_probability=*/0.1);
  register_chain_services(rig.registry);

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::none();
  const auto result = rig.run(chain2(), items("src", kItems), policy);

  EXPECT_GT(result.failures(), 0u);
  EXPECT_EQ(result.skipped(), 0u);
  EXPECT_TRUE(result.failure_report.skipped.empty());
  EXPECT_TRUE(result.failure_report.poisoned_at_sink.empty());
  // Lost tuples are still accounted for, even under fail-fast.
  EXPECT_EQ(result.failure_report.lost.size(), result.failures());
}

TEST(FailurePolicy, PoisonPropagatesThroughCrossIteration) {
  // a -> P0 (always fails) -> combine <- b: every (poisoned, b) pair must be
  // skipped, so the skip count multiplies across the cross product.
  const std::size_t kA = 4, kB = 3;
  Workflow wf("cross");
  wf.add_source("a");
  wf.add_source("b");
  wf.add_processor("P0", {"in"}, {"out"});
  wf.add_processor("combine", {"in1", "in2"}, {"out"});
  wf.processor("combine").iteration = workflow::IterationStrategy::kCross;
  wf.add_sink("sink");
  wf.link("a", "out", "P0", "in");
  wf.link("P0", "out", "combine", "in1");
  wf.link("b", "out", "combine", "in2");
  wf.link("combine", "out", "sink", "in");

  FaultyRig rig(/*failure_probability=*/1.0);
  rig.registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                    JobProfile{60.0, 0.0, 0.0}));
  rig.registry.add(services::make_simulated_service("combine", {"in1", "in2"},
                                                    {"out"},
                                                    JobProfile{45.0, 0.0, 0.0}));

  data::InputDataSet ds = items("a", kA);
  ds.declare_input("b");
  for (std::size_t j = 0; j < kB; ++j) ds.add_item("b", "right" + std::to_string(j));

  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry = RetryPolicy::resubmit(2);
  policy.failure_policy = FailurePolicy::kContinue;
  const auto result = rig.run(wf, ds, policy);

  EXPECT_EQ(result.failures(), kA);        // every a-tuple dies at P0
  EXPECT_EQ(result.skipped(), kA * kB);    // each poison crosses every b
  EXPECT_TRUE(result.sink_outputs.at("sink").empty());
  EXPECT_EQ(result.failure_report.poisoned_at_sink.at("sink"), kA * kB);
  for (const auto& skipped : result.failure_report.skipped) {
    EXPECT_EQ(skipped.processor, "combine");
    EXPECT_EQ(skipped.origin_processor, "P0");
    EXPECT_EQ(skipped.indices.size(), 2u);  // cross concatenates indices
  }
}

}  // namespace
}  // namespace moteur::enactor

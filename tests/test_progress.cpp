// Progress monitoring through the event stream: every attempt produces an
// AttemptStarted and every invocation an InvocationCompleted/Failed, every
// service a ProcessorFinished, counters are monotone, and a subscriber never
// changes the run's outcome.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "workflow/patterns.hpp"

namespace moteur::enactor {
namespace {

using Kind = obs::RunEvent::Kind;

data::InputDataSet items(std::size_t count) {
  data::InputDataSet ds;
  for (std::size_t j = 0; j < count; ++j) ds.add_item("src", "d" + std::to_string(j));
  return ds;
}

TEST(Progress, EventsCoverTheWholeRun) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(10.0));
  SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  for (int i = 0; i < 2; ++i) {
    registry.add(services::make_simulated_service("P" + std::to_string(i), {"in"},
                                                  {"out"}, services::JobProfile{5.0}));
  }

  std::vector<obs::RunEvent> events;
  Enactor moteur(backend, registry, EnactmentPolicy::sp_dp());
  moteur.add_event_subscriber([&events](const obs::RunEvent& e) { events.push_back(e); });
  const auto result =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = items(4)});

  std::map<Kind, std::size_t> counts;
  std::size_t tuples_submitted = 0, tuples_completed = 0;
  double last_time = 0.0;
  std::size_t last_invocations = 0, last_submissions = 0;
  for (const auto& e : events) {
    ++counts[e.kind];
    if (e.kind == Kind::kAttemptStarted) tuples_submitted += e.tuples;
    if (e.kind == Kind::kInvocationCompleted) tuples_completed += e.tuples;
    EXPECT_GE(e.time, last_time);  // event times are monotone
    last_time = e.time;
    EXPECT_GE(e.total_invocations, last_invocations);  // counters are monotone
    last_invocations = e.total_invocations;
    EXPECT_GE(e.total_submissions, last_submissions);
    last_submissions = e.total_submissions;
  }
  EXPECT_EQ(counts[Kind::kAttemptStarted], result.submissions());
  EXPECT_EQ(counts[Kind::kInvocationCompleted], result.submissions());
  EXPECT_EQ(counts[Kind::kInvocationFailed], 0u);
  EXPECT_EQ(counts[Kind::kProcessorFinished], 2u);
  EXPECT_EQ(tuples_submitted, 8u);
  EXPECT_EQ(tuples_completed, 8u);
}

TEST(Progress, KindNamesAreStable) {
  EXPECT_STREQ(obs::to_string(Kind::kAttemptStarted), "AttemptStarted");
  EXPECT_STREQ(obs::to_string(Kind::kInvocationCompleted), "InvocationCompleted");
  EXPECT_STREQ(obs::to_string(Kind::kInvocationFailed), "InvocationFailed");
  EXPECT_STREQ(obs::to_string(Kind::kRetryScheduled), "RetryScheduled");
  EXPECT_STREQ(obs::to_string(Kind::kWatchdogFired), "WatchdogFired");
  EXPECT_STREQ(obs::to_string(Kind::kProcessorFinished), "ProcessorFinished");
}

TEST(Progress, FailureEventsFire) {
  sim::Simulator simulator;
  auto config = grid::GridConfig::egee2006(9);
  config.failure_probability = 1.0;
  config.max_attempts = 1;
  config.background_jobs_per_hour = 0.0;
  grid::Grid grid(simulator, config);
  SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                services::JobProfile{5.0}));
  std::size_t failed_events = 0;
  Enactor moteur(backend, registry, EnactmentPolicy::sp_dp());
  moteur.add_event_subscriber([&failed_events](const obs::RunEvent& e) {
    if (e.kind == Kind::kInvocationFailed) ++failed_events;
  });
  const auto result =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = items(3)});
  EXPECT_EQ(result.failures(), 3u);
  EXPECT_EQ(failed_events, 3u);
}

TEST(Progress, NoListenerMeansNoOverheadOrChange) {
  const auto run_once = [](bool with_listener) {
    sim::Simulator simulator;
    grid::Grid grid(simulator, grid::GridConfig::constant(10.0));
    SimGridBackend backend(grid);
    services::ServiceRegistry registry;
    registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                  services::JobProfile{5.0}));
    Enactor moteur(backend, registry, EnactmentPolicy::sp_dp());
    if (with_listener) moteur.add_event_subscriber([](const obs::RunEvent&) {});
    return moteur.run({.workflow = workflow::make_chain(1), .inputs = items(5)})
        .makespan();
  };
  EXPECT_DOUBLE_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace moteur::enactor

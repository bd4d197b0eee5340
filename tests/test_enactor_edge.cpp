// Edge cases and less-traveled paths of the enactment engine: multi-branch
// sinks, conditional outputs, cross->dot chains, barriers mid-workflow,
// loops under every policy, in series and fed by a barrier, partial
// failures upstream of barriers, engine errors, deadlock diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "grid/grid.hpp"
#include "scripted_backend.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "test_workflows.hpp"
#include "util/error.hpp"
#include "workflow/patterns.hpp"

namespace moteur::enactor {
namespace {

using services::FunctionalService;
using services::Inputs;
using services::JobProfile;
using services::Result;

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
  SimGridBackend backend;
  services::ServiceRegistry registry;

  explicit SimRig(double overhead = 0.0)
      : grid(simulator, grid::GridConfig::constant(overhead)), backend(grid) {}

  EnactmentResult run(const workflow::Workflow& wf, const data::InputDataSet& ds,
                      EnactmentPolicy policy = EnactmentPolicy::sp_dp()) {
    Enactor moteur(backend, registry, policy);
    return moteur.run({.workflow = wf, .inputs = ds});
  }
};

TEST(EnactorEdge, SinkCollectsFromMultipleBranches) {
  SimRig rig;
  for (const char* name : {"P0", "P1", "P2", "P3"}) {
    rig.registry.add(services::make_simulated_service(name, {"in"}, {"out"},
                                                      JobProfile{5.0}));
  }
  const auto wf = workflow::make_fan_out(3);
  const auto result = rig.run(wf, items("src", 2));
  // 2 items through 3 branches: 6 tokens on the shared sink.
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 6u);
}

TEST(EnactorEdge, ConditionalOutputsRouteAndShrinkStreams) {
  // A filter service: even-index items go to "pass", odd to "reject".
  SimRig rig;
  rig.registry.add(std::make_shared<FunctionalService>(
      "filter", std::vector<std::string>{"in"},
      std::vector<std::string>{"pass", "reject"},
      [](const Inputs& in) {
        Result r;
        const char* port = in.at("in").indices()[0] % 2 == 0 ? "pass" : "reject";
        r.outputs[port] = services::OutputValue{1, "x"};
        return r;
      }));
  rig.registry.add(services::make_simulated_service("after", {"in"}, {"out"},
                                                    JobProfile{1.0}));

  workflow::Workflow wf("filtering");
  wf.add_source("src");
  wf.add_processor("filter", {"in"}, {"pass", "reject"});
  wf.add_processor("after", {"in"}, {"out"});
  wf.add_sink("passed");
  wf.add_sink("rejected");
  wf.link("src", "out", "filter", "in");
  wf.link("filter", "pass", "after", "in");
  wf.link("after", "out", "passed", "in");
  wf.link("filter", "reject", "rejected", "in");

  ThreadedBackend backend;  // real conditional routing needs real invocation
  Enactor moteur(backend, rig.registry, EnactmentPolicy::sp_dp());
  const auto result = moteur.run({.workflow = wf, .inputs = items("src", 7)});
  EXPECT_EQ(result.sink_outputs.at("passed").size(), 4u);    // 0,2,4,6
  EXPECT_EQ(result.sink_outputs.at("rejected").size(), 3u);  // 1,3,5
}

TEST(EnactorEdge, CrossThenDotKeepsAlignment) {
  // all-pairs cross (2x3=6) followed by two parallel dot services whose
  // outputs re-join in a dot consumer: the composite indices must align.
  SimRig rig;
  for (const char* name : {"cross", "left", "right", "join"}) {
    (void)name;
  }
  rig.registry.add(services::make_simulated_service("cross", {"a", "b"}, {"out"},
                                                    JobProfile{1.0}));
  rig.registry.add(services::make_simulated_service("left", {"in"}, {"out"},
                                                    JobProfile{1.0}));
  rig.registry.add(services::make_simulated_service("right", {"in"}, {"out"},
                                                    JobProfile{2.0}));
  rig.registry.add(services::make_simulated_service("join", {"l", "r"}, {"out"},
                                                    JobProfile{1.0}));

  workflow::Workflow wf("cross-dot");
  wf.add_source("A");
  wf.add_source("B");
  wf.add_processor("cross", {"a", "b"}, {"out"}, workflow::IterationStrategy::kCross);
  wf.add_processor("left", {"in"}, {"out"});
  wf.add_processor("right", {"in"}, {"out"});
  wf.add_processor("join", {"l", "r"}, {"out"});
  wf.add_sink("sink");
  wf.link("A", "out", "cross", "a");
  wf.link("B", "out", "cross", "b");
  wf.link("cross", "out", "left", "in");
  wf.link("cross", "out", "right", "in");
  wf.link("left", "out", "join", "l");
  wf.link("right", "out", "join", "r");
  wf.link("join", "out", "sink", "in");

  data::InputDataSet ds;
  for (int j = 0; j < 2; ++j) ds.add_item("A", "a" + std::to_string(j));
  for (int j = 0; j < 3; ++j) ds.add_item("B", "b" + std::to_string(j));

  const auto result = rig.run(wf, ds);
  const auto& tokens = result.sink_outputs.at("sink");
  ASSERT_EQ(tokens.size(), 6u);
  for (const auto& token : tokens) {
    EXPECT_EQ(token.indices().size(), 2u);  // composite (a, b) index
    // Both join inputs descend from the SAME cross combination.
    const auto sources = token.provenance()->source_indices();
    EXPECT_EQ(sources.at("A").size(), 1u);
    EXPECT_EQ(sources.at("B").size(), 1u);
  }
}

TEST(EnactorEdge, ServicesDownstreamOfBarrierRun) {
  SimRig rig;
  rig.registry.add(services::make_simulated_service("work", {"in"}, {"out"},
                                                    JobProfile{10.0}));
  rig.registry.add(services::make_simulated_service("stats", {"all"}, {"mean"},
                                                    JobProfile{5.0}));
  rig.registry.add(services::make_simulated_service("post", {"in"}, {"out"},
                                                    JobProfile{3.0}));

  workflow::Workflow wf("two-layers");
  wf.add_source("src");
  wf.add_processor("work", {"in"}, {"out"});
  auto& stats = wf.add_processor("stats", {"all"}, {"mean"});
  stats.synchronization = true;
  wf.add_processor("post", {"in"}, {"out"});
  wf.add_sink("sink");
  wf.link("src", "out", "work", "in");
  wf.link("work", "out", "stats", "all");
  wf.link("stats", "mean", "post", "in");
  wf.link("post", "out", "sink", "in");

  for (const auto policy : {EnactmentPolicy::nop(), EnactmentPolicy::sp_dp()}) {
    const auto result = rig.run(wf, items("src", 4), policy);
    EXPECT_EQ(result.sink_outputs.at("sink").size(), 1u);
    EXPECT_EQ(result.timeline.for_processor("post").size(), 1u);
    // The barrier's aggregate index is empty; post inherits it.
    EXPECT_TRUE(result.sink_outputs.at("sink")[0].indices().empty());
  }
}

TEST(EnactorEdge, LoopWorksUnderEveryPolicy) {
  const auto wf = workflow::make_optimization_loop();
  for (const auto& config : {"NOP", "SP", "DP", "SP+DP"}) {
    services::ServiceRegistry registry;
    testkit::add_loop_services(registry);
    ThreadedBackend backend(2);
    Enactor moteur(backend, registry, EnactmentPolicy::parse(config));
    const auto result = moteur.run({.workflow = wf, .inputs = items("Source", 2)});
    ASSERT_EQ(result.sink_outputs.at("Sink").size(), 2u) << config;
    for (const auto& token : result.sink_outputs.at("Sink")) {
      EXPECT_EQ(token.as<int>(), 2) << config;
    }
  }
}

TEST(EnactorEdge, LoopsInSeriesWaitForEachOtherButNotForTheirPartners) {
  // Source -> P1 -> loop(P2 <-> P3) -> B -> loop(Q2 <-> Q3) -> Sink. With
  // stage synchronization on (SP off), the second loop waits for the whole
  // first loop, while each loop member waits for no partner of its own loop.
  // The barrier B hands the second loop one aggregate of the first loop's
  // items.
  const workflow::Workflow wf = testkit::loops_in_series(/*barrier=*/true);
  for (const auto& config : {"NOP", "DP"}) {
    services::ServiceRegistry registry;
    testkit::add_loop_services(registry);
    ThreadedBackend backend(2);
    Enactor moteur(backend, registry, EnactmentPolicy::parse(config));
    const auto result = moteur.run({.workflow = wf, .inputs = items("Source", 3)});
    ASSERT_EQ(result.sink_outputs.at("Sink").size(), 1u) << config;
    EXPECT_EQ(result.sink_outputs.at("Sink")[0].as<int>(), 2) << config;
    // Two passes through each loop: per item in the first, for the one
    // aggregate in the second.
    EXPECT_EQ(result.timeline.for_processor("P2").size(), 6u) << config;
    EXPECT_EQ(result.timeline.for_processor("Q2").size(), 2u) << config;
    double first_loop_end = 0.0;
    for (const char* name : {"P2", "P3"}) {
      for (const auto* trace : result.timeline.for_processor(name)) {
        first_loop_end = std::max(first_loop_end, trace->end_time);
      }
    }
    for (const char* name : {"B", "Q2", "Q3"}) {
      for (const auto* trace : result.timeline.for_processor(name)) {
        EXPECT_GE(trace->submit_time, first_loop_end) << config << " " << name;
      }
    }
  }
}

TEST(EnactorEdge, LoopsJoinedDirectlyCloseOneAfterTheOther) {
  // P3's exit feeds Q2 straight away. With SP off, Q2 holds its ready tuples
  // until the first loop finishes, so the first loop must close while Q2 is
  // still waiting on it: its closure looks only at what can reach P3.
  const workflow::Workflow wf = testkit::loops_in_series(/*barrier=*/false);
  for (const auto& config : {"NOP", "DP"}) {
    services::ServiceRegistry registry;
    testkit::add_loop_services(registry);
    ThreadedBackend backend(2);
    Enactor moteur(backend, registry, EnactmentPolicy::parse(config));
    const auto result = moteur.run({.workflow = wf, .inputs = items("Source", 3)});
    ASSERT_EQ(result.sink_outputs.at("Sink").size(), 3u) << config;
    for (const auto& token : result.sink_outputs.at("Sink")) {
      EXPECT_EQ(token.as<int>(), 3) << config;
    }
    EXPECT_EQ(result.timeline.for_processor("P2").size(), 6u) << config;
    EXPECT_EQ(result.timeline.for_processor("Q2").size(), 3u) << config;
  }
}

TEST(EnactorEdge, LoopFedByABarrierStaysOpenUntilTheBarrierFinishes) {
  // T = cross(x from H, y from Bar) closes the loop H <-> T, and Bar waits
  // for the whole loop A2 <-> A3. H's feedback port must stay open until
  // Bar has finished, although H and T sit idle while Bar waits: T's loop
  // output arrives only after Bar fires.
  const workflow::Workflow wf = testkit::loop_fed_by_barrier();
  for (const auto& config : {"NOP", "SP+DP"}) {
    services::ServiceRegistry registry;
    testkit::add_loop_services(registry);
    ThreadedBackend backend(2);
    Enactor moteur(backend, registry, EnactmentPolicy::parse(config));
    data::InputDataSet inputs = items("S0", 2);
    inputs.declare_input("S2");
    inputs.add_item("S2", "item0");
    const auto result = moteur.run({.workflow = wf, .inputs = inputs});
    ASSERT_EQ(result.sink_outputs.at("Sink").size(), 1u) << config;
    EXPECT_EQ(result.sink_outputs.at("Sink")[0].as<int>(), 2) << config;
  }
}

TEST(EnactorEdge, EngineErrorInACompletionFailsTheRunWithItsOwnText) {
  // C = dot(a, b), with port a fed by source S2 at start and later by X,
  // both with index [0]: X's completion pushes a duplicate token.
  testkit::ConflictingFeeds conflict;
  ThreadedBackend backend(2);
  Enactor moteur(backend, conflict.registry, EnactmentPolicy::sp_dp());
  try {
    moteur.run({.workflow = conflict.workflow, .inputs = conflict.inputs()});
    FAIL() << "expected EnactmentError";
  } catch (const EnactmentError& e) {
    EXPECT_EQ(e.what(), std::string(testkit::ConflictingFeeds::kError));
  }
}

/// src -> zeta -> alpha -> sink: topological order differs from name order.
struct StalledChain {
  workflow::Workflow workflow{"stalled"};
  services::ServiceRegistry registry;

  StalledChain() {
    workflow.add_source("src");
    workflow.add_processor("zeta", {"in"}, {"out"});
    workflow.add_processor("alpha", {"in"}, {"out"});
    workflow.add_sink("sink");
    workflow.link("src", "out", "zeta", "in");
    workflow.link("zeta", "out", "alpha", "in");
    workflow.link("alpha", "out", "sink", "in");
    for (const char* name : {"zeta", "alpha"}) {
      registry.add(services::make_simulated_service(name, {"in"}, {"out"}, JobProfile{1.0}));
    }
  }
};

// The deadlock text lists the unfinished processors in name order.
const char* const kDeadlockText =
    "workflow deadlocked; unfinished processors: alpha, sink, zeta";

TEST(EnactorEdge, DeadlockNamesUnfinishedProcessorsInNameOrder) {
  StalledChain chain;
  testkit::ScriptedBackend backend;  // never completes an execution
  Enactor moteur(backend, chain.registry, EnactmentPolicy::sp_dp());
  try {
    moteur.run({.workflow = chain.workflow, .inputs = items("src", 2)});
    FAIL() << "expected EnactmentError";
  } catch (const EnactmentError& e) {
    EXPECT_EQ(e.what(), std::string("enactment error: ") + kDeadlockText);
  }
}

TEST(EnactorEdge, DeadlockedServiceRunFailsWithTheSameText) {
  StalledChain chain;
  testkit::ScriptedBackend backend;  // never completes an execution
  service::RunService svc(backend, chain.registry);
  const service::RunHandle handle =
      svc.submit({.workflow = chain.workflow, .inputs = items("src", 2)});
  EXPECT_EQ(handle.wait(), service::RunState::kFailed);
  EXPECT_EQ(handle.error(), kDeadlockText);
}

TEST(EnactorEdge, BarrierFiresOnPartiallyFailedStream) {
  // One work invocation fails definitively; the barrier still fires, on the
  // surviving results.
  sim::Simulator simulator;
  auto config = grid::GridConfig::egee2006(5);
  config.background_jobs_per_hour = 0.0;
  config.failure_probability = 0.25;
  config.max_attempts = 1;  // definitive failures likely
  grid::Grid grid(simulator, config);
  SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service("work", {"in"}, {"out"},
                                                JobProfile{10.0}));
  registry.add(services::make_simulated_service("stats", {"all"}, {"mean"},
                                                JobProfile{5.0}));

  workflow::Workflow wf("partial");
  wf.add_source("src");
  wf.add_processor("work", {"in"}, {"out"});
  auto& stats = wf.add_processor("stats", {"all"}, {"mean"});
  stats.synchronization = true;
  wf.add_sink("sink");
  wf.link("src", "out", "work", "in");
  wf.link("work", "out", "stats", "all");
  wf.link("stats", "mean", "sink", "in");

  Enactor moteur(backend, registry, EnactmentPolicy::sp_dp());
  const auto result = moteur.run({.workflow = wf, .inputs = items("src", 20)});
  EXPECT_GT(result.failures(), 0u);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 1u);  // barrier still fired
  EXPECT_EQ(result.timeline.for_processor("stats").size(), 1u);
}

TEST(EnactorEdge, DeterministicTimelineUnderFixedSeed) {
  const auto run_once = [] {
    sim::Simulator simulator;
    grid::Grid grid(simulator, grid::GridConfig::egee2006(42));
    SimGridBackend backend(grid);
    services::ServiceRegistry registry;
    for (int i = 0; i < 3; ++i) {
      registry.add(services::make_simulated_service("P" + std::to_string(i), {"in"},
                                                    {"out"}, JobProfile{60.0}));
    }
    Enactor moteur(backend, registry, EnactmentPolicy::sp_dp());
    const auto result =
        moteur.run({.workflow = workflow::make_chain(3), .inputs = items("src", 6)});
    std::vector<double> ends;
    for (const auto& trace : result.timeline.traces()) ends.push_back(trace.end_time);
    return ends;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EnactorEdge, CapAndBatchCompose) {
  SimRig rig(100.0);
  rig.registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                    JobProfile{10.0}));
  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.data_parallelism_cap = 2;
  policy.batch_size = 3;
  const auto result = rig.run(workflow::make_chain(1), items("src", 12), policy);
  EXPECT_EQ(result.submissions(), 4u);  // 12 items / batch 3
  // Waves of at most 2 concurrent jobs of (100 + 30): 4 jobs, cap 2 -> 2 waves.
  EXPECT_DOUBLE_EQ(result.makespan(), 2 * 130.0);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 12u);
}

TEST(EnactorEdge, UndeclaredServiceOutputsAreIgnored) {
  // The service produces an extra port the processor does not declare: the
  // enactor forwards only declared ports.
  SimRig rig;
  rig.registry.add(std::make_shared<FunctionalService>(
      "P0", std::vector<std::string>{"in"}, std::vector<std::string>{"out", "debug"},
      FunctionalService::InvokeFn{}, JobProfile{1.0}));
  const auto result = rig.run(workflow::make_chain(1), items("src", 2));
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 2u);
}

TEST(EnactorEdge, SequentialRunsMatchFreshEnactors) {
  // Multi-run safety: two sequential runs on one Enactor must be
  // indistinguishable from two fresh enactors on fresh rigs — no counter,
  // buffer or health state may leak from run to run.
  const auto fresh = [](std::size_t count) {
    SimRig rig(10.0);
    rig.registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                      JobProfile{5.0}));
    rig.registry.add(services::make_simulated_service("P1", {"in"}, {"out"},
                                                      JobProfile{5.0}));
    Enactor moteur(rig.backend, rig.registry, EnactmentPolicy::sp_dp());
    return moteur.run(
        {.workflow = workflow::make_chain(2), .inputs = items("src", count)});
  };
  const auto baseline_a = fresh(3);
  const auto baseline_b = fresh(5);

  SimRig rig(10.0);
  rig.registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                    JobProfile{5.0}));
  rig.registry.add(services::make_simulated_service("P1", {"in"}, {"out"},
                                                    JobProfile{5.0}));
  Enactor moteur(rig.backend, rig.registry, EnactmentPolicy::sp_dp());
  const auto first =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = items("src", 3)});
  const auto second =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = items("src", 5)});

  const auto expect_equal = [](const EnactmentResult& got, const EnactmentResult& want) {
    EXPECT_DOUBLE_EQ(got.makespan(), want.makespan());
    EXPECT_EQ(got.invocations(), want.invocations());
    EXPECT_EQ(got.submissions(), want.submissions());
    EXPECT_EQ(got.failures(), want.failures());
    EXPECT_EQ(got.sink_outputs.at("sink").size(), want.sink_outputs.at("sink").size());
  };
  expect_equal(first, baseline_a);
  expect_equal(second, baseline_b);
}

TEST(EnactorEdge, StragglerFromPreviousRunCannotCorruptNextRun) {
  // Run 1 rescues stuck jobs by racing watchdog clones; the losing original
  // is still pending inside the sim when the run ends. Run 2 on the same
  // backend advances the sim past those stale completions — they must be
  // discarded (the engine that submitted them is gone), not delivered into
  // the new run's bookkeeping.
  sim::Simulator simulator;
  grid::GridConfig cfg = grid::GridConfig::constant(30.0, 4096, 11);
  cfg.stuck_job_probability = 0.2;
  cfg.stuck_job_factor = 50.0;
  grid::Grid grid(simulator, cfg);
  SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                JobProfile{30.0}));

  Enactor moteur(backend, registry, EnactmentPolicy::sp_dp());
  EnactmentPolicy watchdog = EnactmentPolicy::sp_dp();
  watchdog.retry.max_attempts = 4;
  watchdog.retry.timeout_multiplier = 3.0;
  watchdog.retry.timeout_min_samples = 3;
  const auto first = moteur.run({.workflow = workflow::make_chain(1),
                                 .inputs = items("src", 20),
                                 .policy = watchdog});
  ASSERT_GT(first.timeouts(), 0u);  // clones raced; originals left in flight

  const auto second = moteur.run(
      {.workflow = workflow::make_chain(1), .inputs = items("src", 6)});
  EXPECT_EQ(second.sink_outputs.at("sink").size(), 6u);
  EXPECT_EQ(second.invocations(), 6u);
  EXPECT_EQ(second.failures(), 0u);
  EXPECT_EQ(second.timeouts(), 0u);
}

TEST(EnactorEdge, UnknownPolicyNamesThrowBeforeAnyJobIsSubmitted) {
  SimRig rig(10.0);
  rig.registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                    JobProfile{5.0}));
  for (const auto& [field, name] : {std::pair{"matchmaking", &EnactmentPolicy::matchmaking},
                                    std::pair{"placement", &EnactmentPolicy::placement}}) {
    EnactmentPolicy policy = EnactmentPolicy::sp_dp();
    policy.*name = "bogus";
    Enactor moteur(rig.backend, rig.registry, policy);
    try {
      moteur.run({.workflow = workflow::make_chain(1), .inputs = items("src", 3)});
      FAIL() << "expected ParseError for " << field;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("run ") + field + " policy"), std::string::npos) << what;
      EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    }
    EXPECT_EQ(rig.backend.jobs_submitted(), 0u) << field;
    EXPECT_EQ(rig.grid.stats().submitted, 0u) << field;
  }
  // The backend is left clean for the next run.
  EXPECT_EQ(rig.run(workflow::make_chain(1), items("src", 3)).sink_outputs.at("sink").size(),
            3u);
}

TEST(EnactorEdge, RerunningEnactorReusesBackendCleanly) {
  // One backend and registry, several runs back to back (clock keeps
  // advancing; results independent).
  SimRig rig(10.0);
  rig.registry.add(services::make_simulated_service("P0", {"in"}, {"out"},
                                                    JobProfile{5.0}));
  Enactor moteur(rig.backend, rig.registry, EnactmentPolicy::sp_dp());
  const auto first =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = items("src", 3)});
  const auto second =
      moteur.run({.workflow = workflow::make_chain(1), .inputs = items("src", 3)});
  EXPECT_DOUBLE_EQ(first.makespan(), 15.0);
  EXPECT_DOUBLE_EQ(second.makespan(), 15.0);  // relative to its own start
  EXPECT_EQ(second.sink_outputs.at("sink").size(), 3u);
}

}  // namespace
}  // namespace moteur::enactor
